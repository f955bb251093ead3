package core

import (
	"io"

	"repro/internal/consistency"
	"repro/internal/snapshot"
	"repro/internal/tree"
)

// Snapshot encodes the document — tree orders plus the prebuilt index
// tables — into the versioned binary snapshot format. The encoding is
// deterministic: the same document always yields the same bytes (the
// golden-fixture compatibility test pins this).
func (d *Document) Snapshot() []byte {
	w := snapshot.NewWriter()
	w.WriteMeta(d.t.SnapshotMeta())
	d.t.AppendSections(w)
	d.ix.AppendBinary(w)
	return w.Finish()
}

// WriteTo writes the document's snapshot encoding to w, implementing
// io.WriterTo.
func (d *Document) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(d.Snapshot())
	return int64(n), err
}

// LoadDocument reconstructs a Document from snapshot bytes without
// re-parsing or re-indexing: the tree's order arrays and the index's rank
// tables are adopted straight from data (zero-copy views when data is
// 8-byte aligned — see snapshot.ReadFile — an element-wise copy
// otherwise). The document aliases data afterwards; the caller must not
// modify it. Corrupt, truncated, or version-skewed input returns a typed
// error from internal/snapshot (ErrBadMagic, ErrVersion, ErrChecksum,
// ErrTruncated, ErrCorrupt), never a panic.
//
// A load bumps consistency.IndexLoadCount, not IndexBuildCount: tests
// assert on the pair to prove cold starts skip build() entirely.
func LoadDocument(data []byte) (*Document, error) {
	r, err := snapshot.Open(data)
	if err != nil {
		return nil, err
	}
	t, err := tree.FromSnapshot(r)
	if err != nil {
		return nil, err
	}
	ix, err := consistency.LoadBinary(r, t)
	if err != nil {
		return nil, err
	}
	return &Document{t: t, ix: ix}, nil
}

// Materialize eagerly builds every lazy structure of the document (the
// per-label words and the shared empty words), fixing SizeBytes: after
// this call no query mix changes the document's footprint. The corpus
// calls it before charging a document to the byte budget so accounted
// bytes equal actual bytes for the document's whole residency.
func (d *Document) Materialize() { d.ix.MaterializeLabels() }
