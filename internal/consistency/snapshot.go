package consistency

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/snapshot"
	"repro/internal/tree"
)

// This file is the TreeIndex half of the document snapshot format: the
// pre-rank tables, sibling orderings and internal-node words are written
// as flat sections and adopted back without re-running build(), so a
// snapshot load never counts as an index build (IndexBuildCount stays
// put; IndexLoadCount counts loads instead).

// indexLoads counts snapshot-loaded TreeIndex constructions process-wide;
// tests assert on it (together with IndexBuildCount) to prove cold starts
// go through the zero-copy path rather than a hidden rebuild.
var indexLoads atomic.Int64

// IndexLoadCount returns the number of TreeIndex snapshot loads so far in
// this process (test/benchmark instrumentation).
func IndexLoadCount() int64 { return indexLoads.Load() }

// AppendBinary writes the index's sections into w. Label words are not
// serialized — they are rebuilt (lazily, or eagerly via
// MaterializeLabels) from the tree's label index after loading. The v1
// format also stores the (preEnd, pre) order as nodes by position; the
// index keeps only its inverse, preEndPos, so that section is derived here.
func (ix *TreeIndex) AppendBinary(w *snapshot.Writer) {
	preEndNode := make([]int32, len(ix.preEndPos))
	for v, pos := range ix.preEndPos {
		preEndNode[pos] = int32(v)
	}
	w.Int32s(snapshot.TagIxSibRank, ix.sibRank)
	w.Int32s(snapshot.TagIxSibStart, ix.sibStart)
	w.Int32s(snapshot.TagIxPreEndNode, preEndNode)
	w.Int32s(snapshot.TagIxPreEndPos, ix.preEndPos)
	w.Int32s(snapshot.TagIxPreEndVal, ix.preEndVal)
	w.Int32s(snapshot.TagIxParentPre, ix.parentPre)
	w.Int32s(snapshot.TagIxFirstChild, ix.firstChildPre)
	w.Int32s(snapshot.TagIxNextSib, ix.nextSibPre)
	w.Int32s(snapshot.TagIxPrevSib, ix.prevSibPre)
	w.Int32s(snapshot.TagIxSubtreeEnd, ix.subtreeEnd)
	w.Uint64s(snapshot.TagIxInternal, ix.internalPre)
}

// LoadBinary reconstructs the TreeIndex for t from r, bypassing build():
// every table is adopted from the snapshot (zero-copy when the reader
// allows), and label words start empty exactly as after a fresh build.
// Validation is bounds-level, so a corrupt file yields an error, never a
// panic.
func LoadBinary(r *snapshot.Reader, t *tree.Tree) (*TreeIndex, error) {
	n := t.Len()
	hi := int32(n) - 1
	ix := &TreeIndex{}
	var err error
	load := func(dst *[]int32, tag uint32, lo int32) {
		if err == nil {
			*dst, err = r.Int32sIn(tag, n, lo, hi)
		}
	}
	load(&ix.sibRank, snapshot.TagIxSibRank, 0)
	load(&ix.sibStart, snapshot.TagIxSibStart, 0)
	load(&ix.preEndPos, snapshot.TagIxPreEndPos, 0)
	load(&ix.preEndVal, snapshot.TagIxPreEndVal, 0)
	load(&ix.parentPre, snapshot.TagIxParentPre, -1)
	load(&ix.firstChildPre, snapshot.TagIxFirstChild, -1)
	load(&ix.nextSibPre, snapshot.TagIxNextSib, -1)
	load(&ix.prevSibPre, snapshot.TagIxPrevSib, -1)
	load(&ix.subtreeEnd, snapshot.TagIxSubtreeEnd, 0)
	if err != nil {
		return nil, err
	}
	// The v1 (preEnd, pre)-order-by-position section is checked and
	// dropped: preEndPos is its inverse and the only one read.
	if _, err := r.Int32sIn(snapshot.TagIxPreEndNode, n, 0, hi); err != nil {
		return nil, err
	}
	internal, err := r.Uint64s(snapshot.TagIxInternal)
	if err != nil {
		return nil, err
	}
	if len(internal) != bitset.Words(n) {
		return nil, fmt.Errorf("%w: internal-node bitset has %d words, want %d",
			snapshot.ErrCorrupt, len(internal), bitset.Words(n))
	}
	ix.internalPre = internal
	ix.t = t
	indexLoads.Add(1)
	return ix, nil
}
