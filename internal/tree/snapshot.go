package tree

import (
	"fmt"
	"unsafe"

	"repro/internal/snapshot"
)

// This file is the Tree half of the document snapshot format: every
// array of the tree's flat layout is written as a little-endian section,
// so loading a document skips both the parse and finish().
// The container (magic, version, checksum, zero-copy views) lives in
// internal/snapshot; the index half in internal/consistency.

// nodeIDs reinterprets a []int32 as []NodeID (identical layout); used to
// adopt zero-copy views from the snapshot reader without a copy.
func nodeIDs(v []int32) []NodeID {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*NodeID)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

// int32s is the inverse reinterpretation, for encoding.
func int32s(v []NodeID) []int32 {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

// SnapshotMeta returns the document meta header for t.
func (t *Tree) SnapshotMeta() snapshot.Meta {
	return snapshot.Meta{Nodes: t.size, Labels: t.numLabels(), Structure: t.structure}
}

// AppendSections writes t's sections into w. They are the tree's own
// flat arrays, passed by reference: nothing is copied or re-derived until
// the writer's Finish. The encoding is fully deterministic (label names in
// alphabet order), which the golden-fixture compatibility test relies on:
// same tree, same bytes.
func (t *Tree) AppendSections(w *snapshot.Writer) {
	w.Int32s(snapshot.TagTreeParent, int32s(t.parent))
	w.Int32s(snapshot.TagTreeKidsOff, t.kidsOff)
	w.Int32s(snapshot.TagTreeKidsFlat, int32s(t.kidsFlat))
	w.Int32s(snapshot.TagTreeSibIndex, t.sibIndex)
	w.Int32s(snapshot.TagTreePre, t.pre)
	w.Int32s(snapshot.TagTreePost, t.post)
	w.Int32s(snapshot.TagTreeBFLR, t.bflr)
	w.Int32s(snapshot.TagTreeDepth, t.depth)
	w.Int32s(snapshot.TagTreePreEnd, t.preEnd)
	w.Int32s(snapshot.TagTreeByPre, int32s(t.byPre))
	w.Int32s(snapshot.TagTreeByPost, int32s(t.byPost))
	w.Int32s(snapshot.TagTreeByBFLR, int32s(t.byBFLR))
	w.Bytes(snapshot.TagTreeNames, unsafe.Slice(unsafe.StringData(t.nameStr), len(t.nameStr)))
	w.Int32s(snapshot.TagTreeNameOff, t.nameOff)
	w.Int32s(snapshot.TagTreeLabelOff, t.labelOff)
	w.Int32s(snapshot.TagTreeLabelIDs, t.labelIDs)
}

// offsets reads the offset table tag and verifies it has count entries
// (count >= 1) rising monotonically from 0 to end.
func offsets(r *snapshot.Reader, tag uint32, count int, end int32) ([]int32, error) {
	v, err := r.Int32s(tag)
	if err != nil {
		return nil, err
	}
	if len(v) != count || v[0] != 0 || v[len(v)-1] != end {
		return nil, fmt.Errorf("%w: section %#x is not %d offsets spanning [0, %d]", snapshot.ErrCorrupt, tag, count, end)
	}
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1] {
			return nil, fmt.Errorf("%w: section %#x offsets decrease at %d", snapshot.ErrCorrupt, tag, i)
		}
	}
	return v, nil
}

// FromSnapshot reconstructs a Tree from r without re-running finish():
// every array of the tree's layout — the orders, the CSR child lists and
// the CSR label ids — is adopted from the snapshot (zero-copy when the
// reader allows). Only the label names (one string), the per-occurrence
// label strings and the label index are rebuilt, none of them per node.
// Validation is bounds-level — offsets monotone, ids in range, byPre the
// inverse of pre — so a corrupt-but-checksummed file yields an error,
// never a panic; semantic integrity (the orders being genuine permutations
// of a real tree) is the producer's contract.
func FromSnapshot(r *snapshot.Reader) (*Tree, error) {
	meta, err := r.Meta()
	if err != nil {
		return nil, err
	}
	n := meta.Nodes
	t := &Tree{size: n, structure: meta.Structure}
	hi := int32(n) - 1

	load := func(dst *[]int32, tag uint32, lo, hi int32) {
		if err == nil {
			*dst, err = r.Int32sIn(tag, n, lo, hi)
		}
	}
	var parent, byPre, byPost, byBFLR []int32
	load(&parent, snapshot.TagTreeParent, -1, hi)
	load(&t.sibIndex, snapshot.TagTreeSibIndex, 0, hi)
	load(&t.pre, snapshot.TagTreePre, 0, hi)
	load(&t.post, snapshot.TagTreePost, 0, hi)
	load(&t.bflr, snapshot.TagTreeBFLR, 0, hi)
	load(&t.depth, snapshot.TagTreeDepth, 0, hi)
	load(&t.preEnd, snapshot.TagTreePreEnd, 0, hi)
	load(&byPre, snapshot.TagTreeByPre, 0, hi)
	load(&byPost, snapshot.TagTreeByPost, 0, hi)
	load(&byBFLR, snapshot.TagTreeByBFLR, 0, hi)
	if err != nil {
		return nil, err
	}
	if n > 0 && parent[0] != -1 {
		return nil, fmt.Errorf("%w: node 0 is not the root", snapshot.ErrCorrupt)
	}
	// byPre drives the label-index walk below; a duplicate entry would
	// overflow the per-label buckets. Being pre's inverse makes it a
	// permutation, checked without allocating.
	for v, r := range t.pre {
		if byPre[r] != int32(v) {
			return nil, fmt.Errorf("%w: byPre is not the inverse of pre", snapshot.ErrCorrupt)
		}
	}
	t.parent = nodeIDs(parent)
	t.byPre = nodeIDs(byPre)
	t.byPost = nodeIDs(byPost)
	t.byBFLR = nodeIDs(byBFLR)

	// Child lists: adopt the CSR offsets and the flat array.
	edges := max(n-1, 0)
	if t.kidsOff, err = offsets(r, snapshot.TagTreeKidsOff, n+1, int32(edges)); err != nil {
		return nil, err
	}
	kidsFlat, err := r.Int32sIn(snapshot.TagTreeKidsFlat, edges, 0, hi)
	if err != nil {
		return nil, err
	}
	t.kidsFlat = nodeIDs(kidsFlat)

	// Label table: the names become one string; the offsets and the
	// per-node ids are adopted.
	nameBytes, err := r.Bytes(snapshot.TagTreeNames)
	if err != nil {
		return nil, err
	}
	// The L+1 length check runs before any L-sized allocation, so a huge
	// meta label count cannot force an over-allocation: the offsets section
	// really present in the input bounds it.
	if t.nameOff, err = offsets(r, snapshot.TagTreeNameOff, meta.Labels+1, int32(len(nameBytes))); err != nil {
		return nil, err
	}
	t.nameStr = string(nameBytes)
	if t.labelIDs, err = r.Int32sIn(snapshot.TagTreeLabelIDs, -1, 0, int32(meta.Labels)-1); err != nil {
		return nil, err
	}
	if t.labelOff, err = offsets(r, snapshot.TagTreeLabelOff, n+1, int32(len(t.labelIDs))); err != nil {
		return nil, err
	}
	t.deriveLabels()
	return t, nil
}
