package consistency

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/tree"
)

// TreeIndex is the immutable bundle of tree-derived structures every
// evaluation strategy queries against: the sibling-consecutive numbering,
// the (preEnd, pre) order with its value table, the full-node-set words,
// and the per-label candidate bitsets. It depends only on the tree, so it
// is the data-side counterpart of a compiled query: build it once per
// document (see core.Document / the public Index) and share it between any
// number of prepared queries and goroutines.
//
// All ordering fields are fixed at construction. Label bitsets are
// materialized lazily, once per distinct label, behind a mutex — callers
// observe a logically immutable object that is safe for concurrent use.
type TreeIndex struct {
	t         *tree.Tree
	sibRank   []int32 // node -> sibling-order rank
	sibStart  []int32 // parent node -> first child rank
	preEndPos []int32 // node -> position in (preEnd, pre) order
	preEndVal []int32 // position in (preEnd, pre) order -> preEnd value
	full      NodeSet // the set of all nodes, word-filled

	// Rank tables for the bulk axis image kernels (kernels.go), all
	// indexed by pre rank so the kernels never touch node IDs — a whole
	// domain's axis image is computed as gathers, chain scatters and
	// interval fills over these arrays. Built once per document alongside
	// the orderings; the document benchmarks assert the build count stays
	// one per Document.
	parentPre     []int32  // pre rank -> parent's pre rank, or -1 at the root
	firstChildPre []int32  // pre rank -> first child's pre rank, or -1 (leaf)
	nextSibPre    []int32  // pre rank -> next sibling's pre rank, or -1
	prevSibPre    []int32  // pre rank -> previous sibling's pre rank, or -1
	subtreeEnd    []int32  // pre rank -> max pre rank in the subtree (preEnd)
	internalPre   []uint64 // bitset over pre ranks: node has children

	// labelSets is a copy-on-write map (label -> bitset of nodes carrying
	// it): readers take one atomic load, so concurrent evaluation against
	// a shared Document never contends once a label's set exists; labelMu
	// only serializes first-use builders. Labels that occur nowhere in the
	// tree share the single emptySet and are never cached in the map, so
	// unbounded streams of unknown labels cannot grow the index.
	labelMu   sync.Mutex
	labelSets atomic.Pointer[map[string]*NodeSet]
	emptySet  atomic.Pointer[NodeSet]
}

// indexBuilds counts TreeIndex constructions process-wide; the document
// benchmarks assert on it to prove tree indexes are built once per
// Document rather than once per prepared query.
var indexBuilds atomic.Int64

// IndexBuildCount returns the number of TreeIndex constructions so far in
// this process (test/benchmark instrumentation).
func IndexBuildCount() int64 { return indexBuilds.Load() }

// NewTreeIndex builds the index for t. The orderings and full-set words
// are computed eagerly; label bitsets on first use per label.
func NewTreeIndex(t *tree.Tree) *TreeIndex {
	indexBuilds.Add(1)
	ix := &TreeIndex{t: t}
	n := t.Len()
	ix.sibRank = make([]int32, n)
	ix.sibStart = make([]int32, n)
	var r int32
	if n > 0 {
		ix.sibRank[t.Root()] = r
		r++
	}
	for pr := int32(0); pr < int32(n); pr++ {
		p := t.ByPre(pr)
		kids := t.Children(p)
		if len(kids) == 0 {
			continue
		}
		ix.sibStart[p] = r
		for _, c := range kids {
			ix.sibRank[c] = r
			r++
		}
	}

	// The (preEnd, pre) order by a counting sort on preEnd: visiting the
	// nodes in pre-order fills each preEnd bucket in ascending pre.
	ix.preEndPos = make([]int32, n)
	ix.preEndVal = make([]int32, n)
	start := make([]int32, n+1)
	for v := 0; v < n; v++ {
		start[t.PreEnd(tree.NodeID(v))+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	for pr := int32(0); pr < int32(n); pr++ {
		v := t.ByPre(pr)
		e := t.PreEnd(v)
		pos := start[e]
		start[e]++
		ix.preEndPos[v] = pos
		ix.preEndVal[pos] = e
	}
	ix.parentPre = make([]int32, n)
	ix.firstChildPre = make([]int32, n)
	ix.nextSibPre = make([]int32, n)
	ix.prevSibPre = make([]int32, n)
	ix.subtreeEnd = make([]int32, n)
	for pr := int32(0); pr < int32(n); pr++ {
		v := t.ByPre(pr)
		ix.subtreeEnd[pr] = t.PreEnd(v)
		if p := t.Parent(v); p != tree.NilNode {
			ix.parentPre[pr] = t.Pre(p)
		} else {
			ix.parentPre[pr] = -1
		}
		if kids := t.Children(v); len(kids) > 0 {
			ix.firstChildPre[pr] = t.Pre(kids[0])
		} else {
			ix.firstChildPre[pr] = -1
		}
		if s := t.NextSibling(v); s != tree.NilNode {
			ix.nextSibPre[pr] = t.Pre(s)
		} else {
			ix.nextSibPre[pr] = -1
		}
		if s := t.PrevSibling(v); s != tree.NilNode {
			ix.prevSibPre[pr] = t.Pre(s)
		} else {
			ix.prevSibPre[pr] = -1
		}
	}
	ix.internalPre = make([]uint64, bitset.Words(n))
	for pr := int32(0); pr < int32(n); pr++ {
		if ix.subtreeEnd[pr] > pr {
			bitset.Set(ix.internalPre, pr)
		}
	}

	ix.full.ResetFull(n)
	return ix
}

// firstSibPre returns the pre rank of the first child of pre rank v's
// parent — v itself at the root.
func (ix *TreeIndex) firstSibPre(v int32) int32 {
	if p := ix.parentPre[v]; p >= 0 {
		return ix.firstChildPre[p]
	}
	return v
}

// lastChildPre returns the pre rank of pre rank v's last child, or -1 at
// a leaf.
func (ix *TreeIndex) lastChildPre(v int32) int32 {
	kids := ix.t.Children(ix.t.ByPre(v))
	if len(kids) == 0 {
		return -1
	}
	return ix.t.Pre(kids[len(kids)-1])
}

// lastSibPre returns the pre rank of the last child of pre rank v's
// parent — v itself at the root.
func (ix *TreeIndex) lastSibPre(v int32) int32 {
	if p := ix.parentPre[v]; p >= 0 {
		return ix.lastChildPre(p)
	}
	return v
}

// Tree returns the tree the index was built for.
func (ix *TreeIndex) Tree() *tree.Tree { return ix.t }

// MaterializeLabels eagerly builds the bitset of every label occurring in
// the tree (plus the shared empty set unknown labels resolve to), so that
// SizeBytes is final: after this call no query mix — known labels,
// unknown labels, any order — changes the index's footprint. Corpus
// insertion and snapshot hydration call it before charging a document to
// the byte budget, pinning accounted bytes == actual bytes.
func (ix *TreeIndex) MaterializeLabels() {
	ix.labelMu.Lock()
	defer ix.labelMu.Unlock()
	if ix.emptySet.Load() == nil {
		ix.emptySet.Store(NewNodeSet(ix.t.Len()))
	}
	labels := ix.t.Alphabet()
	old := ix.labelSets.Load()
	if old != nil && len(*old) == len(labels) {
		return // every label already cached
	}
	next := make(map[string]*NodeSet, len(labels))
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	for _, a := range labels {
		if _, ok := next[a]; ok {
			continue
		}
		s := NewNodeSet(ix.t.Len())
		for _, v := range ix.t.NodesWithLabel(a) {
			s.Add(v)
		}
		next[a] = s
	}
	ix.labelSets.Store(&next)
}

// SizeBytes returns the approximate heap footprint of the index in bytes:
// the ordering and rank tables, the internal-node and full-node-set words,
// and every label bitset materialized so far. The figure backs corpus-level
// memory accounting; it can grow as evaluation touches new labels (label
// bitsets are lazy), so treat it as a floor that converges after the
// query mix has been seen once.
func (ix *TreeIndex) SizeBytes() int64 {
	b := int64(len(ix.sibRank)+len(ix.sibStart)+len(ix.preEndPos)+len(ix.preEndVal)) * 4
	b += int64(len(ix.parentPre)+len(ix.firstChildPre)+len(ix.nextSibPre)+
		len(ix.prevSibPre)+len(ix.subtreeEnd)) * 4
	b += int64(len(ix.internalPre)) * 8
	b += ix.full.SizeBytes()
	if m := ix.labelSets.Load(); m != nil {
		for l, s := range *m {
			b += int64(len(l)) + 48 + s.SizeBytes()
		}
	}
	if e := ix.emptySet.Load(); e != nil {
		b += e.SizeBytes()
	}
	return b
}

// labelSet returns the bitset of nodes carrying the label, materializing
// and caching it on first use. The returned set is shared and read-only.
// The hot path is lock-free: one atomic load plus a map lookup. Labels
// absent from the tree all resolve to one shared empty set (full word
// length, so word-level intersections stay in bounds) and are not cached
// per-label — otherwise every distinct unknown label in the query stream
// would grow the index past its accounted size.
func (ix *TreeIndex) labelSet(label string) *NodeSet {
	if m := ix.labelSets.Load(); m != nil {
		if s, ok := (*m)[label]; ok {
			return s
		}
	}
	nodes := ix.t.NodesWithLabel(label)
	if len(nodes) == 0 {
		if e := ix.emptySet.Load(); e != nil {
			return e
		}
		ix.labelMu.Lock()
		defer ix.labelMu.Unlock()
		if e := ix.emptySet.Load(); e == nil {
			ix.emptySet.Store(NewNodeSet(ix.t.Len()))
		}
		return ix.emptySet.Load()
	}
	ix.labelMu.Lock()
	defer ix.labelMu.Unlock()
	old := ix.labelSets.Load()
	if old != nil {
		if s, ok := (*old)[label]; ok {
			return s
		}
	}
	s := NewNodeSet(ix.t.Len())
	for _, v := range nodes {
		s.Add(v)
	}
	next := make(map[string]*NodeSet, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[label] = s
	ix.labelSets.Store(&next)
	return s
}
