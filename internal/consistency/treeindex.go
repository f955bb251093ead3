package consistency

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/tree"
)

// TreeIndex is the immutable bundle of tree-derived structures every
// evaluation strategy queries against: the sibling-consecutive numbering,
// the (preEnd, pre) order with its value table, and the per-label
// candidate words over pre ranks. It depends only on the tree, so it
// is the data-side counterpart of a compiled query: build it once per
// document (see core.Document / the public Index) and share it between any
// number of prepared queries and goroutines.
//
// All ordering fields are fixed at construction. Label words are
// materialized lazily, once per distinct label, behind a mutex — callers
// observe a logically immutable object that is safe for concurrent use.
type TreeIndex struct {
	t        *tree.Tree
	sibRank  []int32 // node -> sibling-order rank
	sibStart []int32 // parent node -> first child rank
	// The (preEnd, pre) order, read only by Scratch.Exclude's minimum
	// preEnd threshold and by the snapshot: no domain keeps words over it.
	preEndPos []int32 // node -> position in (preEnd, pre) order
	preEndVal []int32 // position in (preEnd, pre) order -> preEnd value

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

	// labelSets is a copy-on-write map (label -> words over pre ranks of
	// the nodes carrying it), the words a domain load copies or ANDs:
	// readers take one atomic load, so concurrent evaluation against a
	// shared Document never contends once a label's words exist; labelMu
	// only serializes first-use builders. Labels that occur nowhere in the
	// tree share the single emptySet and are never cached in the map, so
	// unbounded streams of unknown labels cannot grow the index.
	labelMu   sync.Mutex
	labelSets atomic.Pointer[map[string][]uint64]
	emptySet  atomic.Pointer[[]uint64]
}

// indexBuilds counts TreeIndex constructions process-wide; the document
// benchmarks assert on it to prove tree indexes are built once per
// Document rather than once per prepared query.
var indexBuilds atomic.Int64

// IndexBuildCount returns the number of TreeIndex constructions so far in
// this process (test/benchmark instrumentation).
func IndexBuildCount() int64 { return indexBuilds.Load() }

// NewTreeIndex builds the index for t. The orderings are computed
// eagerly; label words on first use per label.
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

// MaterializeLabels eagerly builds the words of every label occurring in
// the tree (plus the shared empty words unknown labels resolve to), so
// that SizeBytes is final: after this call no query mix — known labels,
// unknown labels, any order — changes the index's footprint. Corpus
// insertion and snapshot hydration call it before charging a document to
// the byte budget, pinning accounted bytes == actual bytes.
func (ix *TreeIndex) MaterializeLabels() {
	ix.labelMu.Lock()
	defer ix.labelMu.Unlock()
	ix.storeEmptyLocked()
	labels := ix.t.Alphabet()
	old := ix.labelSets.Load()
	if old != nil && len(*old) == len(labels) {
		return // every label already cached
	}
	next := make(map[string][]uint64, len(labels))
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	for _, a := range labels {
		if _, ok := next[a]; !ok {
			next[a] = ix.buildLabelWords(ix.t.NodesWithLabel(a))
		}
	}
	ix.labelSets.Store(&next)
}

// labelEntryBytes is the accounted overhead of one cached label beyond
// its name and words: a map entry's key and slice headers plus bucket
// overhead.
const labelEntryBytes = 64

// SizeBytes returns the approximate heap footprint of the index in bytes:
// the ordering and rank tables, the internal-node words, and the words of
// every label materialized so far (8 bytes per word plus the label's name
// and labelEntryBytes each; the shared empty words once). The figure backs
// corpus-level memory accounting; it can grow as evaluation touches new
// labels (label words are lazy), so treat it as a floor that converges
// after the query mix has been seen once.
func (ix *TreeIndex) SizeBytes() int64 {
	b := int64(len(ix.sibRank)+len(ix.sibStart)+len(ix.preEndPos)+len(ix.preEndVal)) * 4
	b += int64(len(ix.parentPre)+len(ix.firstChildPre)+len(ix.nextSibPre)+
		len(ix.prevSibPre)+len(ix.subtreeEnd)) * 4
	b += int64(len(ix.internalPre)) * 8
	if m := ix.labelSets.Load(); m != nil {
		for l, w := range *m {
			b += int64(len(l)) + labelEntryBytes + int64(len(w))*8
		}
	}
	if e := ix.emptySet.Load(); e != nil {
		b += int64(len(*e)) * 8
	}
	return b
}

// labelWords returns the words over pre ranks of the nodes carrying the
// label, materializing and caching them on first use. The returned words
// are shared and read-only. The hot path is lock-free: one atomic load
// plus a map lookup. Labels absent from the tree all resolve to one
// shared empty word slice (full length, so word-level intersections stay
// in bounds) and are not cached per label — otherwise every distinct
// unknown label in the query stream would grow the index past its
// accounted size.
func (ix *TreeIndex) labelWords(label string) []uint64 {
	if m := ix.labelSets.Load(); m != nil {
		if w, ok := (*m)[label]; ok {
			return w
		}
	}
	nodes := ix.t.NodesWithLabel(label)
	if len(nodes) == 0 {
		if e := ix.emptySet.Load(); e != nil {
			return *e
		}
		ix.labelMu.Lock()
		defer ix.labelMu.Unlock()
		ix.storeEmptyLocked()
		return *ix.emptySet.Load()
	}
	ix.labelMu.Lock()
	defer ix.labelMu.Unlock()
	old := ix.labelSets.Load()
	if old != nil {
		if w, ok := (*old)[label]; ok {
			return w
		}
	}
	w := ix.buildLabelWords(nodes)
	next := make(map[string][]uint64, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[label] = w
	ix.labelSets.Store(&next)
	return w
}

// buildLabelWords returns the words over pre ranks of the given nodes.
func (ix *TreeIndex) buildLabelWords(nodes []tree.NodeID) []uint64 {
	w := make([]uint64, bitset.Words(ix.t.Len()))
	for _, v := range nodes {
		bitset.Set(w, ix.t.Pre(v))
	}
	return w
}

// storeEmptyLocked makes the shared empty words if they are not there
// yet. labelMu must be held.
func (ix *TreeIndex) storeEmptyLocked() {
	if ix.emptySet.Load() == nil {
		w := make([]uint64, bitset.Words(ix.t.Len()))
		ix.emptySet.Store(&w)
	}
}
