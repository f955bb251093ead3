package consistency

import (
	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/tree"
)

// Scratch holds the per-call mutable buffers of arc-consistency runs: the
// per-variable pre-rank domains of FastAC and of the semijoin schedule
// (SemijoinIx), FastAC's worklist, the NodeSets FastACIx converts its
// result into, and the pin base/run storage of incremental enumeration
// and MAC search. A Scratch amortizes all per-call allocations of
// repeated evaluation; it is NOT safe for concurrent use — pool Scratches
// (one per goroutine) instead.
//
// Tree-derived structures are not owned here: every *Ix entry point
// borrows an immutable TreeIndex (shared document-wide; see core.Document).
//
// Prevaluations returned by Scratch methods that take no caller-supplied
// initial prevaluation alias Scratch-owned sets: they are valid only until
// the next call on the same Scratch.
type Scratch struct {
	acBase   PinBase    // FastAC, SemijoinIx: the query binding (no snapshot sets)
	acRun    PinRun     // FastAC, SemijoinIx: level 0 holds the domains being revised
	allAtoms []int32    // FastAC: the worklist seed, every atom
	sets     []*NodeSet // FastACIx, PinnedFastACIx: the converted result
	pinBase  PinBase
	pinRun   PinRun
}

// NewScratch returns an empty Scratch; buffers are sized lazily on first
// use.
func NewScratch() *Scratch { return &Scratch{} }

// filterByLabel removes from s every node not carrying the label. The
// in-place removal during iteration is safe: ForEach advances on a copied
// word, so clearing the current bit cannot derail it.
func filterByLabel(t *tree.Tree, s *NodeSet, label string) {
	s.ForEach(func(v tree.NodeID) bool {
		if !t.HasLabel(v, label) {
			s.Remove(v)
		}
		return true
	})
}

// FastACIx is FastACPreIx with the result converted into NodeSets, for
// the callers that read a Prevaluation: the test oracles, PolyEngine's
// minimum valuation and the non-propagating backtracker. The result
// aliases Scratch-owned sets (see type doc).
func (sc *Scratch) FastACIx(ix *TreeIndex, q *cq.Query) (*Prevaluation, bool) {
	if !sc.FastACPreIx(ix, q) {
		return nil, false
	}
	return sc.domainSets(), true
}

// PinnedFastACIx computes the maximal arc-consistent prevaluation of q
// with vars[i] pinned to {nodes[i]}, with sc's buffers against a borrowed
// document index. This realizes the tuple-membership construction below
// Theorem 3.5: adding the singleton unary relations X_i = {a_i}, applied
// as initial-domain restrictions. The result aliases Scratch-owned sets
// (see type doc).
func (sc *Scratch) PinnedFastACIx(ix *TreeIndex, q *cq.Query, vars []cq.Var, nodes []tree.NodeID) (*Prevaluation, bool) {
	lv, ok := sc.loadLevel(ix, q)
	if !ok {
		return nil, false
	}
	for i, x := range vars {
		w := &lv.own[x]
		if !bitset.Test(w.pre, ix.t.Pre(nodes[i])) {
			return nil, false
		}
		w.reset(&sc.acBase, x)
		w.add(ix, nodes[i])
		lv.cur[x], lv.count[x] = *w, 1
	}
	if _, ok := sc.propagateAll(lv, q); !ok {
		return nil, false
	}
	return sc.domainSets(), true
}

// domainSets converts the domains of the AC level into Scratch-owned
// NodeSets, once, at the end of a run.
func (sc *Scratch) domainSets() *Prevaluation {
	b, lv := &sc.acBase, &sc.acRun.levels[0]
	for len(sc.sets) < b.nv {
		sc.sets = append(sc.sets, &NodeSet{})
	}
	sets := sc.sets[:b.nv]
	for x, s := range sets {
		storePre(b.t, s, lv.cur[x].pre)
	}
	return &Prevaluation{Sets: sets}
}
