package consistency

import (
	"repro/internal/cq"
	"repro/internal/tree"
)

// Scratch holds the per-call mutable buffers of arc-consistency runs: the
// per-variable bitset domains of FastAC and of the semijoin schedule
// (SemijoinIx), FastAC's worklist, the NodeSets of the initial
// prevaluation, and the pin base/run storage of incremental enumeration
// and MAC search. A Scratch amortizes all per-call allocations of repeated
// evaluation; it is NOT safe for concurrent use — pool Scratches (one per
// goroutine) instead.
//
// Tree-derived structures are not owned here: every *Ix entry point
// borrows an immutable TreeIndex (shared document-wide; see core.Document).
//
// Prevaluations returned by Scratch methods that take no caller-supplied
// initial prevaluation alias Scratch-owned sets: they are valid only until
// the next call on the same Scratch.
type Scratch struct {
	acBase     PinBase // FastAC, SemijoinIx: the query binding (no snapshot sets)
	acRun      PinRun  // FastAC, SemijoinIx: level 0 holds the domains being revised
	allAtoms   []int32 // FastAC: the worklist seed, every atom
	initSets   []*NodeSet
	labeledBuf []int32
	pinBase    PinBase
	pinRun     PinRun
}

// NewScratch returns an empty Scratch; buffers are sized lazily on first
// use.
func NewScratch() *Scratch { return &Scratch{} }

// InitialPrevaluationIx is the label-filtered initial prevaluation built
// from the index's cached label bitsets and full-node-set words (word
// copies and word-level intersections — no per-node scans). The result is
// backed by Scratch-owned NodeSets, valid until the next call on sc.
func (sc *Scratch) InitialPrevaluationIx(ix *TreeIndex, q *cq.Query) *Prevaluation {
	nv := q.NumVars()
	for len(sc.initSets) < nv {
		sc.initSets = append(sc.initSets, &NodeSet{})
	}
	sets := sc.initSets[:nv]
	// labeledBuf counts the label atoms seen per variable so far: the first
	// label copies the cached bitset, subsequent labels intersect in place.
	for len(sc.labeledBuf) < nv {
		sc.labeledBuf = append(sc.labeledBuf, 0)
	}
	labeled := sc.labeledBuf[:nv]
	for i := range labeled {
		labeled[i] = 0
	}
	for _, la := range q.Labels {
		s := sets[la.X]
		if labeled[la.X] == 0 {
			s.copyFrom(ix.labelSet(la.Label))
		} else {
			s.IntersectWith(ix.labelSet(la.Label))
		}
		labeled[la.X]++
	}
	for x, s := range sets {
		if labeled[x] == 0 {
			s.copyFrom(&ix.full)
		}
	}
	return &Prevaluation{Sets: sets}
}

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

// FastACIx is the FastAC worklist against a borrowed document index. The
// result aliases Scratch-owned sets (see type doc). Degenerate inputs
// (no variables, empty tree) are handled by the worklist itself.
func (sc *Scratch) FastACIx(ix *TreeIndex, q *cq.Query) (*Prevaluation, bool) {
	return sc.FastACFromIx(ix, q, sc.InitialPrevaluationIx(ix, q))
}

// PinnedFastACIx computes the maximal arc-consistent prevaluation of q
// with vars[i] pinned to {nodes[i]}, with sc's buffers against a borrowed
// document index. This realizes the tuple-membership construction below
// Theorem 3.5: adding the singleton unary relations X_i = {a_i}, applied
// as initial-domain restrictions. The result aliases Scratch-owned sets
// (see type doc).
func (sc *Scratch) PinnedFastACIx(ix *TreeIndex, q *cq.Query, vars []cq.Var, nodes []tree.NodeID) (*Prevaluation, bool) {
	n := ix.t.Len()
	if n == 0 && q.NumVars() > 0 {
		return nil, false // no sets to pin against
	}
	init := sc.InitialPrevaluationIx(ix, q)
	for i, x := range vars {
		s := init.Sets[x]
		had := s.Has(nodes[i])
		s.Reset(n)
		if had {
			s.Add(nodes[i])
		}
	}
	return sc.FastACFromIx(ix, q, init)
}

// FastACFromIx runs the worklist from init (consumed and mutated) against
// a borrowed document index; the result's sets are init's sets.
func (sc *Scratch) FastACFromIx(ix *TreeIndex, q *cq.Query, init *Prevaluation) (*Prevaluation, bool) {
	p, _, ok := sc.fastACFromStatsIx(ix, q, init)
	return p, ok
}
