package core

import (
	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

// The X-property strategy evaluates conjunctive queries over a tractable
// signature via Theorem 3.5: compute the subset-maximal arc-consistent
// prevaluation (FastAC against the document's shared tree index); the
// query is satisfiable iff it exists, and the minimum valuation with
// respect to the witnessing X-property order is then a satisfaction
// (Lemma 3.4). Answer tuples stream through the pinned descent of
// ordered.go (unordered streams run it in document order); monadic node
// streams use polyForEachNode below. Prepare only routes queries whose
// signature admits a common X-property order here.

// polySatisfaction returns the minimum valuation of the maximal
// arc-consistent prevaluation (Lemma 3.4), or nil.
func polySatisfaction(d *Document, q *cq.Query, order axis.Order, sc *consistency.Scratch) consistency.Valuation {
	p, ok := sc.FastACIx(d.ix, q)
	if !ok {
		return nil
	}
	if q.NumVars() == 0 {
		return consistency.Valuation{}
	}
	return p.MinimumValuation(d.t, order)
}

// polyForEachNode streams the answer of a monadic query in increasing
// NodeID order: the shared maximal arc-consistent prevaluation prunes the
// candidates once, then each survivor costs one incremental pinned check.
func polyForEachNode(d *Document, q *cq.Query, sc *consistency.Scratch, stop func() bool, fn func(v tree.NodeID) bool) {
	p, ok := sc.FastACIx(d.ix, q)
	if !ok {
		return
	}
	x := q.Head[0]
	base := sc.PinBaseForIx(d.ix, q, p)
	run := sc.PinRunFor(base)
	base.Candidates(x).ForEach(func(v tree.NodeID) bool {
		if stop != nil && stop() {
			return false
		}
		if run.Push(x, v) {
			run.Pop()
			return fn(v)
		}
		return true
	})
}
