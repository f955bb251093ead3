package core

import (
	"slices"

	"repro/internal/axis"
	"repro/internal/bitset"
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
// ordered.go (unordered streams run it in document order). Unordered
// monadic node streams run Lemma 3.4 as an enumeration (polyForEachNode
// below), so their nodes arrive in the X-order of the query's signature:
// document order for signatures within {Child+, Child*}, the <post or
// <bflr order for the others. Prepare only routes queries whose
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
// order rank by Lemma 3.4's min-delete loop. On the maximal arc-consistent
// prevaluation the head's order-minimum is an answer; excluding it and
// restoring arc consistency keeps every other answer, so the next live
// candidate in order is the next answer, until a domain empties. The
// loop runs on the FastAC level's pre-rank words: PreOrder visits them
// directly, the other orders a sorted buffer of the candidates' ranks.
func polyForEachNode(d *Document, q *cq.Query, order axis.Order, s *evalScratch, stop func() bool, fn func(v tree.NodeID) bool) {
	sc, t := s.ac, d.t
	if !sc.FastACPreIx(d.ix, q) {
		return
	}
	x := q.Head[0]
	dom := sc.DomainPre(x)
	emit := func(pr int32) bool {
		if stop != nil && stop() {
			return false
		}
		return fn(t.ByPre(pr)) && sc.Exclude(x, pr)
	}
	if order == axis.PreOrder {
		for pr := bitset.First(dom); pr >= 0; pr = bitset.NextAt(dom, pr+1) {
			if !emit(pr) {
				return
			}
		}
		return
	}
	ranks := s.ranks[:0]
	bitset.ForEach(dom, func(pr int32) bool {
		ranks = append(ranks, order.Rank(t, t.ByPre(pr)))
		return true
	})
	slices.Sort(ranks)
	s.ranks = ranks
	for _, r := range ranks {
		if pr := t.Pre(order.NodeAt(t, r)); bitset.Test(dom, pr) && !emit(pr) {
			return
		}
	}
}
