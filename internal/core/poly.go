package core

import (
	"fmt"
	"sync"

	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

// ACAlgorithm selects the arc-consistency implementation used by the
// polynomial-time engine.
type ACAlgorithm int

// Available arc-consistency engines (cross-checked in tests; compared in
// the ablation benchmarks).
const (
	// FastAC is the bitset-domain worklist engine (default).
	FastAC ACAlgorithm = iota
	// HornAC is the paper-exact Horn-SAT reduction of Proposition 3.1.
	HornAC
)

// runAC dispatches one arc-consistency run against the document's shared
// tree index. sc is used by FastAC for buffer reuse (nil = allocate
// fresh); the paper-exact HornAC materializes relations and ignores both.
func runAC(alg ACAlgorithm, d *Document, q *cq.Query, sc *consistency.Scratch) (*consistency.Prevaluation, bool) {
	switch alg {
	case FastAC:
		if sc == nil {
			sc = consistency.NewScratch()
		}
		return sc.FastACIx(d.ix, q)
	case HornAC:
		return consistency.HornAC(d.t, q)
	default:
		panic(fmt.Sprintf("core: invalid ACAlgorithm %d", int(alg)))
	}
}

// PolyEngine evaluates conjunctive queries over a tractable signature via
// Theorem 3.5: compute the subset-maximal arc-consistent prevaluation; the
// query is satisfiable iff it exists, and the minimum valuation with
// respect to the witnessing X-property order is then a satisfaction
// (Lemma 3.4).
//
// PolyEngine is only sound for queries whose signature admits a common
// X-property order; New*-constructors verify this. Evaluation methods are
// safe for concurrent use (per-call buffers are pooled); SetAlgorithm is
// not safe to call concurrently with evaluation.
type PolyEngine struct {
	order axis.Order
	alg   ACAlgorithm
	pool  sync.Pool // of *consistency.Scratch
}

// NewPolyEngine returns a PolyEngine for queries over the given signature,
// or an error if the signature is intractable (no common X-property order
// exists — use the backtracking engine or rewrite to an APQ instead).
func NewPolyEngine(axes []axis.Axis) (*PolyEngine, error) {
	o, ok := axis.CommonXOrder(axes)
	if !ok {
		return nil, fmt.Errorf("core: no common X-property order for signature %v (NP-complete per Theorem 1.1)", axes)
	}
	return &PolyEngine{order: o, alg: FastAC}, nil
}

// NewPolyEngineFor returns a PolyEngine suitable for q's signature.
func NewPolyEngineFor(q *cq.Query) (*PolyEngine, error) {
	return NewPolyEngine(q.Signature())
}

// SetAlgorithm switches the arc-consistency implementation.
func (e *PolyEngine) SetAlgorithm(alg ACAlgorithm) { e.alg = alg }

// Order returns the X-property witnessing order used for minimum
// valuations.
func (e *PolyEngine) Order() axis.Order { return e.order }

func (e *PolyEngine) scratch() *consistency.Scratch {
	if s, ok := e.pool.Get().(*consistency.Scratch); ok {
		return s
	}
	return consistency.NewScratch()
}

// polyBool decides a Boolean query: true iff an arc-consistent
// prevaluation exists (Theorem 3.5).
func polyBool(d *Document, q *cq.Query, alg ACAlgorithm, sc *consistency.Scratch) bool {
	_, ok := runAC(alg, d, q, sc)
	return ok
}

// EvalBoolean decides a Boolean query in time O(‖A‖·|Q|): true iff an
// arc-consistent prevaluation exists (Theorem 3.5). Head variables, if
// any, are ignored (the query is treated as its Boolean projection).
func (e *PolyEngine) EvalBoolean(d *Document, q *cq.Query) bool {
	sc := e.scratch()
	defer e.pool.Put(sc)
	return polyBool(d, q, e.alg, sc)
}

// polySatisfaction returns the minimum valuation of the maximal
// arc-consistent prevaluation (Lemma 3.4), or nil.
func polySatisfaction(d *Document, q *cq.Query, order axis.Order, alg ACAlgorithm, sc *consistency.Scratch) consistency.Valuation {
	p, ok := runAC(alg, d, q, sc)
	if !ok {
		return nil
	}
	if q.NumVars() == 0 {
		return consistency.Valuation{}
	}
	return p.MinimumValuation(d.t, order)
}

// Satisfaction returns a consistent valuation of all query variables (the
// minimum valuation of the maximal arc-consistent prevaluation, Lemma
// 3.4), or nil if the query is unsatisfiable on d.
func (e *PolyEngine) Satisfaction(d *Document, q *cq.Query) consistency.Valuation {
	sc := e.scratch()
	defer e.pool.Put(sc)
	return polySatisfaction(d, q, e.order, e.alg, sc)
}

// polyCheckTuple decides tuple membership by the singleton-restriction
// argument below Theorem 3.5: restrict each head variable's candidates to
// the given node and test Boolean satisfiability.
func polyCheckTuple(d *Document, q *cq.Query, alg ACAlgorithm, sc *consistency.Scratch, tuple []tree.NodeID) bool {
	if len(tuple) != len(q.Head) {
		panic(fmt.Sprintf("core: CheckTuple arity %d, query arity %d", len(tuple), len(q.Head)))
	}
	if alg == FastAC && sc != nil {
		_, ok := sc.PinnedFastACIx(d.ix, q, q.Head, tuple)
		return ok
	}
	eng := consistency.EngineFast
	if alg == HornAC {
		eng = consistency.EngineHorn
	}
	_, ok := consistency.PinnedAC(eng, d.t, q, q.Head, tuple)
	return ok
}

// CheckTuple decides whether the tuple (one node per head variable) is in
// the query answer.
func (e *PolyEngine) CheckTuple(d *Document, q *cq.Query, tuple []tree.NodeID) bool {
	sc := e.scratch()
	defer e.pool.Put(sc)
	return polyCheckTuple(d, q, e.alg, sc, tuple)
}

// polyForEachTuple streams the distinct answer tuples of a k-ary query via
// incremental pinned arc consistency: one full AC run seeds a PinBase, and
// head variables are pinned one at a time with prefix pruning — if pinning
// a tuple prefix empties a domain, no extension of that prefix is
// enumerated. For X-property signatures pinned arc consistency decides
// satisfiability exactly (Theorem 3.5), so a fully pinned consistent state
// IS an answer: the cost is proportional to the consistent prefixes
// explored, not to the |A|^k candidate space. The tuple passed to fn is
// reused between calls (copy to retain); fn returns false to stop.
func polyForEachTuple(d *Document, q *cq.Query, alg ACAlgorithm, sc *consistency.Scratch, stop func() bool, fn func(tuple []tree.NodeID) bool) {
	if sc == nil {
		sc = consistency.NewScratch()
	}
	if len(q.Head) == 0 {
		if polyBool(d, q, alg, sc) {
			fn(nil)
		}
		return
	}
	p, ok := runAC(alg, d, q, sc)
	if !ok {
		return
	}
	run := sc.PinRunFor(sc.PinBaseForIx(d.ix, q, p))
	tuple := make([]tree.NodeID, len(q.Head))
	polyEnumRec(run, q.Head, 0, tuple, stop, fn)
}

// polyEnumRec enumerates dimension d of the head tuple from the current
// pin state; returns false when enumeration should stop. The first
// dimension iterates the NodeID-ordered snapshot set (so monadic emission
// is sorted); deeper dimensions iterate the pin-pruned current domain.
// stop (optional) is the context cancellation probe, checked once per
// outer (d == 0) candidate.
func polyEnumRec(run *consistency.PinRun, head []cq.Var, d int, tuple []tree.NodeID, stop func() bool, fn func([]tree.NodeID) bool) bool {
	if d == len(head) {
		return fn(tuple)
	}
	cont := true
	try := func(v tree.NodeID) bool {
		if d == 0 && stop != nil && stop() {
			cont = false
			return false
		}
		tuple[d] = v
		if run.Push(head[d], v) {
			cont = polyEnumRec(run, head, d+1, tuple, stop, fn)
			run.Pop()
		}
		return cont
	}
	if d == 0 {
		run.Base().Candidates(head[0]).ForEach(try)
	} else {
		run.ForEachCurrent(head[d], try)
	}
	return cont
}

// polyForEachNode streams the answer of a monadic query in increasing
// NodeID order: the shared maximal arc-consistent prevaluation prunes the
// candidates once, then each survivor costs one incremental pinned check.
func polyForEachNode(d *Document, q *cq.Query, alg ACAlgorithm, sc *consistency.Scratch, stop func() bool, fn func(v tree.NodeID) bool) {
	if sc == nil {
		sc = consistency.NewScratch()
	}
	p, ok := runAC(alg, d, q, sc)
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

// EvalAll enumerates the full answer relation of a k-ary query, in
// lexicographic NodeID order.
func (e *PolyEngine) EvalAll(d *Document, q *cq.Query) [][]tree.NodeID {
	sc := e.scratch()
	defer e.pool.Put(sc)
	return collectSortedTuples(func(fn func([]tree.NodeID) bool) {
		polyForEachTuple(d, q, e.alg, sc, nil, fn)
	})
}
