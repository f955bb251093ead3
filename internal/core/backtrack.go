package core

import (
	"slices"
	"sort"

	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

// BacktrackEngine is the general-purpose evaluator, complete for every
// signature and every (cyclic) query. It performs depth-first search over
// valuations, by default maintaining arc consistency (MAC) at every
// assignment; with Propagate disabled it falls back to plain forward
// checking. Worst-case exponential — unavoidable for the NP-complete
// signatures of §5 unless P = NP; the benchmark harness uses this engine
// to demonstrate the hardness side of the dichotomy empirically.
type BacktrackEngine struct {
	// MaxSteps bounds the number of search-node expansions (0 = no
	// bound). When exceeded, evaluation panics with ErrSearchBudget —
	// used by benchmarks to cap runaway cases.
	MaxSteps int
	// Propagate disables MAC when false (ablation benchmarks compare
	// both modes).
	Propagate bool

	steps int
	// sc holds the reusable arc-consistency buffers; lazily created. The
	// engine is stateful (steps, scratch) and therefore NOT safe for
	// concurrent use — the Prepared evaluation path pools one engine per
	// in-flight call instead.
	sc *consistency.Scratch
}

// NewBacktrackEngine returns an engine with MAC enabled and no step bound.
func NewBacktrackEngine() *BacktrackEngine { return &BacktrackEngine{Propagate: true} }

func (e *BacktrackEngine) scratch() *consistency.Scratch {
	if e.sc == nil {
		e.sc = consistency.NewScratch()
	}
	return e.sc
}

// Steps reports the number of search-node expansions of the last call —
// the empirical hardness measure reported by the Table I benchmarks.
func (e *BacktrackEngine) Steps() int { return e.steps }

// searchOrder picks a static variable order: most-constrained (smallest
// initial domain) first, tie-broken by degree in the query graph.
func searchOrder(q *cq.Query, sets []*consistency.NodeSet) []cq.Var {
	g := cq.NewGraph(q)
	deg := make([]int, q.NumVars())
	for x := 0; x < q.NumVars(); x++ {
		deg[x] = g.OutDegree(cq.Var(x)) + g.InDegree(cq.Var(x))
	}
	order := make([]cq.Var, q.NumVars())
	for i := range order {
		order[i] = cq.Var(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if sets[a].Len() != sets[b].Len() {
			return sets[a].Len() < sets[b].Len()
		}
		return deg[a] > deg[b]
	})
	return order
}

// run performs the search. emit is called with each full consistent
// valuation found; returning false stops the search. stop (optional) is
// the context cancellation probe, checked at every search-node expansion
// (the same sites as the MaxSteps budget).
func (e *BacktrackEngine) run(d *Document, q *cq.Query, stop func() bool, emit func(consistency.Valuation) bool) {
	t := d.t
	e.steps = 0
	if q.NumVars() == 0 {
		emit(consistency.Valuation{})
		return
	}
	if t.Len() == 0 {
		return
	}
	p, ok := e.scratch().FastACIx(d.ix, q)
	if !ok {
		return
	}
	if e.Propagate {
		e.runMAC(d, q, p, stop, emit)
		return
	}
	order := searchOrder(q, p.Sets)
	// adjacency: atoms fully decided once both endpoints assigned; check
	// each atom at the moment its later endpoint gets assigned.
	pos := make([]int, q.NumVars()) // variable -> position in order
	for i, x := range order {
		pos[x] = i
	}
	type check struct {
		at    cq.AxisAtom
		other cq.Var
	}
	checksAt := make([][]check, q.NumVars())
	for _, at := range q.Atoms {
		later := at.X
		if pos[at.Y] > pos[at.X] {
			later = at.Y
		}
		other := at.X
		if other == later {
			other = at.Y
		}
		checksAt[later] = append(checksAt[later], check{at: at, other: other})
	}
	theta := make(consistency.Valuation, q.NumVars())
	for i := range theta {
		theta[i] = tree.NilNode
	}
	var dfs func(i int) bool
	dfs = func(i int) bool {
		if i == len(order) {
			return emit(append(consistency.Valuation(nil), theta...))
		}
		x := order[i]
		cont := true
		p.Sets[x].ForEach(func(v tree.NodeID) bool {
			e.steps++
			if e.MaxSteps > 0 && e.steps > e.MaxSteps {
				panic(ErrSearchBudget)
			}
			if stop != nil && stop() {
				cont = false
				return false
			}
			okHere := true
			for _, c := range checksAt[x] {
				if theta[c.other] == tree.NilNode && c.other != x {
					continue // other endpoint not yet assigned (can happen for self loops only)
				}
				u, w := theta[c.at.X], theta[c.at.Y]
				if c.at.X == x {
					u = v
				}
				if c.at.Y == x {
					w = v
				}
				if !axis.Holds(t, c.at.Axis, u, w) {
					okHere = false
					break
				}
			}
			if !okHere {
				return true
			}
			theta[x] = v
			if !dfs(i + 1) {
				cont = false
				theta[x] = tree.NilNode
				return false
			}
			theta[x] = tree.NilNode
			return true
		})
		return cont
	}
	dfs(0)
}

// runMAC searches with arc consistency maintained incrementally: one
// PinBase snapshots the initial maximal prevaluation p, and each branch is
// a PinRun.Push that propagates from the parent's arc-consistent state
// (only the pinned variable's atoms can be violated) and a Pop that undoes
// it in O(1). At each depth it branches on the smallest non-singleton
// domain (lowest variable index on ties), trying its values in ascending
// NodeID order. When every variable is a singleton, those singletons are
// the satisfaction.
func (e *BacktrackEngine) runMAC(d *Document, q *cq.Query, p *consistency.Prevaluation, stop func() bool, emit func(consistency.Valuation) bool) {
	sc := e.scratch()
	run := sc.PinRunFor(sc.PinBaseForIx(d.ix, q, p))
	nv := q.NumVars()
	// Each depth pins one more variable to a singleton, so at most nv
	// candidate lists are live at once.
	cands := make([][]tree.NodeID, nv+1)
	var dfs func(depth int) bool
	dfs = func(depth int) bool {
		pick, pickLen := -1, 0
		for x := 0; x < nv; x++ {
			if l := run.CurrentLen(cq.Var(x)); l > 1 && (pick == -1 || l < pickLen) {
				pick, pickLen = x, l
			}
		}
		if pick == -1 {
			theta := make(consistency.Valuation, nv)
			for x := range theta {
				run.ForEachCurrent(cq.Var(x), func(v tree.NodeID) bool { theta[x] = v; return false })
			}
			// All-singleton arc-consistent prevaluations are consistent
			// valuations by definition; verify defensively.
			if !consistency.Consistent(d.t, q, theta) {
				return true // spurious, keep searching siblings
			}
			return emit(theta)
		}
		vs := cands[depth][:0]
		run.ForEachCurrent(cq.Var(pick), func(v tree.NodeID) bool { vs = append(vs, v); return true })
		slices.Sort(vs) // document order to NodeID order
		cands[depth] = vs
		for _, v := range vs {
			e.steps++
			if e.MaxSteps > 0 && e.steps > e.MaxSteps {
				panic(ErrSearchBudget)
			}
			if stop != nil && stop() {
				return false
			}
			if run.Push(cq.Var(pick), v) {
				cont := dfs(depth + 1)
				run.Pop()
				if !cont {
					return false
				}
			}
		}
		return true
	}
	dfs(0)
}

// ErrSearchBudget is panicked (and recovered by callers that set MaxSteps)
// when the search exceeds its step budget.
var ErrSearchBudget = searchBudgetError{}

type searchBudgetError struct{}

func (searchBudgetError) Error() string { return "core: backtracking search budget exceeded" }

// evalBoolean decides satisfiability of q on d; stop cancels the search.
func (e *BacktrackEngine) evalBoolean(d *Document, q *cq.Query, stop func() bool) bool {
	found := false
	e.run(d, q, stop, func(consistency.Valuation) bool {
		found = true
		return false
	})
	return found
}

// satisfaction returns one satisfaction of all query variables, or nil.
func (e *BacktrackEngine) satisfaction(d *Document, q *cq.Query, stop func() bool) consistency.Valuation {
	var out consistency.Valuation
	e.run(d, q, stop, func(v consistency.Valuation) bool {
		out = v
		return false
	})
	return out
}

// forEachTuple streams the distinct head tuples of the answer in search
// discovery order: each tuple is emitted the first time the search reaches
// a satisfaction projecting to it. The tuple passed to fn is reused (copy
// to retain); fn returns false to stop the search early.
func (e *BacktrackEngine) forEachTuple(d *Document, q *cq.Query, stop func() bool, fn func(tuple []tree.NodeID) bool) {
	if len(q.Head) == 0 {
		if e.evalBoolean(d, q, stop) {
			fn(nil)
		}
		return
	}
	// The search reaches each full valuation exactly once (branches pin
	// distinct values), so a projection-free query needs no dedup set —
	// the one O(answers) allocation on this streaming path.
	emit := fn
	if !projectionFree(q) {
		emit = dedupEmit(fn)
	}
	tuple := make([]tree.NodeID, len(q.Head))
	e.run(d, q, stop, func(theta consistency.Valuation) bool {
		for j, h := range q.Head {
			tuple[j] = theta[h]
		}
		return emit(tuple)
	})
}

// EvalBoolean decides satisfiability of q on t. It indexes t on every
// call; evaluate a Prepared against a Document to reuse one index.
func (e *BacktrackEngine) EvalBoolean(t *tree.Tree, q *cq.Query) bool {
	return e.evalBoolean(NewDocument(t), q, nil)
}

// EvalAll enumerates the distinct head tuples of the answer on t, in
// lexicographic NodeID order. Like EvalBoolean it indexes t per call.
func (e *BacktrackEngine) EvalAll(t *tree.Tree, q *cq.Query) [][]tree.NodeID {
	d := NewDocument(t)
	return collectSortedTuples(func(fn func([]tree.NodeID) bool) {
		e.forEachTuple(d, q, nil, fn)
	})
}
