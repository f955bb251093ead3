package core

import (
	"fmt"
	"slices"

	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

// Strategy names the algorithm Prepare selected for a query.
type Strategy int

// Strategies, in preference order.
const (
	// StrategyAcyclic: the query graph's shadow is a forest; Yannakakis
	// semijoin evaluation (polynomial regardless of signature).
	StrategyAcyclic Strategy = iota
	// StrategyXProperty: the signature admits a common X-property order;
	// arc-consistency + minimum valuation (Theorem 3.5).
	StrategyXProperty
	// StrategyBacktrack: general search (the signature side of the
	// dichotomy is NP-complete; §5).
	StrategyBacktrack
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAcyclic:
		return "acyclic(Yannakakis)"
	case StrategyXProperty:
		return "x-property(Thm 3.5)"
	case StrategyBacktrack:
		return "backtracking"
	default:
		return "invalid"
	}
}

// Plan explains how a Prepared query evaluates.
type Plan struct {
	Strategy       Strategy
	Classification Classification
	QueryClass     cq.Class
}

// String renders a one-line plan description. Prepared.PlanText holds
// the same text, rendered once at Prepare.
func (p Plan) String() string {
	return fmt.Sprintf("%s query over %s -> %s", p.QueryClass, p.Classification, p.Strategy)
}

// planFor computes the strategy for q: acyclicity first (Yannakakis works
// for every signature), then the Theorem 1.1 dichotomy.
func planFor(q *cq.Query) Plan {
	cls := ClassifyQuery(q)
	qc := cq.Classify(q)
	p := Plan{Classification: cls, QueryClass: qc}
	switch {
	case qc == cq.Acyclic:
		p.Strategy = StrategyAcyclic
	case cls.Complexity == PTime:
		p.Strategy = StrategyXProperty
	default:
		p.Strategy = StrategyBacktrack
	}
	return p
}

// ReferenceEvalBoolean is a brute-force oracle used by the test suite: it
// tries every valuation (|A|^|vars| of them). Only usable for tiny inputs.
func ReferenceEvalBoolean(t *tree.Tree, q *cq.Query) bool {
	nv := q.NumVars()
	if nv == 0 {
		return true
	}
	if t.Len() == 0 {
		return false
	}
	theta := make(consistency.Valuation, nv)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == nv {
			return consistency.Consistent(t, q, theta)
		}
		for v := 0; v < t.Len(); v++ {
			theta[i] = tree.NodeID(v)
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// ReferenceEvalAll is the brute-force answer enumeration oracle.
func ReferenceEvalAll(t *tree.Tree, q *cq.Query) [][]tree.NodeID {
	nv := q.NumVars()
	if len(q.Head) == 0 {
		if ReferenceEvalBoolean(t, q) {
			return [][]tree.NodeID{{}}
		}
		return nil
	}
	seen := map[string]bool{}
	var out [][]tree.NodeID
	theta := make(consistency.Valuation, nv)
	var rec func(i int)
	rec = func(i int) {
		if i == nv {
			if consistency.Consistent(t, q, theta) {
				tuple := make([]tree.NodeID, len(q.Head))
				key := ""
				for j, h := range q.Head {
					tuple[j] = theta[h]
					key += fmt.Sprintf("%d,", theta[h])
				}
				if !seen[key] {
					seen[key] = true
					out = append(out, tuple)
				}
			}
			return
		}
		for v := 0; v < t.Len(); v++ {
			theta[i] = tree.NodeID(v)
			rec(i + 1)
		}
	}
	rec(0)
	slices.SortFunc(out, slices.Compare[[]tree.NodeID])
	return out
}

func copyTuple(tuple []tree.NodeID) []tree.NodeID {
	cp := make([]tree.NodeID, len(tuple))
	copy(cp, tuple)
	return cp
}

// collectSortedTuples materializes a tuple stream into an owned, sorted
// slice (the stream's tuple buffer is reused, so each tuple is copied).
func collectSortedTuples(stream func(fn func([]tree.NodeID) bool)) [][]tree.NodeID {
	var out [][]tree.NodeID
	stream(func(tuple []tree.NodeID) bool {
		out = append(out, copyTuple(tuple))
		return true
	})
	slices.SortFunc(out, slices.Compare[[]tree.NodeID])
	return out
}

// enumNeedsDedup reports whether an enumeration that assigns the
// variables of order exactly once per distinct assignment can reach the
// same head tuple twice — i.e. whether order contains a non-head
// variable (projecting it away merges assignments). When it returns
// false the dedup set is pure overhead, and skipping it is what keeps
// streaming enumeration memory-flat: the seen-set is the only
// O(answers) allocation on the streaming path.
func enumNeedsDedup(head, order []cq.Var) bool {
	for _, x := range order {
		inHead := false
		for _, h := range head {
			if h == x {
				inHead = true
				break
			}
		}
		if !inHead {
			return true
		}
	}
	return false
}

// projectionFree reports whether every query variable appears in the
// head: distinct full valuations then project to distinct head tuples.
func projectionFree(q *cq.Query) bool {
	seen := make([]bool, q.NumVars())
	n := 0
	for _, h := range q.Head {
		if !seen[h] {
			seen[h] = true
			n++
		}
	}
	return n == q.NumVars()
}

// dedupEmit wraps emit to drop tuples it has already passed on, keyed by
// the tuple's little-endian NodeID bytes. It reuses one key buffer across
// calls (map lookups through string(key) do not allocate; only the insert
// of a genuinely new answer does).
func dedupEmit(emit func([]tree.NodeID) bool) func([]tree.NodeID) bool {
	seen := map[string]bool{}
	var key []byte
	return func(tuple []tree.NodeID) bool {
		key = key[:0]
		for _, v := range tuple {
			key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		if seen[string(key)] {
			return true
		}
		seen[string(key)] = true
		return emit(tuple)
	}
}

// Verify that the classification facts agree with the proved maximal
// tractable sets (§1.1) — executable documentation used by tests.
func maximalSetsAreTractable() bool {
	for _, set := range axis.MaximalTractableSets() {
		if Classify(set).Complexity != PTime {
			return false
		}
	}
	return true
}
