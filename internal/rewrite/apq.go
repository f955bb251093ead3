// Package rewrite implements the expressiveness results of §6 of
// "Conjunctive Queries over Trees": join lifters (Definition 6.2), the
// directed-cycle elimination of Lemma 6.4, the CQ → acyclic positive
// query (APQ) rewriting algorithm of Lemma 6.5 with the lifter tables of
// Theorems 6.6 and 6.9, the Following/Child* elimination of Theorem 6.10,
// and the linear-time acyclic rewriting of Proposition 6.14 for
// CQ[Child, NextSibling].
package rewrite

import (
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/tree"
)

// APQ is an acyclic positive query: a finite union of conjunctive queries
// whose query graphs' shadows are forests (§6). The union is empty for
// unsatisfiable queries.
type APQ struct {
	Disjuncts []*cq.Query
}

// Size returns the total number of atoms across disjuncts — the size
// measure of §7.
func (a *APQ) Size() int {
	total := 0
	for _, q := range a.Disjuncts {
		total += q.Size()
	}
	return total
}

// String renders the union.
func (a *APQ) String() string {
	if len(a.Disjuncts) == 0 {
		return "∅ (unsatisfiable)"
	}
	parts := make([]string, len(a.Disjuncts))
	for i, q := range a.Disjuncts {
		parts[i] = q.String()
	}
	return strings.Join(parts, "\n∪ ")
}

// IsAcyclic reports whether every disjunct is acyclic.
func (a *APQ) IsAcyclic() bool {
	for _, q := range a.Disjuncts {
		if cq.Classify(q) != cq.Acyclic {
			return false
		}
	}
	return true
}

// EvalBoolean evaluates the APQ as a Boolean query (true iff some
// disjunct is satisfiable). It indexes t once per call.
func (a *APQ) EvalBoolean(t *tree.Tree) bool {
	d := core.NewDocument(t)
	for _, q := range a.Disjuncts {
		if sat, _ := core.MustPrepare(q).BoolDoc(d, core.EnumOptions{}); sat {
			return true
		}
	}
	return false
}

// EvalAll evaluates the APQ's answer set: the union of the disjuncts'
// answers (all disjuncts must have the same head arity), sorted
// lexicographically. It indexes t once per call.
func (a *APQ) EvalAll(t *tree.Tree) [][]tree.NodeID {
	d := core.NewDocument(t)
	var out [][]tree.NodeID
	for _, q := range a.Disjuncts {
		tuples, _ := core.MustPrepare(q).AllDoc(d, core.EnumOptions{})
		out = append(out, tuples...)
	}
	slices.SortFunc(out, slices.Compare[[]tree.NodeID])
	return slices.CompactFunc(out, slices.Equal[[]tree.NodeID])
}

// EquivalentOn reports whether the APQ and the original query q agree on
// tree t (same Boolean value, or same answer set if q has a head) — the
// empirical equivalence check used throughout the test suite.
func (a *APQ) EquivalentOn(t *tree.Tree, q *cq.Query) bool {
	if len(q.Head) == 0 {
		be := core.NewBacktrackEngine()
		return a.EvalBoolean(t) == be.EvalBoolean(t, q)
	}
	be := core.NewBacktrackEngine()
	want := be.EvalAll(t, q)
	got := a.EvalAll(t)
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				return false
			}
		}
	}
	return true
}
