package core

import (
	"fmt"
	"slices"

	"repro/internal/cq"
	"repro/internal/tree"
)

// Containment of conjunctive queries over trees (§2: Q ⊆ Q' iff Q'
// returns at least the tuples of Q on every tree). Exact containment over
// the infinite class of trees is beyond this package's scope; what the
// paper's proofs use — and what the test suite needs — is refutation and
// bounded verification: find a counterexample tree, or verify containment
// exhaustively up to a size bound.

// Counterexample describes a tree on which containment fails.
type Counterexample struct {
	Tree  *tree.Tree
	Tuple []tree.NodeID // a tuple answered by Q but not by Q'
}

// String renders the counterexample.
func (c *Counterexample) String() string {
	return fmt.Sprintf("tree %s, tuple %v", c.Tree, c.Tuple)
}

// CheckContainment exhaustively checks Q ⊆ Q' on all trees with up to
// maxNodes nodes over the alphabet (single-labeled). It returns nil if no
// counterexample exists within the bound — evidence, not proof, of
// containment; a non-nil result refutes containment outright.
//
// Q and Q' must have equal head arity.
func CheckContainment(q, qPrime *cq.Query, maxNodes int, alphabet []string) *Counterexample {
	if len(q.Head) != len(qPrime.Head) {
		panic(fmt.Sprintf("core: CheckContainment arities %d vs %d", len(q.Head), len(qPrime.Head)))
	}
	p, pPrime := MustPrepare(q), MustPrepare(qPrime)
	var ce *Counterexample
	tree.EnumerateAll(maxNodes, alphabet, func(t *tree.Tree) bool {
		d := NewDocument(t)
		left, _ := p.AllDoc(d, EnumOptions{})
		if len(left) == 0 {
			return true
		}
		right, _ := pPrime.AllDoc(d, EnumOptions{}) // sorted lexicographically
		for _, tup := range left {
			if _, ok := slices.BinarySearchFunc(right, tup, slices.Compare[[]tree.NodeID]); !ok {
				ce = &Counterexample{Tree: t, Tuple: tup}
				return false
			}
		}
		return true
	})
	return ce
}

// CheckEquivalence checks both containment directions within the bound,
// returning the first counterexample found (direction reported by which
// query produced the extra tuple: probe with CheckContainment twice).
func CheckEquivalence(q, qPrime *cq.Query, maxNodes int, alphabet []string) (qNotContained, qPrimeNotContained *Counterexample) {
	return CheckContainment(q, qPrime, maxNodes, alphabet),
		CheckContainment(qPrime, q, maxNodes, alphabet)
}
