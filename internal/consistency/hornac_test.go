package consistency

// The paper-exact Horn-SAT arc consistency of Proposition 3.1, kept as the
// test oracle of FastAC and of incremental pinning (PinRun). It is
// exported from this _test.go file so that the external fuzz tests can
// call it, while no binary links internal/hornsat.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/axis"
	"repro/internal/cq"
	"repro/internal/hornsat"
	"repro/internal/tree"
)

// HornAC computes the unique subset-maximal arc-consistent prevaluation of
// q on t using the paper-exact Horn-SAT reduction of Proposition 3.1, and
// reports (nil, false) if none exists (some variable's set would be empty).
//
// The propositional atoms are Remove(x, v); the clauses are
//
//	Remove(x,v) ← .                                    P(x) ∈ Q, ¬P^A(v)
//	Remove(x,v) ← ∧{Remove(y,w) | R^A(v,w)}            R(x,y) ∈ Q, v ∈ A
//	Remove(y,w) ← ∧{Remove(x,v) | R^A(v,w)}            R(x,y) ∈ Q, w ∈ A
//
// and Π(x) = {v | Remove(x,v) not derivable}. The program is solved by
// linear-time unit resolution (package hornsat), so the whole computation
// is O(‖A‖·|Q|) in the size of the program — note the program materializes
// each axis relation, which is Θ(n²) pairs for transitive axes.
func HornAC(t *tree.Tree, q *cq.Query) (*Prevaluation, bool) {
	return HornACPinned(t, q, nil, nil)
}

// HornACPinned is HornAC extended with the singleton relations of the
// tuple-membership construction below Theorem 3.5: for each pinned
// variable vars[i], facts Remove(vars[i], v) are added for every node
// v ≠ nodes[i].
func HornACPinned(t *tree.Tree, q *cq.Query, vars []cq.Var, nodes []tree.NodeID) (*Prevaluation, bool) {
	var xs []cq.Var
	var vs []tree.NodeID
	for i, x := range vars {
		for v := 0; v < t.Len(); v++ {
			if tree.NodeID(v) != nodes[i] {
				xs, vs = append(xs, x), append(vs, tree.NodeID(v))
			}
		}
	}
	return HornACExcluding(t, q, xs, vs)
}

// HornACExcluding is HornAC with the facts Remove(vars[i], nodes[i]): the
// maximal arc-consistent prevaluation that holds none of the excluded
// values, the oracle of removal-driven exclusion (Scratch.Exclude).
func HornACExcluding(t *tree.Tree, q *cq.Query, vars []cq.Var, nodes []tree.NodeID) (*Prevaluation, bool) {
	n := t.Len()
	nv := q.NumVars()
	prog := hornsat.NewProgram(nv*n, nv*n*2)
	prog.NewAtoms(nv * n) // Remove(x, v) = x*n + v
	atom := func(x cq.Var, v tree.NodeID) hornsat.AtomID {
		return hornsat.AtomID(int(x)*n + int(v))
	}

	// Exclusion facts, the pins' among them.
	for i, x := range vars {
		prog.AddClause(atom(x, nodes[i]))
	}

	// Unary facts: Remove(x,v) for every v lacking a required label.
	for _, la := range q.Labels {
		for v := 0; v < n; v++ {
			if !t.HasLabel(tree.NodeID(v), la.Label) {
				prog.AddClause(atom(la.X, tree.NodeID(v)))
			}
		}
	}

	// Binary clauses. For each atom R(x,y) and node v, the forward clause
	// bodies enumerate successors of v under R; backward clauses enumerate
	// predecessors of w (successors under the inverse axis).
	var body []hornsat.AtomID
	for _, at := range q.Atoms {
		fwd, hasInv := at.Axis, true
		var bwd axis.Axis
		switch at.Axis {
		case axis.DocOrder, axis.DocOrderSucc:
			hasInv = false
		default:
			bwd = at.Axis.Inverse()
		}
		for v := 0; v < n; v++ {
			vid := tree.NodeID(v)
			body = body[:0]
			axis.ForEachSuccessor(t, fwd, vid, func(w tree.NodeID) bool {
				body = append(body, atom(at.Y, w))
				return true
			})
			prog.AddClause(atom(at.X, vid), body...)
		}
		for w := 0; w < n; w++ {
			wid := tree.NodeID(w)
			body = body[:0]
			if hasInv {
				axis.ForEachSuccessor(t, bwd, wid, func(v tree.NodeID) bool {
					body = append(body, atom(at.X, v))
					return true
				})
			} else {
				// Order extensions: enumerate predecessors directly.
				for v := 0; v < n; v++ {
					if axis.Holds(t, at.Axis, tree.NodeID(v), wid) {
						body = append(body, atom(at.X, tree.NodeID(v)))
					}
				}
			}
			prog.AddClause(atom(at.Y, wid), body...)
		}
	}

	removed := prog.Solve()
	p := &Prevaluation{Sets: make([]*NodeSet, nv)}
	for x := 0; x < nv; x++ {
		s := NewNodeSet(n)
		for v := 0; v < n; v++ {
			if !removed[int(x)*n+v] {
				s.Add(tree.NodeID(v))
			}
		}
		if s.Empty() {
			return nil, false
		}
		p.Sets[x] = s
	}
	return p, true
}

// TestFastACMatchesHornACExhaustive: on every tree with <= 4 nodes over
// {A, B}, FastAC and HornAC agree — verdict and prevaluation — on a fixed
// battery of queries over X-property signatures.
func TestFastACMatchesHornACExhaustive(t *testing.T) {
	queries := []string{
		"Q() <- A(x), Child+(x, y), B(y)",
		"Q() <- Child*(x, y), Child+(y, z)",
		"Q() <- A(x), Child+(x, y), Child+(x, z), B(y), B(z)",
		"Q() <- Following(x, y), A(x), B(y)",
		"Q() <- Following(x, y), Following(y, z)",
		"Q() <- Child(x, y), NextSibling(y, z)",
		"Q() <- NextSibling+(x, y), NextSibling*(y, z), Child(w, x)",
		"Q() <- Child+(x, y), Child+(x, y)", // duplicate atom
		"Q() <- Child*(x, x)",               // reflexive self-loop, always true
	}
	for _, src := range queries {
		q := cq.MustParse(src)
		tree.EnumerateAll(4, []string{"A", "B"}, func(tr *tree.Tree) bool {
			checkFastAgainstHorn(t, tr, q)
			return true
		})
	}
}

// TestFastACMatchesHornACExample45: Example 4.5's extension of τ1 =
// {Child+, Child*} by Self, <pre (DocOrder) and Succ<pre (DocOrderSucc)
// keeps both engines in agreement on random queries and trees (HornAC
// enumerates the order extensions' predecessors directly, as they have no
// inverse axis).
func TestFastACMatchesHornACExample45(t *testing.T) {
	sig := []axis.Axis{
		axis.ChildPlus, axis.ChildStar, axis.Self,
		axis.DocOrder, axis.DocOrderSucc,
	}
	rng := rand.New(rand.NewSource(45))
	alphabet := []string{"A", "B"}
	for trial := 0; trial < 150; trial++ {
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: 1 + rng.Intn(9), MaxChildren: 3, Alphabet: alphabet,
		})
		q := randomQuery(rng, sig, alphabet, 1+rng.Intn(3), rng.Intn(4), rng.Intn(2))
		checkFastAgainstHorn(t, tr, q)
	}
}

func checkFastAgainstHorn(t *testing.T, tr *tree.Tree, q *cq.Query) {
	t.Helper()
	pf, okF := FastAC(tr, q)
	ph, okH := HornAC(tr, q)
	if okF != okH {
		t.Fatalf("fast %v, horn %v\nquery %s\ntree %s", okF, okH, q, tr)
	}
	if okF && !pf.Equal(ph) {
		t.Fatalf("prevaluations differ\nquery %s\ntree %s", q, tr)
	}
}

// BenchmarkACEngines (ablation): paper-exact Horn-SAT arc consistency
// versus the bitset-domain worklist engine, across tree sizes. HornAC
// materializes transitive relations (Θ(n²) program size); FastAC stays
// near-linear.
func BenchmarkACEngines(b *testing.B) {
	q := cq.MustParse("Q() <- A(x), Child+(x, y), B(y), Child*(y, z), Child+(x, z)")
	for _, n := range []int{200, 400, 800} {
		rng := rand.New(rand.NewSource(3))
		t := tree.Random(rng, tree.DefaultRandomConfig(n))
		b.Run(fmt.Sprintf("fast/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FastAC(t, q)
			}
		})
		b.Run(fmt.Sprintf("horn/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				HornAC(t, q)
			}
		})
	}
}
