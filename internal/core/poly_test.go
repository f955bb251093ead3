package core

import (
	"math/rand"
	"testing"

	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

// prepareXProperty prepares q and forces the X-property strategy onto it,
// with the common X-property order of q's signature as the witnessing
// order. Prepare routes acyclic queries to the acyclic strategy; the
// tests of the X-property engine use this to run it on them too.
func prepareXProperty(tb testing.TB, q *cq.Query) *Prepared {
	tb.Helper()
	order, ok := axis.CommonXOrder(q.Signature())
	if !ok {
		tb.Fatalf("no common X-property order for %s", q)
	}
	c := q.Clone()
	pl := planFor(c)
	pl.Strategy = StrategyXProperty
	p, err := prepareAs(c, pl)
	if err != nil {
		tb.Fatal(err)
	}
	p.order = order
	return p
}

func TestPolyEngineBinaryAnswers(t *testing.T) {
	// Binary (2-ary) answer enumeration on a tractable signature against
	// the brute-force oracle.
	rng := rand.New(rand.NewSource(88))
	q := cq.MustParse("Q(x, y) <- A(x), Child+(x, y), B(y)")
	p := prepareXProperty(t, q)
	for trial := 0; trial < 40; trial++ {
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: 1 + rng.Intn(8), MaxChildren: 3, Alphabet: []string{"A", "B"},
		})
		want := ReferenceEvalAll(tr, q)
		got, _ := p.AllDoc(NewDocument(tr), EnumOptions{})
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d answers, want %d on %s", trial, len(got), len(want), tr)
		}
		for i := range want {
			if want[i][0] != got[i][0] || want[i][1] != got[i][1] {
				t.Fatalf("trial %d: answers differ on %s", trial, tr)
			}
		}
	}
}

func TestPolyEngineBooleanAnswerShape(t *testing.T) {
	d := NewDocument(tree.MustParseTerm("A(B)"))
	sat := prepareXProperty(t, cq.MustParse("Q() <- A(x), Child+(x, y), B(y)"))
	if got, _ := sat.AllDoc(d, EnumOptions{}); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("satisfiable Boolean query should yield one empty tuple: %v", got)
	}
	unsat := prepareXProperty(t, cq.MustParse("Q() <- B(x), Child+(x, y), A(y)"))
	if got, _ := unsat.AllDoc(d, EnumOptions{}); got != nil {
		t.Errorf("unsatisfiable Boolean query should yield nil: %v", got)
	}
}

func TestPolyEngineSatisfactionUsesWitnessOrder(t *testing.T) {
	// Theorem 3.5 / Lemma 3.4: the satisfaction is the minimum valuation
	// with respect to the witnessing order. For {Following} with <post,
	// the returned nodes are the <post-minimal arc-consistent choices.
	tr := tree.MustParseTerm("R(A,B,A,B)")
	q := cq.MustParse("Q() <- A(x), Following(x, y), B(y)")
	p := prepareXProperty(t, q)
	if p.order != axis.PostOrder {
		t.Fatalf("order = %v, want <post", p.order)
	}
	theta := p.SatisfactionDoc(NewDocument(tr), EnumOptions{})
	if theta == nil {
		t.Fatal("satisfiable")
	}
	if !consistency.Consistent(tr, q, theta) {
		t.Fatal("inconsistent satisfaction")
	}
	x, _ := q.VarByName("x")
	// The <post-minimal arc-consistent A is the first A leaf.
	if !tr.HasLabel(theta[x], "A") || tr.Pre(theta[x]) != 1 {
		t.Errorf("expected the first A (pre 1), got node %d", theta[x])
	}
}

func TestPolyEngineEmptyTree(t *testing.T) {
	empty := NewDocument(tree.NewBuilder(0).Build())
	if sat, _ := prepareXProperty(t, cq.MustParse("Q() <- A(x)")).BoolDoc(empty, EnumOptions{}); sat {
		t.Errorf("query with variables cannot hold on the empty tree")
	}
	if sat, _ := prepareXProperty(t, cq.MustParse("Q() <- true")).BoolDoc(empty, EnumOptions{}); !sat {
		t.Errorf("the empty conjunction holds vacuously")
	}
}

func TestEngineStepsMetricMonotone(t *testing.T) {
	// The Steps metric must reflect work done (used by the hardness
	// benches): a forced search reports more steps than a trivial one.
	tr := tree.MustParseTerm("A(B,B,B)")
	easy := cq.MustParse("Q() <- A(x)")
	e := NewBacktrackEngine()
	e.EvalBoolean(tr, easy)
	easySteps := e.Steps()
	hard := cq.MustParse("Q() <- B(x), B(y), B(z), Following(x, y), Following(y, z)")
	e.EvalBoolean(tr, hard)
	if e.Steps() < easySteps {
		t.Errorf("steps not monotone with work: easy %d, hard %d", easySteps, e.Steps())
	}
}

// TestXPropNodesProbesFlat is the complexity claim of the X-property node
// stream as a counter test, with no timing: after the one FastAC run, the
// min-delete loop's support probes per answer and removal stay flat as
// the tree grows, because each removal rechecks only what it could have
// supported. It runs xp_nodes on tree.Random trees, and a {Following}
// query on tree.ShapeDeep trees, whose exclusions read the support
// domain's minimum preEnd (each threshold step counts as a probe), at n,
// 4n and 16n nodes; the ratio may grow by at most 1.5x from n to 16n.
func TestXPropNodesProbesFlat(t *testing.T) {
	for _, c := range []struct {
		name string
		p    *Prepared
		tree func(n int) *tree.Tree
	}{
		{"xp_nodes", MustPrepare(cq.MustParse(xpNodesQuery)), func(n int) *tree.Tree {
			return tree.Random(rand.New(rand.NewSource(1)), tree.DefaultRandomConfig(n))
		}},
		{"following", prepareXProperty(t, cq.MustParse("Q(y) <- A(x), Following(x, y), B(y)")), func(n int) *tree.Tree {
			return tree.RandomWithShape(rand.New(rand.NewSource(1)), n, tree.ShapeDeep, []string{"A", "B", "C"})
		}},
	} {
		p := c.p
		if p.Plan().Strategy != StrategyXProperty {
			t.Fatalf("%s: strategy %v, want X-property", c.name, p.Plan().Strategy)
		}
		var ratios []float64
		for _, n := range []int{2000, 8000, 32000} {
			d := NewDocument(c.tree(n))
			s := newEvalScratch()
			answers := 0
			polyForEachNode(d, p.q, p.order, s, nil, func(tree.NodeID) bool {
				answers++
				return true
			})
			st := s.ac.ExclusionStats()
			if answers == 0 || st.Removals < answers {
				t.Fatalf("%s n=%d: %d answers, %d removals", c.name, n, answers, st.Removals)
			}
			ratios = append(ratios, float64(st.Probes)/float64(answers+st.Removals))
			t.Logf("%s n=%d: %d answers, %d removals, %d probes, %.2f probes per answer and removal", c.name, n, answers, st.Removals, st.Probes, ratios[len(ratios)-1])
		}
		if ratios[2] > 1.5*ratios[0] {
			t.Errorf("%s: probes per answer and removal grow from %.2f to %.2f from n to 16n", c.name, ratios[0], ratios[2])
		}
	}
}
