package core

import (
	"math/rand"
	"testing"

	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

func TestPolyEngineBinaryAnswers(t *testing.T) {
	// Binary (2-ary) answer enumeration on a tractable signature against
	// the brute-force oracle.
	rng := rand.New(rand.NewSource(88))
	pe, err := NewPolyEngine([]axis.Axis{axis.ChildPlus, axis.ChildStar})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: 1 + rng.Intn(8), MaxChildren: 3, Alphabet: []string{"A", "B"},
		})
		q := cq.MustParse("Q(x, y) <- A(x), Child+(x, y), B(y)")
		want := ReferenceEvalAll(tr, q)
		got := pe.EvalAll(NewDocument(tr), q)
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
	pe, err := NewPolyEngine([]axis.Axis{axis.ChildPlus})
	if err != nil {
		t.Fatal(err)
	}
	sat := cq.MustParse("Q() <- A(x), Child+(x, y), B(y)")
	if got := pe.EvalAll(d, sat); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("satisfiable Boolean query should yield one empty tuple: %v", got)
	}
	unsat := cq.MustParse("Q() <- B(x), Child+(x, y), A(y)")
	if got := pe.EvalAll(d, unsat); got != nil {
		t.Errorf("unsatisfiable Boolean query should yield nil: %v", got)
	}
}

func TestPolyEngineSatisfactionUsesWitnessOrder(t *testing.T) {
	// Theorem 3.5 / Lemma 3.4: the satisfaction is the minimum valuation
	// with respect to the witnessing order. For {Following} with <post,
	// the returned nodes are the <post-minimal arc-consistent choices.
	tr := tree.MustParseTerm("R(A,B,A,B)")
	pe, err := NewPolyEngine([]axis.Axis{axis.Following})
	if err != nil {
		t.Fatal(err)
	}
	if pe.Order() != axis.PostOrder {
		t.Fatalf("order = %v, want <post", pe.Order())
	}
	q := cq.MustParse("Q() <- A(x), Following(x, y), B(y)")
	theta := pe.Satisfaction(NewDocument(tr), q)
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
	pe, err := NewPolyEngine([]axis.Axis{axis.ChildPlus})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("Q() <- A(x)")
	if pe.EvalBoolean(empty, q) {
		t.Errorf("query with variables cannot hold on the empty tree")
	}
	trivial := cq.MustParse("Q() <- true")
	if !pe.EvalBoolean(empty, trivial) {
		t.Errorf("the empty conjunction holds vacuously")
	}
}

func TestCheckTupleArityPanics(t *testing.T) {
	pe, _ := NewPolyEngine([]axis.Axis{axis.ChildPlus})
	q := cq.MustParse("Q(x) <- A(x)")
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on arity mismatch")
		}
	}()
	pe.CheckTuple(NewDocument(tree.MustParseTerm("A")), q, []tree.NodeID{0, 0})
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
