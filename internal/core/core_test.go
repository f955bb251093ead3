package core

import (
	"math/rand"
	"testing"

	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

func randomQuery(rng *rand.Rand, axes []axis.Axis, alphabet []string, nv, na, nl int) *cq.Query {
	q := cq.New()
	vars := make([]cq.Var, nv)
	for i := range vars {
		vars[i] = q.AddVar(string(rune('a' + i)))
	}
	for i := 0; i < na; i++ {
		q.AddAtom(axes[rng.Intn(len(axes))], vars[rng.Intn(nv)], vars[rng.Intn(nv)])
	}
	for i := 0; i < nl; i++ {
		q.AddLabel(alphabet[rng.Intn(len(alphabet))], vars[rng.Intn(nv)])
	}
	return q
}

// evalAll is the suite's one-shot answer evaluation: prepare q, index t,
// and enumerate the sorted answer relation.
func evalAll(t *tree.Tree, q *cq.Query) [][]tree.NodeID {
	out, err := MustPrepare(q).AllDoc(NewDocument(t), EnumOptions{})
	if err != nil {
		panic(err)
	}
	return out
}

// evalNodes is evalAll for a monadic query's sorted answer node set.
func evalNodes(t *tree.Tree, q *cq.Query) []tree.NodeID {
	out, err := MustPrepare(q).MonadicDoc(NewDocument(t), EnumOptions{})
	if err != nil {
		panic(err)
	}
	return out
}

// evalBool is evalAll for Boolean satisfaction.
func evalBool(t *tree.Tree, q *cq.Query) bool {
	sat, err := MustPrepare(q).BoolDoc(NewDocument(t), EnumOptions{})
	if err != nil {
		panic(err)
	}
	return sat
}

func TestEngineMatchesOracleBoolean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	alphabet := []string{"A", "B"}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(9)
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: n, MaxChildren: 3, Alphabet: alphabet, UnlabeledProb: 0.1,
		})
		q := randomQuery(rng, axis.PaperAxes, alphabet, 1+rng.Intn(3), rng.Intn(4), rng.Intn(3))
		want := ReferenceEvalBoolean(tr, q)
		p, d := MustPrepare(q), NewDocument(tr)
		if got, _ := p.BoolDoc(d, EnumOptions{}); got != want {
			t.Fatalf("trial %d (%v): BoolDoc = %v, want %v\nquery %s\ntree %s",
				trial, p.Plan(), got, want, q, tr)
		}
		// A returned satisfaction must actually satisfy the query.
		if want {
			theta := p.SatisfactionDoc(d, EnumOptions{})
			if theta == nil {
				t.Fatalf("trial %d: satisfiable but Satisfaction nil\nquery %s\ntree %s", trial, q, tr)
			}
			if !consistency.Consistent(tr, q, theta) {
				t.Fatalf("trial %d: Satisfaction inconsistent\nquery %s\ntree %s", trial, q, tr)
			}
		}
	}
}

func TestEngineMatchesOracleAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	alphabet := []string{"A", "B"}
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(8)
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: n, MaxChildren: 3, Alphabet: alphabet,
		})
		nv := 1 + rng.Intn(3)
		q := randomQuery(rng, axis.PaperAxes, alphabet, nv, rng.Intn(4), rng.Intn(2))
		// Random head of arity 1..2.
		arity := 1 + rng.Intn(2)
		for i := 0; i < arity; i++ {
			q.Head = append(q.Head, cq.Var(rng.Intn(nv)))
		}
		want := ReferenceEvalAll(tr, q)
		got := evalAll(tr, q)
		if len(got) != len(want) {
			t.Fatalf("trial %d (%v): %d answers, want %d\nquery %s\ntree %s\ngot %v want %v",
				trial, MustPrepare(q).Plan(), len(got), len(want), q, tr, got, want)
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("trial %d: answer %d = %v, want %v\nquery %s\ntree %s",
						trial, i, got[i], want[i], q, tr)
				}
			}
		}
	}
}

func TestPolyEngineExhaustiveSmallTrees(t *testing.T) {
	// Exhaustive check of the X-property engine on every tree with <= 4
	// nodes over {A, B} for a fixed battery of tractable queries (the
	// FastAC-vs-HornAC leg is TestFastACMatchesHornACExhaustive in
	// internal/consistency).
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
		p := prepareXProperty(t, q)
		tree.EnumerateAll(4, []string{"A", "B"}, func(tr *tree.Tree) bool {
			want := ReferenceEvalBoolean(tr, q)
			if got, _ := p.BoolDoc(NewDocument(tr), EnumOptions{}); got != want {
				t.Fatalf("%s on %s: poly %v, want %v", src, tr, got, want)
			}
			return true
		})
	}
}

func TestPolyEngineRejectsIntractableSignature(t *testing.T) {
	// {Child, Following} has no common X-property order (Theorem 1.1), so
	// Prepare never routes a cyclic query over it to the X-property
	// strategy.
	q := cq.MustParse("Q() <- Child(x, y), Following(y, z), Child(x, z)")
	if _, ok := axis.CommonXOrder(q.Signature()); ok {
		t.Errorf("expected no common X-property order for {Child, Following}")
	}
	if got := MustPrepare(q).Plan().Strategy; got != StrategyBacktrack {
		t.Errorf("strategy %v, want backtracking", got)
	}
}

func TestPolyEngineCheckTuple(t *testing.T) {
	// Tuple membership by the singleton-restriction argument below
	// Theorem 3.5: pin each head variable to the tuple's node and test
	// arc consistency.
	tr := tree.MustParseTerm("A(B,C(B))")
	q := cq.MustParse("Q(y) <- A(x), Child+(x, y), B(y)")
	ix := consistency.NewTreeIndex(tr)
	member := func(v tree.NodeID) bool {
		_, ok := consistency.NewScratch().PinnedFastACIx(ix, q, q.Head, []tree.NodeID{v})
		return ok
	}
	bs := tr.NodesWithLabel("B")
	if len(bs) != 2 {
		t.Fatal("expected 2 B nodes")
	}
	for _, b := range bs {
		if !member(b) {
			t.Errorf("tuple (%d) should be an answer", b)
		}
	}
	c := tr.NodesWithLabel("C")[0]
	if member(c) {
		t.Errorf("tuple (C) should not be an answer (label)")
	}
	if member(tr.Root()) {
		t.Errorf("tuple (root) should not be an answer")
	}
}

func TestAcyclicEngineAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	alphabet := []string{"A", "B"}
	queries := []string{
		"Q(x) <- A(x)",
		"Q(y) <- A(x), Child(x, y)",
		"Q(z) <- A(x), Child(x, y), B(y), Following(x, z)",
		"Q(x, z) <- Child+(x, y), NextSibling(y, z)",
		"Q() <- A(x), B(y)", // two components
		"Q(x) <- A(x), B(y), Child(y, z)",
	}
	for _, src := range queries {
		q := cq.MustParse(src)
		p := MustPrepare(q)
		if p.Plan().Strategy != StrategyAcyclic {
			t.Fatalf("%s: plan %v, want the acyclic strategy", src, p.Plan())
		}
		for trial := 0; trial < 40; trial++ {
			tr := tree.Random(rng, tree.RandomConfig{
				Nodes: 1 + rng.Intn(10), MaxChildren: 3, Alphabet: alphabet,
			})
			want := ReferenceEvalAll(tr, q)
			got, _ := p.AllDoc(NewDocument(tr), EnumOptions{})
			if len(got) != len(want) {
				t.Fatalf("%s on %s: %d answers, want %d (%v vs %v)", src, tr, len(got), len(want), got, want)
			}
			for i := range got {
				for j := range got[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("%s on %s: answers differ", src, tr)
					}
				}
			}
		}
	}
}

func TestBacktrackBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := tree.Random(rng, tree.DefaultRandomConfig(60))
	q := randomQuery(rng, axis.PaperAxes, []string{"A", "B", "C", "D", "E"}, 6, 9, 2)
	be := NewBacktrackEngine()
	be.MaxSteps = 5
	defer func() {
		if r := recover(); r != ErrSearchBudget {
			// The query may be decided within budget; only a non-budget
			// panic is a failure.
			if r != nil {
				t.Errorf("unexpected panic %v", r)
			}
		}
	}()
	be.EvalBoolean(tr, q)
}

func TestPlanSelection(t *testing.T) {
	cases := []struct {
		src  string
		want Strategy
	}{
		{"Q() <- A(x), Child(x, y)", StrategyAcyclic},
		{"Q() <- Child+(x, y), Child*(x, z), Child+(y, z)", StrategyXProperty},
		{"Q() <- Child(x, y), Child+(x, z), Child(y, z)", StrategyBacktrack},
	}
	for _, tc := range cases {
		p := MustPrepare(cq.MustParse(tc.src))
		plan := p.Plan()
		if plan.Strategy != tc.want {
			t.Errorf("Plan(%s) = %v, want %v", tc.src, plan.Strategy, tc.want)
		}
		if plan.String() == "" {
			t.Errorf("empty plan string")
		}
		if p.PlanText() != plan.String() {
			t.Errorf("PlanText() = %q, want Plan().String() = %q", p.PlanText(), plan.String())
		}
	}
}

func TestEvalMonadic(t *testing.T) {
	tr := tree.MustParseTerm("A(B,C(B),B)")
	q := cq.MustParse("Q(y) <- Child+(x, y), B(y), A(x)")
	got, err := MustPrepare(q).MonadicDoc(NewDocument(tr), EnumOptions{})
	want := tr.NodesWithLabel("B")
	if err != nil || len(got) != len(want) {
		t.Fatalf("MonadicDoc = %v, %v, want %v", got, err, want)
	}
}

func TestMaximalSetsTractable(t *testing.T) {
	if !maximalSetsAreTractable() {
		t.Errorf("the §1.1 maximal sets must classify tractable")
	}
}
