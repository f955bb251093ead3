package cqtrees

// Cross-module integration properties: random (possibly cyclic) queries
// over the full axis set Ax, evaluated three ways — general engine,
// Theorem 6.10 APQ translation, and (for monadic queries) the XPath
// rendering — must agree on random trees.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/axis"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/rewrite"
	"repro/internal/tree"
	"repro/internal/xpath"
)

func randomPaperQuery(rng *rand.Rand, nv, na int) *cq.Query {
	q := cq.New()
	vars := make([]cq.Var, nv)
	for i := range vars {
		vars[i] = q.AddVar(fmt.Sprintf("v%d", i))
	}
	for i := 0; i < na; i++ {
		x := rng.Intn(nv)
		y := rng.Intn(nv)
		if x == y {
			y = (y + 1) % nv
		}
		q.AddAtom(axis.PaperAxes[rng.Intn(len(axis.PaperAxes))], vars[x], vars[y])
	}
	labels := []string{"A", "B", "C"}
	for i := 0; i < 1+rng.Intn(2); i++ {
		q.AddLabel(labels[rng.Intn(len(labels))], vars[rng.Intn(nv)])
	}
	return q
}

func TestIntegrationEngineVsAPQ(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	executed := 0
	defer func() {
		if executed < 20 {
			t.Errorf("only %d of 40 samples translated within budget", executed)
		}
	}()
	for trial := 0; trial < 40; trial++ {
		q := randomPaperQuery(rng, 3+rng.Intn(2), 2+rng.Intn(3))
		apq, err := rewrite.TranslateCQ(q, rewrite.Options{MaxQueries: 1 << 14})
		if err != nil {
			continue // blowup budget exceeded: skip this sample
		}
		executed++
		if !apq.IsAcyclic() {
			t.Fatalf("trial %d: APQ not acyclic for %s", trial, q)
		}
		pq := MustPrepare(q)
		for sub := 0; sub < 8; sub++ {
			tr := tree.Random(rng, tree.RandomConfig{
				Nodes: 1 + rng.Intn(10), MaxChildren: 3,
				Alphabet: []string{"A", "B", "C"},
			})
			want, _ := pq.BoolErr(Index(tr))
			got := apq.EvalBoolean(tr)
			if want != got {
				t.Fatalf("trial %d: engine %v, APQ %v\nquery %s\nAPQ %s\ntree %s",
					trial, want, got, q, apq, tr)
			}
		}
	}
}

func TestIntegrationMonadicXPathAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7 * 13))
	for trial := 0; trial < 25; trial++ {
		q := randomPaperQuery(rng, 3, 2+rng.Intn(2))
		q.SetHead(cq.Var(rng.Intn(q.NumVars())))
		apq, err := rewrite.TranslateCQ(q, rewrite.Options{MaxQueries: 1 << 14})
		if err != nil {
			continue
		}
		exprs, err := xpath.FromAPQ(apq)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for sub := 0; sub < 5; sub++ {
			tr := tree.Random(rng, tree.RandomConfig{
				Nodes: 1 + rng.Intn(10), MaxChildren: 3,
				Alphabet: []string{"A", "B", "C"},
			})
			want := map[tree.NodeID]bool{}
			for _, v := range EvaluateNodes(tr, q) {
				want[v] = true
			}
			got := map[tree.NodeID]bool{}
			for _, e := range exprs {
				for _, v := range xpath.EvalFromRoot(tr, e) {
					got[v] = true
				}
			}
			if len(want) != len(got) {
				t.Fatalf("trial %d: CQ %d nodes, XPath %d\nquery %s\ntree %s",
					trial, len(want), len(got), q, tr)
			}
			for v := range want {
				if !got[v] {
					t.Fatalf("trial %d: node %d missing from XPath union", trial, v)
				}
			}
		}
	}
}

func TestIntegrationStructuralLabels(t *testing.T) {
	// The Gottlob-Koch FirstChild extension through the public pipeline:
	// structural labels behave like ordinary unary relations everywhere.
	base := MustParseTree("A(B(D,E),C)")
	tr := tree.WithStructuralLabels(base)
	q := MustParseQuery("Q(x) <- @first(x), Child(p, x), A(p)")
	got := EvaluateNodes(tr, q)
	if len(got) != 1 || !tr.HasLabel(got[0], "B") {
		t.Fatalf("first child of A should be B: %v", got)
	}
	leafQ := MustParseQuery("Q(x) <- @leaf(x), Following(w, x), @first(w)")
	if n := len(EvaluateNodes(tr, leafQ)); n == 0 {
		t.Errorf("structural-label query with Following found nothing")
	}
	// Structural labels survive the APQ translation.
	apq, err := ToAPQ(leafQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(apq.EvalAll(tr)) != len(EvaluateNodes(tr, leafQ)) {
		t.Errorf("APQ route disagrees on structural labels")
	}
}

func TestIntegrationDichotomyGuidesStrategy(t *testing.T) {
	// Every random paper-axes query gets a plan consistent with its
	// classification: tractable signatures never fall to backtracking
	// unless the query is cyclic AND intractable.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		q := randomPaperQuery(rng, 3, 2+rng.Intn(3))
		plan := PlanFor(q)
		switch plan.Strategy {
		case core.StrategyAcyclic:
			if cq.Classify(q) != cq.Acyclic {
				t.Fatalf("acyclic strategy for non-acyclic query %s", q)
			}
		case core.StrategyXProperty:
			if plan.Classification.Complexity != core.PTime {
				t.Fatalf("x-property strategy for intractable signature %s", q)
			}
		case core.StrategyBacktrack:
			if cq.Classify(q) == cq.Acyclic || plan.Classification.Complexity == core.PTime {
				t.Fatalf("backtracking chosen needlessly for %s", q)
			}
		}
	}
}
