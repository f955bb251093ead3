package treebank

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/rewrite"
	"repro/internal/tree"
)

// evalAll is the suite's one-shot answer evaluation: prepare q, index t,
// and enumerate the sorted answer relation.
func evalAll(t *tree.Tree, q *cq.Query) [][]tree.NodeID {
	out, err := core.MustPrepare(q).AllDoc(core.NewDocument(t), core.EnumOptions{})
	if err != nil {
		panic(err)
	}
	return out
}

// evalNodes is evalAll for a monadic query's sorted answer node set.
func evalNodes(t *tree.Tree, q *cq.Query) []tree.NodeID {
	out, err := core.MustPrepare(q).MonadicDoc(core.NewDocument(t), core.EnumOptions{})
	if err != nil {
		panic(err)
	}
	return out
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Sentences: 10, MaxDepth: 5, Seed: 7})
	b := Generate(Config{Sentences: 10, MaxDepth: 5, Seed: 7})
	if !a.Combined.Equal(b.Combined) {
		t.Errorf("same seed should give the same corpus")
	}
	c := Generate(Config{Sentences: 10, MaxDepth: 5, Seed: 8})
	if a.Combined.Equal(c.Combined) {
		t.Errorf("different seeds should differ")
	}
}

func TestCorpusShape(t *testing.T) {
	corpus := Generate(DefaultConfig())
	if len(corpus.Sentences) != 64 {
		t.Fatalf("want 64 sentences")
	}
	for _, s := range corpus.Sentences {
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid sentence tree: %v", err)
		}
		if !s.HasLabel(s.Root(), "S") {
			t.Errorf("sentence root should be S")
		}
	}
	st := corpus.Summarize()
	if st.Nodes < 64*4 {
		t.Errorf("suspiciously small corpus: %+v", st)
	}
	if st.NPCount == 0 || st.PPCount == 0 {
		t.Errorf("corpus lacks NPs or PPs: %+v", st)
	}
}

func TestFigure1QueryOnCorpus(t *testing.T) {
	// Fig. 1: prepositional phrases following noun phrases within the
	// same sentence. Evaluate on the combined corpus tree and sanity-
	// check every reported PP.
	corpus := Generate(Config{Sentences: 30, MaxDepth: 6, Seed: 3})
	q := rewrite.Figure1Query()
	answers := evalNodes(corpus.Combined, q)
	tr := corpus.Combined
	for _, z := range answers {
		if !tr.HasLabel(z, "PP") {
			t.Fatalf("answer %d is not a PP", z)
		}
	}
	// Cross-check against the brute-force oracle on a small sub-corpus.
	small := Generate(Config{Sentences: 1, MaxDepth: 4, Seed: 5})
	if small.Combined.Len() < 40 {
		want := core.ReferenceEvalAll(small.Combined, q)
		got := evalAll(small.Combined, q)
		if len(want) != len(got) {
			t.Fatalf("oracle %d answers, engine %d", len(want), len(got))
		}
	}
}

func TestFigure1PlanIsBacktrackOrRewrite(t *testing.T) {
	// The Fig. 1 query is cyclic over an NP-hard signature — the engine
	// must pick the general strategy.
	q := rewrite.Figure1Query()
	plan := core.MustPrepare(q).Plan()
	if plan.Strategy != core.StrategyBacktrack {
		t.Errorf("plan = %v, want backtracking", plan.Strategy)
	}
	if plan.Classification.Complexity != core.NPComplete {
		t.Errorf("signature should classify NP-complete")
	}
}

func TestCorpusQueriesMatchOracle(t *testing.T) {
	corpus := Generate(Config{Sentences: 2, MaxDepth: 4, Seed: 11})
	tr := corpus.Combined
	if tr.Len() > 60 {
		t.Skip("corpus too large for the oracle")
	}
	queries := []string{
		"Q(x) <- NP(x), Child+(s, x), S(s)",
		"Q(x) <- PP(x), Child(n, x), NP(n)",
		"Q() <- VP(v), Following(n, v), NP(n)",
	}
	for _, src := range queries {
		q := cq.MustParse(src)
		want := core.ReferenceEvalAll(tr, q)
		got := evalAll(tr, q)
		if len(want) != len(got) {
			t.Errorf("%s: oracle %d, engine %d", src, len(want), len(got))
		}
	}
}
