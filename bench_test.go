package cqtrees

// Benchmark harness: one benchmark family per table and figure of the
// paper (see DESIGN.md §2 and EXPERIMENTS.md for the index and the
// measured shapes).
//
//	Table I  -> BenchmarkTableIPolyScaling, BenchmarkTableINPHardness,
//	            BenchmarkTableIStrategies
//	Table II -> BenchmarkTheorem52Reduction (machine-computed NANDs)
//	Fig. 1   -> BenchmarkFig1Treebank
//	Fig. 2   -> BenchmarkXPropertyCheck
//	Fig. 4   -> BenchmarkTheorem51Reduction
//	Fig. 8   -> BenchmarkRewriteFig8
//	Fig. 9   -> BenchmarkSuccinctnessBlowup
//	ablations: BenchmarkACEngines, BenchmarkMACAblation,
//	            BenchmarkAxisHoldsVsMaterialized
import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/onethree"
	"repro/internal/rewrite"
	"repro/internal/succinct"
	"repro/internal/tree"
	"repro/internal/treebank"
	"repro/internal/xprop"
)

// benchQuery builds a random Boolean query over the given axes.
func benchQuery(rng *rand.Rand, axes []axis.Axis, nv, na int) *cq.Query {
	q := cq.New()
	vars := make([]cq.Var, nv)
	for i := range vars {
		vars[i] = q.AddVar(fmt.Sprintf("v%d", i))
	}
	for i := 0; i < na; i++ {
		x := rng.Intn(nv)
		y := rng.Intn(nv)
		if x == y { // avoid self-loops: irreflexive self-atoms degenerate
			y = (y + 1) % nv
		}
		q.AddAtom(axes[rng.Intn(len(axes))], vars[x], vars[y])
	}
	q.AddLabel("A", vars[0])
	return q
}

// BenchmarkTableIPolyScaling measures the Theorem 3.5 engine on the three
// maximal tractable signatures across growing trees: the paper's claim is
// O(‖A‖·|Q|), so time per evaluation should grow near-linearly with n. A
// Boolean X-property decision is one maximal arc-consistency run against
// the document's tree index.
func BenchmarkTableIPolyScaling(b *testing.B) {
	sigs := map[string][]axis.Axis{
		"VerticalClosure": {axis.ChildPlus, axis.ChildStar},
		"Following":       {axis.Following},
		"ChildSibling":    {axis.Child, axis.NextSibling, axis.NextSiblingPlus, axis.NextSiblingStar},
	}
	for name, sig := range sigs {
		for _, n := range []int{500, 1000, 2000, 4000} {
			b.Run(fmt.Sprintf("sig=%s/n=%d", name, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				ix := consistency.NewTreeIndex(tree.Random(rng, tree.DefaultRandomConfig(n)))
				q := benchQuery(rng, sig, 6, 8)
				sc := consistency.NewScratch()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sc.FastACIx(ix, q)
				}
			})
		}
	}
}

// BenchmarkTableINPHardness demonstrates the hardness side: on the fixed
// Theorem 5.1 tree, backtracking effort on the reduction queries grows
// with the instance, and unsatisfiable instances are the worst case. The
// search-step metric is reported per evaluation.
func BenchmarkTableINPHardness(b *testing.B) {
	t := onethree.Theorem51Tree()
	for _, k := range []int{4, 5} {
		// Unsatisfiable family: all 3-subsets of k variables force
		// refutation (3·#true ≠ clause count under exactly-one).
		ins := &onethree.Instance{NumVars: k}
		for a := 0; a < k; a++ {
			for bb := a + 1; bb < k; bb++ {
				for c := bb + 1; c < k; c++ {
					ins.Clauses = append(ins.Clauses, onethree.Clause{a, bb, c})
				}
			}
		}
		if ins.Satisfiable() {
			b.Fatal("hardness family must be unsatisfiable")
		}
		q := onethree.Theorem51Query(ins, false)
		for _, mode := range []string{"mac", "forward-checking"} {
			b.Run(fmt.Sprintf("vars=%d/%s", k, mode), func(b *testing.B) {
				engine := core.NewBacktrackEngine()
				engine.Propagate = mode == "mac"
				// Plain forward checking explodes (>50M search steps on
				// vars=4): cap the budget and report steps — the capped
				// metric still exhibits the exponential-vs-poly contrast.
				engine.MaxSteps = 1_000_000
				steps := 0
				for i := 0; i < b.N; i++ {
					func() {
						defer func() {
							if r := recover(); r != nil && r != core.ErrSearchBudget {
								panic(r)
							}
						}()
						engine.EvalBoolean(t, q)
					}()
					steps += engine.Steps()
				}
				b.ReportMetric(float64(steps)/float64(b.N), "search-steps/op")
				b.ReportMetric(float64(q.Size()), "query-atoms")
			})
		}
	}
}

// BenchmarkTableIStrategies compares the three strategies on a tractable
// acyclic query — the "who wins" comparison: Yannakakis and the
// X-property engine must beat backtracking. The first two evaluate
// against one tree index (the X-property Boolean decision is one maximal
// arc-consistency run, Theorem 3.5); the backtracking engine's *Tree
// entry point indexes the tree on every call, which its timing includes.
func BenchmarkTableIStrategies(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	t := tree.Random(rng, tree.DefaultRandomConfig(2000))
	doc := Index(t)
	q := cq.MustParse("Q() <- A(x), Child+(x, y), B(y), Child+(y, z), C(z)")
	b.Run("acyclic-yannakakis", func(b *testing.B) {
		pq := MustPrepare(q)
		if pq.Plan().Strategy != core.StrategyAcyclic {
			b.Fatalf("plan %v, want the acyclic strategy", pq.Plan())
		}
		for i := 0; i < b.N; i++ {
			pq.BoolErr(doc)
		}
	})
	b.Run("x-property", func(b *testing.B) {
		ix, sc := consistency.NewTreeIndex(t), consistency.NewScratch()
		for i := 0; i < b.N; i++ {
			sc.FastACIx(ix, q)
		}
	})
	b.Run("backtracking", func(b *testing.B) {
		e := core.NewBacktrackEngine()
		for i := 0; i < b.N; i++ {
			e.EvalBoolean(t, q)
		}
	})
}

// BenchmarkTheorem52Reduction (Table II / Fig. 5): building the τ6 gadget
// (with machine-computed NAND distances) and deciding encoded instances.
func BenchmarkTheorem52Reduction(b *testing.B) {
	b.Run("build-gadget", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := onethree.BuildTheorem52(); err != nil {
				b.Fatal(err)
			}
		}
	})
	g := onethree.MustBuildTheorem52()
	for _, m := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("decide/clauses=%d", m), func(b *testing.B) {
			ins := &onethree.Instance{NumVars: m + 2}
			for i := 0; i < m; i++ {
				ins.Clauses = append(ins.Clauses, onethree.Clause{i, i + 1, i + 2})
			}
			q := g.Theorem52Query(ins)
			engine := core.NewBacktrackEngine()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.EvalBoolean(g.Tree, q)
			}
			b.ReportMetric(float64(q.Size()), "query-atoms")
		})
	}
}

// BenchmarkFig1Treebank evaluates the Fig. 1 linguistics query on the
// synthetic corpus, comparing direct (backtracking) evaluation with the
// translate-then-evaluate-acyclic strategy the paper recommends in §1.1.
func BenchmarkFig1Treebank(b *testing.B) {
	corpus := treebank.Generate(treebank.Config{Sentences: 96, MaxDepth: 6, Seed: 1})
	q := rewrite.Figure1Query()
	b.Run("direct-backtracking", func(b *testing.B) {
		e := core.NewBacktrackEngine()
		for i := 0; i < b.N; i++ {
			e.EvalAll(corpus.Combined, q)
		}
	})
	b.Run("via-apq", func(b *testing.B) {
		apq, err := rewrite.TranslateCQ(q, rewrite.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			apq.EvalAll(corpus.Combined)
		}
	})
}

// BenchmarkXPropertyCheck (Fig. 2): brute-force X-property verification
// on growing trees for the Theorem 4.1 axis/order pairs.
func BenchmarkXPropertyCheck(b *testing.B) {
	for _, n := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			t := tree.Random(rng, tree.DefaultRandomConfig(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := xprop.Check(t, axis.ChildPlus, axis.PreOrder); !ok {
					b.Fatal("Child+ must be X w.r.t. <pre")
				}
			}
		})
	}
}

// BenchmarkTheorem51Reduction (Fig. 4): end-to-end reduction pipeline —
// encode a 1-in-3 3SAT instance and decide it on the fixed tree.
func BenchmarkTheorem51Reduction(b *testing.B) {
	t := onethree.Theorem51Tree()
	rng := rand.New(rand.NewSource(10))
	for _, m := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("clauses=%d", m), func(b *testing.B) {
			ins := onethree.Random(rng, m+2, m)
			engine := core.NewBacktrackEngine()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := onethree.Theorem51Query(ins, false)
				engine.EvalBoolean(t, q)
			}
		})
	}
}

// BenchmarkRewriteFig8: the Theorem 6.10 translation of the introduction
// query (Fig. 8's walkthrough) and of the Fig. 1 query.
func BenchmarkRewriteFig8(b *testing.B) {
	b.Run("intro-query", func(b *testing.B) {
		q := rewrite.IntroQuery()
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.TranslateCQ(q, rewrite.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fig1-query", func(b *testing.B) {
		q := rewrite.Figure1Query()
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.TranslateCQ(q, rewrite.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSuccinctnessBlowup (Fig. 9 / Thm 7.1): the diamond family's
// APQ sizes, reported as metrics — the shape must be exponential in n.
func BenchmarkSuccinctnessBlowup(b *testing.B) {
	for n := 1; n <= 4; n++ {
		b.Run(fmt.Sprintf("D%d", n), func(b *testing.B) {
			d := succinct.Diamond(n)
			var atoms, disjuncts int
			for i := 0; i < b.N; i++ {
				apq, err := rewrite.RewriteToAPQ(d, rewrite.Options{})
				if err != nil {
					b.Fatal(err)
				}
				atoms, disjuncts = apq.Size(), len(apq.Disjuncts)
			}
			b.ReportMetric(float64(atoms), "apq-atoms")
			b.ReportMetric(float64(disjuncts), "apq-disjuncts")
			b.ReportMetric(float64(d.Size()), "cq-atoms")
		})
	}
}

// BenchmarkMACAblation (ablation): backtracking with and without
// arc-consistency maintenance on a reduction query.
func BenchmarkMACAblation(b *testing.B) {
	t := onethree.Theorem51Tree()
	ins := &onethree.Instance{NumVars: 5, Clauses: []onethree.Clause{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}}}
	q := onethree.Theorem51Query(ins, false)
	b.Run("mac", func(b *testing.B) {
		e := core.NewBacktrackEngine()
		for i := 0; i < b.N; i++ {
			e.EvalBoolean(t, q)
		}
	})
	b.Run("forward-checking", func(b *testing.B) {
		e := core.NewBacktrackEngine()
		e.Propagate = false
		for i := 0; i < b.N; i++ {
			e.EvalBoolean(t, q)
		}
	})
}

// BenchmarkAxisHoldsVsMaterialized (ablation): O(1) interval-based axis
// tests versus lookups in a materialized relation.
func BenchmarkAxisHoldsVsMaterialized(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	t := tree.Random(rng, tree.DefaultRandomConfig(1000))
	n := tree.NodeID(t.Len())
	b.Run("interval-check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := tree.NodeID(i) % n
			v := tree.NodeID(i*7) % n
			axis.Holds(t, axis.ChildPlus, u, v)
		}
	})
	b.Run("materialized-lookup", func(b *testing.B) {
		pairs := axis.Pairs(t, axis.ChildPlus)
		set := make(map[[2]tree.NodeID]bool, len(pairs))
		for _, p := range pairs {
			set[p] = true
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := tree.NodeID(i) % n
			v := tree.NodeID(i*7) % n
			_ = set[[2]tree.NodeID{u, v}]
		}
	})
}

// BenchmarkEvaluateFacade exercises the public API end to end.
func BenchmarkEvaluateFacade(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	t := tree.Random(rng, tree.DefaultRandomConfig(1500))
	q := MustParseQuery("Q(y) <- A(x), Child+(x, y), B(y)")
	for i := 0; i < b.N; i++ {
		EvaluateAll(t, q)
	}
}

// BenchmarkPreparedVsOneShot measures the prepare/execute split: the
// prepared eval-many path against one Document versus paying
// classification, planning, tree indexing and evaluation-state allocation
// on every call (EvaluateAll). Allocations per evaluation are the headline
// metric — the prepared path reuses pooled domain tables, semijoin buffers
// and the document's tree indexes.
func BenchmarkPreparedVsOneShot(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	big := tree.Random(rng, tree.DefaultRandomConfig(1500))
	small := tree.Random(rng, tree.DefaultRandomConfig(200))
	cases := []struct {
		name string
		src  string
		tr   *Tree
	}{
		{"acyclic", "Q(y) <- A(x), Child+(x, y), B(y)", big},
		{"xproperty", "Q() <- A(x), Child+(x, y), B(y), Child*(y, z), Child+(x, z)", big},
		{"backtrack", "Q(y) <- A(x), Child(x, y), B(y), Child+(x, z), C(z), Following(y, z)", small},
	}
	for _, c := range cases {
		q := MustParseQuery(c.src)
		b.Run(c.name+"/oneshot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Re-classify, re-plan, re-index and re-allocate state
				// every time.
				EvaluateAll(c.tr, q)
			}
		})
		b.Run(c.name+"/prepared", func(b *testing.B) {
			pq, doc := MustPrepare(q), Index(c.tr)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pq.AllErr(doc)
			}
		})
	}
	// The server shape: one prepared query, many goroutines, many trees.
	pq := MustCompile("Q(y) <- A(x), Child+(x, y), B(y)")
	docs := []*Document{Index(big), Index(tree.Random(rng, tree.DefaultRandomConfig(1000)))}
	b.Run("acyclic/prepared-parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				pq.AllErr(docs[i%len(docs)])
				i++
			}
		})
	})
}
