package cqtrees

// BenchmarkEnumeration: output-sensitive answer enumeration. The workload
// controls the answer-set size independently of the tree size — the paper's
// bound below Theorem 3.5 is O(|A|^k · ‖A‖ · |Q|) (candidate-space
// sensitive), while the streaming enumerator's cost should track the answer
// count: one shared arc-consistency pass, then per answer one exclusion
// of Lemma 3.4's min-delete loop.
//
// Variants:
//
//	pertuple-AC   the per-candidate cost model — one FastAC pass, then a
//	              from-scratch pinned arc-consistency run per candidate
//	              (Scratch.PinnedFastACIx against one TreeIndex),
//	              rebuilding domains each time.
//	stream        PreparedQuery.NodeSeq (the min-delete loop over the
//	              shared maximal prevaluation: emit the head's minimum,
//	              exclude it, restore arc consistency).
//	materialize   PreparedQuery.NodesErr.
//	first-answer  NodeSeq with an immediate break — the early-exit
//	              price of an existence-style query.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/tree"
)

// enumBenchTree builds a random-shape tree with exactly `answers` answer
// nodes for enumBenchQuery: the root is labeled A, `answers` distinct
// non-root nodes are labeled B and given a C-labeled child.
func enumBenchTree(rng *rand.Rand, n, answers int) *Tree {
	b := tree.NewBuilder(n + answers)
	nodes := make([]NodeID, 0, n)
	nodes = append(nodes, b.AddNode(tree.NilNode, "A"))
	for i := 1; i < n; i++ {
		nodes = append(nodes, b.AddNode(nodes[rng.Intn(len(nodes))], "D"))
	}
	for _, pi := range rng.Perm(n - 1)[:answers] {
		v := nodes[1+pi]
		b.AddLabel(v, "B")
		b.AddNode(v, "C")
	}
	return b.Build()
}

// enumBenchQuery is monadic and cyclic (triangle x-y-z) over {Child+}, so
// it evaluates under the X-property strategy: answers are the B-labeled
// nodes with a C-labeled descendant and a proper A-labeled ancestor.
const enumBenchQuery = "Q(y) <- A(x), Child+(x, y), B(y), Child+(y, z), C(z), Child+(x, z)"

func BenchmarkEnumeration(b *testing.B) {
	for _, cfg := range []struct{ n, answers int }{
		{2000, 4},
		{8000, 4},
		{8000, 64},
		{8000, 1024},
	} {
		rng := rand.New(rand.NewSource(int64(cfg.n + cfg.answers)))
		tr := enumBenchTree(rng, cfg.n, cfg.answers)
		q := MustParseQuery(enumBenchQuery)
		pq := MustPrepare(q)
		if pq.Plan().Strategy != core.StrategyXProperty {
			b.Fatalf("benchmark query must hit the X-property strategy, got %v", pq.Plan())
		}
		doc := Index(tr)
		if got := len(nodesOf(b, pq, doc)); got != cfg.answers {
			b.Fatalf("planted %d answers, query found %d", cfg.answers, got)
		}
		name := fmt.Sprintf("n=%d/answers=%d", cfg.n, cfg.answers)

		b.Run(name+"/pertuple-AC", func(b *testing.B) {
			ix, sc := consistency.NewTreeIndex(tr), consistency.NewScratch()
			y := q.Head[0]
			for i := 0; i < b.N; i++ {
				p, ok := consistency.FastAC(tr, q)
				if !ok {
					b.Fatal("unsatisfiable")
				}
				count := 0
				p.Sets[y].ForEach(func(v NodeID) bool {
					if _, ok := sc.PinnedFastACIx(ix, q, q.Head, []NodeID{v}); ok {
						count++
					}
					return true
				})
				if count != cfg.answers {
					b.Fatalf("count = %d", count)
				}
			}
		})
		b.Run(name+"/stream", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				count := 0
				for range pq.NodeSeq(doc) {
					count++
				}
				if count != cfg.answers {
					b.Fatalf("count = %d", count)
				}
			}
		})
		b.Run(name+"/materialize", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := nodesOf(b, pq, doc); len(got) != cfg.answers {
					b.Fatalf("count = %d", len(got))
				}
			}
		})
		b.Run(name+"/first-answer", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				found := false
				for range pq.NodeSeq(doc) {
					found = true
					break
				}
				if !found {
					b.Fatal("no answer")
				}
			}
		})
	}

	// A binary-head slice of the same workload: prefix pruning must keep
	// k-ary enumeration near the answer count as well.
	rng := rand.New(rand.NewSource(99))
	tr := enumBenchTree(rng, 4000, 16)
	q := MustParseQuery("Q(y, z) <- A(x), Child+(x, y), B(y), Child+(y, z), C(z), Child+(x, z)")
	pq := MustPrepare(q)
	doc := Index(tr)
	want := len(allOf(b, pq, doc))
	b.Run("pair/n=4000/stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count := 0
			// The zero-copy engine stream (Tuples yields owned copies).
			pq.p.ForEachTupleDoc(doc, core.EnumOptions{}, func([]NodeID) bool {
				count++
				return true
			})
			if count != want {
				b.Fatalf("count = %d, want %d", count, want)
			}
		}
	})
}
