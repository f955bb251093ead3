package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/tree"
)

// acyclicBenchQueries are the semijoin-program shapes of
// BenchmarkAcyclicChain: a Boolean 5-variable Child chain (four steps),
// the same chain with a NextSibling+ tail, and the benchmark corpus's
// monadic ac_nodes query.
var acyclicBenchQueries = []struct{ name, src string }{
	{"chain", "Q() <- A(x0), Child(x0, x1), A(x1), Child(x1, x2), A(x2), Child(x2, x3), A(x3), Child(x3, x4), A(x4)"},
	{"chain_tail", "Q() <- A(x0), Child(x0, x1), A(x1), Child(x1, x2), A(x2), Child(x2, x3), A(x3), Child(x3, x4), A(x4), NextSibling+(x4, x5), B(x5)"},
	{"nodes", "Q(y) <- A(x), Child+(x, y), B(y)"},
}

// BenchmarkAcyclicChain times the acyclic strategy's bottom-up semijoin
// pass (plus, for the monadic query, streaming the reduced head set) on
// tree.Random trees of 4k, 16k and 64k nodes. Every revise costs
// O(n/64 + |dom|), so the time per evaluation should grow about linearly
// with n. The 4k tree holds neither chain (answers/op 0), so there the
// pass stops at the first emptied domain. Before timing, each leg's
// answer is checked at every n: a Boolean one against FastAC (arc
// consistency decides acyclic queries), the monadic one against the
// ordered pinned descent.
func BenchmarkAcyclicChain(b *testing.B) {
	for _, bq := range acyclicBenchQueries {
		p := MustPrepare(cq.MustParse(bq.src))
		if p.Plan().Strategy != StrategyAcyclic {
			b.Fatalf("%s: strategy %v, want acyclic", bq.name, p.Plan().Strategy)
		}
		boolean := len(p.Query().Head) == 0
		for _, n := range []int{4000, 16000, 64000} {
			d := NewDocument(tree.Random(rand.New(rand.NewSource(1)), tree.DefaultRandomConfig(n)))
			if boolean {
				sat, _ := p.BoolDoc(d, EnumOptions{})
				if want := newEvalScratch().ac.FastACPreIx(d.ix, p.Query()); sat != want {
					b.Fatalf("%s/n=%d: BoolDoc %v, FastAC %v", bq.name, n, sat, want)
				}
			} else {
				var got, want []tree.NodeID
				p.ForEachNodeDoc(d, EnumOptions{}, func(v tree.NodeID) bool {
					got = append(got, v)
					return true
				})
				orderedDescent(d, p.Query(), newEvalScratch(), EnumOptions{Order: []OrderDir{OrderAsc}}, nil, func(tuple []tree.NodeID) bool {
					want = append(want, tuple[0])
					return true
				})
				slices.Sort(got)
				slices.Sort(want)
				if len(want) == 0 || !slices.Equal(got, want) {
					b.Fatalf("%s/n=%d: the stream gives %d nodes, the ordered descent %d (or they differ)", bq.name, n, len(got), len(want))
				}
			}
			b.Run(fmt.Sprintf("%s/n=%d", bq.name, n), func(b *testing.B) {
				answers := 0
				for i := 0; i < b.N; i++ {
					if boolean {
						if sat, _ := p.BoolDoc(d, EnumOptions{}); sat {
							answers++
						}
						continue
					}
					p.ForEachNodeDoc(d, EnumOptions{}, func(tree.NodeID) bool {
						answers++
						return true
					})
				}
				b.ReportMetric(float64(answers)/float64(b.N), "answers/op")
			})
		}
	}
}

// acyclicTupleQueries are the tuple-stream shapes of
// BenchmarkAcyclicTuples: the benchmark corpus's st_tuples and ac_tuples,
// its inline NextSibling template, a Following shape (x and y restricted
// by non-head branches, so that the quadratic axis keeps the answer count
// in hand), and a projected chain, whose
// walk holds the non-head y and so runs through the dedup set.
var acyclicTupleQueries = []struct{ name, src string }{
	{"st_tuples", "Q(x, y) <- A(x), Child+(x, y), E(y)"},
	{"ac_tuples", "Q(x, y) <- C(x), Child(x, y), D(y)"},
	{"nextsibling", "Q(x, y) <- A(x), NextSibling(x, y), B(y)"},
	{"following", "Q(x, y) <- A(x), Child(x, u), A(u), Child(u, v), A(v), Following(x, y), B(y), Child(y, w), B(w)"},
	{"projected", "Q(x, z) <- A(x), Child+(x, y), B(y), Child+(y, z), C(z)"},
}

// BenchmarkAcyclicTuples times unordered acyclic tuple streams (the
// bottom-up semijoin pass plus the walk over the reduced domains) on
// tree.Random trees of 4k, 16k and 64k nodes, reporting answers/op and
// ns/answer.
// Each walk step visits only its parent value's axis image, so ns/answer
// should stay about flat as the tree grows. On the 4k tree each stream's
// answer count is checked against the ordered descent's.
func BenchmarkAcyclicTuples(b *testing.B) {
	for _, bq := range acyclicTupleQueries {
		p := MustPrepare(cq.MustParse(bq.src))
		if p.Plan().Strategy != StrategyAcyclic {
			b.Fatalf("%s: strategy %v, want acyclic", bq.name, p.Plan().Strategy)
		}
		for _, n := range []int{4000, 16000, 64000} {
			d := NewDocument(tree.Random(rand.New(rand.NewSource(1)), tree.DefaultRandomConfig(n)))
			count := func(o EnumOptions) int {
				answers := 0
				p.ForEachTupleDoc(d, o, func([]tree.NodeID) bool {
					answers++
					return true
				})
				return answers
			}
			if n == 4000 {
				if got, want := count(EnumOptions{}), count(EnumOptions{Order: []OrderDir{OrderAsc, OrderAsc}}); got != want {
					b.Fatalf("%s/n=%d: %d answers, the ordered descent gives %d", bq.name, n, got, want)
				}
			}
			b.Run(fmt.Sprintf("%s/n=%d", bq.name, n), func(b *testing.B) {
				answers := 0
				for i := 0; i < b.N; i++ {
					answers += count(EnumOptions{})
				}
				b.ReportMetric(float64(answers)/float64(b.N), "answers/op")
				if answers > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(answers), "ns/answer")
				}
			})
		}
	}
}

// BenchmarkAcyclicPages times one page of perfbench's page query (100
// tuples, asked with a limit of 101 as a paginated request probes one
// past the page) at pages 1 and 8, under the orders (asc, asc) and
// (desc, asc), on tree.Random trees of 4k, 16k and 64k nodes. Page 8
// resumes after page 7's last tuple, as a cursor does. A resume seeks
// straight to the recorded ranks, so page 8 should cost about what page
// 1 costs, and neither should grow much faster than the tree.
func BenchmarkAcyclicPages(b *testing.B) {
	const pageSize = 100
	p := MustPrepare(cq.MustParse("Q(x, y) <- B(x), Child+(x, y)"))
	for _, n := range []int{4000, 16000, 64000} {
		tr := tree.Random(rand.New(rand.NewSource(1)), tree.DefaultRandomConfig(n))
		d := NewDocument(tr)
		for _, dirs := range [][]OrderDir{{OrderAsc, OrderAsc}, {OrderDesc, OrderAsc}} {
			// The resume point of page 8: the 700th tuple of the stream.
			var after []int32
			p.ForEachTupleDoc(d, EnumOptions{Order: dirs, Limit: 7 * pageSize}, func(tuple []tree.NodeID) bool {
				after = []int32{tr.Pre(tuple[0]), tr.Pre(tuple[1])}
				return true
			})
			name := fmt.Sprintf("%s_%s", dirName(dirs[0]), dirName(dirs[1]))
			for _, page := range []int{1, 8} {
				o := EnumOptions{Order: dirs, Limit: pageSize + 1}
				if page == 8 {
					o.After = after
				}
				b.Run(fmt.Sprintf("%s/page=%d/n=%d", name, page, n), func(b *testing.B) {
					tuples := 0
					for i := 0; i < b.N; i++ {
						p.ForEachTupleDoc(d, o, func([]tree.NodeID) bool {
							tuples++
							return true
						})
					}
					if tuples != b.N*(pageSize+1) {
						b.Fatalf("%d tuples in %d pages, want %d a page", tuples, b.N, pageSize+1)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/page")
				})
			}
		}
	}
}

func dirName(d OrderDir) string {
	if d == OrderDesc {
		return "desc"
	}
	return "asc"
}
