package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/tree"
)

// xpNodesQuery is the benchmark corpus's xp_nodes query: a cyclic
// triangle over {Child+, Child*}, evaluated by the X-property strategy.
const xpNodesQuery = "Q(z) <- A(x), Child+(x, y), B(y), Child*(y, z), C(z), Child+(x, z)"

// BenchmarkXPropNodes times the unordered node stream of xp_nodes on
// tree.Random trees of 4k, 16k and 64k nodes and reports ns/answer. The
// stream is one FastAC run and then the Lemma 3.4 min-delete loop: emit
// the head's minimum, exclude it, restore arc consistency by rechecking
// only what the removals could have supported. Answers grow about
// linearly with n, so ns/answer should stay about flat. Before timing,
// each tree's answer set is checked against the ordered pinned descent.
func BenchmarkXPropNodes(b *testing.B) {
	p := MustPrepare(cq.MustParse(xpNodesQuery))
	if p.Plan().Strategy != StrategyXProperty {
		b.Fatalf("strategy %v, want X-property", p.Plan().Strategy)
	}
	for _, n := range []int{4000, 16000, 64000} {
		d := NewDocument(tree.Random(rand.New(rand.NewSource(1)), tree.DefaultRandomConfig(n)))
		collect := func(o EnumOptions) []tree.NodeID {
			var out []tree.NodeID
			p.ForEachNodeDoc(d, o, func(v tree.NodeID) bool {
				out = append(out, v)
				return true
			})
			slices.Sort(out)
			return out
		}
		got, want := collect(EnumOptions{}), collect(EnumOptions{Order: []OrderDir{OrderAsc}})
		if len(want) == 0 || !slices.Equal(got, want) {
			b.Fatalf("n=%d: stream gives %d answers, the ordered descent %d (or they differ)", n, len(got), len(want))
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			answers := 0
			for i := 0; i < b.N; i++ {
				p.ForEachNodeDoc(d, EnumOptions{}, func(tree.NodeID) bool {
					answers++
					return true
				})
			}
			b.ReportMetric(float64(answers)/float64(b.N), "answers/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(answers), "ns/answer")
		})
	}
}
