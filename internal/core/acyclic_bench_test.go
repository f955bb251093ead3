package core

import (
	"fmt"
	"math/rand"
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

// BenchmarkAcyclicChain times the acyclic strategy's two semijoin passes
// (plus, for the monadic query, streaming the reduced head set) on
// tree.Random trees of 4k, 16k and 64k nodes. Every revise costs
// O(n/64 + |dom|), so the time per evaluation should grow about linearly
// with n. The 4k tree holds neither chain (answers/op 0), so there the
// passes stop at the first emptied domain.
func BenchmarkAcyclicChain(b *testing.B) {
	for _, bq := range acyclicBenchQueries {
		p := MustPrepare(cq.MustParse(bq.src))
		if p.Plan().Strategy != StrategyAcyclic {
			b.Fatalf("%s: strategy %v, want acyclic", bq.name, p.Plan().Strategy)
		}
		for _, n := range []int{4000, 16000, 64000} {
			d := NewDocument(tree.Random(rand.New(rand.NewSource(1)), tree.DefaultRandomConfig(n)))
			b.Run(fmt.Sprintf("%s/n=%d", bq.name, n), func(b *testing.B) {
				answers := 0
				for i := 0; i < b.N; i++ {
					if len(p.Query().Head) == 0 {
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
