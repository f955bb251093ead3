package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/tree"
)

// BenchmarkBacktrackMonadic runs the MAC search of the benchmark's
// bt_nodes query (a cyclic Child/NextSibling+/Child+ triangle, outside
// every tractable signature) over growing trees and reports the time per
// answer and the search steps. Steps and answers both grow about linearly
// with n (30 and 496 steps at 4k and 64k nodes), so ns/answer tracks the
// cost of one step: O(n/64) word copies per pinned level today, and a
// factor ~64 worse per step on a return to per-step O(n) domain setup.
func BenchmarkBacktrackMonadic(b *testing.B) {
	q := cq.MustParse(btGoldenQueries[0].src)
	for _, n := range []int{4000, 16000, 64000} {
		tr := tree.Random(rand.New(rand.NewSource(1)), tree.DefaultRandomConfig(n))
		d := NewDocument(tr)
		e := NewBacktrackEngine()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			answers := 0
			for i := 0; i < b.N; i++ {
				e.forEachTuple(d, q, nil, func([]tree.NodeID) bool {
					answers++
					return true
				})
			}
			if answers == 0 {
				b.Fatal("benchmark query must have answers")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(answers), "ns/answer")
			b.ReportMetric(float64(e.Steps()), "steps")
		})
	}
}
