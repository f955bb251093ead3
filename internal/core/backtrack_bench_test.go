package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/consistency"
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

// BenchmarkBacktrackDeep times MAC on tree.ShapeDeep documents — a spine
// with a leaf hung off one node in five, so nearly every subtree reaches
// the last pre rank — for the corpus's Following queries bt_bool and
// bt_rare (Boolean, 16k and 64k nodes) and for bt_bool with head y
// through the ordered descent (4k nodes: the descent pins every head
// candidate, and its cost grows much faster than n on this shape). Their
// sparse-target Following revises read the support's minimum preEnd off
// its pre words, a scan through the live nodes nested in the first live
// node's subtree, which a spine makes as long as it can be. Before
// timing, each leg's answer is checked to be the same under the probe
// and the kernel revise paths.
func BenchmarkBacktrackDeep(b *testing.B) {
	alphabet := []string{"A", "B", "C", "D", "E"}
	legs := []struct {
		name, src string
		ns        []int
		ordered   bool
	}{
		{"bt_bool", btGoldenQueries[1].src, []int{16000, 64000}, false},
		{"bt_rare", btGoldenQueries[3].src, []int{16000, 64000}, false},
		{"bt_bool_y", "Q(y) <- D(x), Child(x, y), E(y), Child+(x, z), A(z), Following(y, z)", []int{4000}, true},
	}
	for _, leg := range legs {
		p := MustPrepare(cq.MustParse(leg.src))
		if p.Plan().Strategy != StrategyBacktrack {
			b.Fatalf("%s: strategy %v, want backtracking", leg.name, p.Plan().Strategy)
		}
		for _, n := range leg.ns {
			d := NewDocument(tree.RandomWithShape(rand.New(rand.NewSource(1)), n, tree.ShapeDeep, alphabet))
			answers := func() int {
				if !leg.ordered {
					if ok, _ := p.BoolDoc(d, EnumOptions{}); ok {
						return 1
					}
					return 0
				}
				c := 0
				p.ForEachNodeDoc(d, EnumOptions{Order: []OrderDir{OrderAsc}}, func(tree.NodeID) bool {
					c++
					return true
				})
				return c
			}
			consistency.SetKernelPolicy(consistency.KernelNever)
			probe := answers()
			consistency.SetKernelPolicy(consistency.KernelAlways)
			kernel := answers()
			consistency.SetKernelPolicy(consistency.KernelAuto)
			if probe != kernel {
				b.Fatalf("%s n=%d: %d answers on the probe path, %d on the kernel path", leg.name, n, probe, kernel)
			}
			b.Run(fmt.Sprintf("%s/n=%d", leg.name, n), func(b *testing.B) {
				got := 0
				for i := 0; i < b.N; i++ {
					got += answers()
				}
				b.ReportMetric(float64(got)/float64(b.N), "answers/op")
			})
		}
	}
}
