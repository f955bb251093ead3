package consistency

// BenchmarkRevise measures one revise step — "keep v ∈ dom(x) iff some
// w ∈ dom(y) with Axis(v, w)" — through the per-node probe loop (one
// supportedFwd per alive candidate against the support side's bitset
// domain, as the worklist runs it on sparse domains) versus the bulk
// image kernel (preimage + word diff), across tree sizes and support-side
// domain densities. Before any timing, every configuration cross-checks
// the two paths' support counts and fails the benchmark on mismatch — so
// the CI `-benchtime=1x` smoke run doubles as a kernel-vs-oracle check.
//
// scripts/bench.sh runs this family and records the results as
// BENCH_pr4.json, the perf trajectory baseline for later PRs.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/axis"
	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/tree"
)

var benchSink int

// reviseAxes samples every kernel shape: gather/scatter (Child), interval
// merge sweep (Child+), descending interval sweep (Ancestor*), sibling
// segment sweep (NextSibling+), and extremal-rank fill (Following).
var reviseAxes = []axis.Axis{
	axis.Child, axis.ChildPlus, axis.AncestorStar, axis.NextSiblingPlus, axis.Following,
}

func BenchmarkRevise(b *testing.B) {
	for _, n := range []int{2000, 8000, 32000} {
		rng := rand.New(rand.NewSource(int64(n)))
		tr := tree.Random(rng, tree.DefaultRandomConfig(n))
		ix := NewTreeIndex(tr)
		for _, pct := range []int{5, 50, 95} {
			// Support side dom(y): pct% of the nodes alive. The revised side
			// dom(x) is the full node set — the dense case the kernels are
			// for (the probe loop pays one supportedFwd per alive candidate
			// of x either way).
			dySet := NewNodeSet(n)
			for v := 0; v < n; v++ {
				if rng.Intn(100) < pct {
					dySet.Add(tree.NodeID(v))
				}
			}
			if dySet.Empty() {
				dySet.Add(tree.NodeID(rng.Intn(n)))
			}
			// Bind a query over every benchmarked axis, so the domains
			// keep each ordering some probe below reads.
			bq := cq.New()
			bx, by := bq.AddVar("x"), bq.AddVar("y")
			for _, a := range reviseAxes {
				bq.AddAtom(a, bx, by)
			}
			base := &PinBase{}
			base.bind(ix, bq)
			dx, dy := &pinDom{b: base}, &pinDom{b: base}
			dx.pre, dy.pre = preWordsOf(tr, FullNodeSet(n)), preWordsOf(tr, dySet)
			dx.scatterOrders(base, int32(n))
			dy.scatterOrders(base, int32(dySet.Len()))
			sctx := &base.sctx
			img := make([]uint64, bitset.Words(n))

			for _, a := range reviseAxes {
				// Self-check: the kernel support set must match the probe
				// loop node for node.
				preimage(a, ix, dy.pre, img)
				probeSupported := 0
				for v := 0; v < n; v++ {
					if supportedFwd(sctx, a, tree.NodeID(v), dy) {
						probeSupported++
					}
				}
				if kernelSupported := bitset.Count(img); kernelSupported != probeSupported {
					b.Fatalf("axis=%v n=%d density=%d%%: kernel supports %d nodes, probe loop %d",
						a, n, pct, kernelSupported, probeSupported)
				}

				name := fmt.Sprintf("axis=%s/n=%d/density=%d", a, n, pct)
				b.Run(name+"/probe", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						removals := 0
						bitset.ForEach(dx.pre, func(pr int32) bool {
							if !supportedFwd(sctx, a, tr.ByPre(pr), dy) {
								removals++
							}
							return true
						})
						benchSink = removals
					}
				})
				b.Run(name+"/kernel", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						preimage(a, ix, dy.pre, img)
						removals := 0
						for wi := range img {
							removals += bits.OnesCount64(dx.pre[wi] &^ img[wi])
						}
						benchSink = removals
					}
				})
			}
		}
	}
}

// BenchmarkFastACKernels measures the full arc-consistency worklist with
// the revise path pinned to each side of the density heuristic, on the
// ablation query of BenchmarkACEngines — the end-to-end effect of the
// kernels on Bool-style evaluation.
func BenchmarkFastACKernels(b *testing.B) {
	defer SetKernelPolicy(KernelAuto)
	q := cq.MustParse("Q() <- A(x), Child+(x, y), B(y), Child*(y, z), Child+(x, z)")
	for _, n := range []int{2000, 8000} {
		rng := rand.New(rand.NewSource(3))
		tr := tree.Random(rng, tree.DefaultRandomConfig(n))
		ix := NewTreeIndex(tr)
		sc := NewScratch()
		for _, mode := range []struct {
			name string
			p    KernelPolicy
		}{{"probe", KernelNever}, {"kernel", KernelAlways}, {"auto", KernelAuto}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode.name), func(b *testing.B) {
				SetKernelPolicy(mode.p)
				defer SetKernelPolicy(KernelAuto)
				for i := 0; i < b.N; i++ {
					if _, ok := sc.FastACIx(ix, q); !ok {
						b.Fatal("benchmark query must be satisfiable")
					}
				}
			})
		}
	}
}

// BenchmarkFastACSparse guards the probe path on big trees: the x/y/z
// domains of a Following/Child+ triangle keep about one node in 512 (well
// below the kernel break-even, so every revision probes), and every probe
// asks for an alive rank in a wide interval. A per-call O(n) setup, or a
// probe whose cost grows with the interval rather than the alive words,
// shows up here as time per op scaling with n.
func BenchmarkFastACSparse(b *testing.B) {
	q := cq.MustParse("Q() <- Following(x, y), Child+(y, z), Following(x, z)")
	for _, n := range []int{128 << 10, 512 << 10} {
		rng := rand.New(rand.NewSource(int64(n)))
		tr := tree.Random(rng, tree.RandomConfig{Nodes: n, MaxChildren: 4})
		ix := NewTreeIndex(tr)
		doms := make([]*NodeSet, q.NumVars())
		for x := range doms {
			doms[x] = NewNodeSet(n)
			for v := 0; v < n; v++ {
				if rng.Intn(512) == 0 {
					doms[x].Add(tree.NodeID(v))
				}
			}
		}
		sc := NewScratch()
		init := &Prevaluation{Sets: make([]*NodeSet, len(doms))}
		for x := range init.Sets {
			init.Sets[x] = &NodeSet{}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for x, s := range init.Sets {
					s.copyFrom(doms[x])
				}
				if _, _, ok := sc.fastACFromStatsIx(ix, q, init); !ok {
					b.Fatal("benchmark query must be satisfiable")
				}
			}
		})
	}
}
