package consistency

import (
	"math/rand"
	"testing"

	"repro/internal/axis"
	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/tree"
)

// randomPreDomain draws a pre-rank bitset over n nodes. kind cycles through
// the shapes the kernels must survive: empty, full, a singleton at a random
// rank, and random fills at several densities.
func randomPreDomain(rng *rand.Rand, n int, kind int) []uint64 {
	w := make([]uint64, bitset.Words(n))
	switch kind % 4 {
	case 0: // empty
	case 1: // full
		bitset.FillRange(w, 0, int32(n)-1)
	case 2: // singleton
		bitset.Set(w, int32(rng.Intn(n)))
	default: // random density in (0, 1)
		p := []float64{0.03, 0.2, 0.5, 0.9}[rng.Intn(4)]
		for r := 0; r < n; r++ {
			if rng.Float64() < p {
				bitset.Set(w, int32(r))
			}
		}
	}
	return w
}

// oracleImage computes {u : ∃w ∈ src, a(w, u)} by per-node successor
// enumeration — the axis.ForEachSuccessor brute force the kernels must
// match bit for bit.
func oracleImage(t *tree.Tree, a axis.Axis, src []uint64) []uint64 {
	dst := make([]uint64, len(src))
	bitset.ForEach(src, func(r int32) bool {
		axis.ForEachSuccessor(t, a, t.ByPre(r), func(v tree.NodeID) bool {
			bitset.Set(dst, t.Pre(v))
			return true
		})
		return true
	})
	return dst
}

// oraclePreimage computes {v : ∃w ∈ src, a(v, w)} by exhaustive axis.Holds
// tests.
func oraclePreimage(t *tree.Tree, a axis.Axis, src []uint64) []uint64 {
	dst := make([]uint64, len(src))
	for r := int32(0); r < int32(t.Len()); r++ {
		v := t.ByPre(r)
		bitset.ForEach(src, func(wr int32) bool {
			if axis.Holds(t, a, v, t.ByPre(wr)) {
				bitset.Set(dst, r)
				return false
			}
			return true
		})
	}
	return dst
}

func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKernelsMatchOracle: for every axis, random trees (up to ~500 nodes)
// and random domains including the empty/full/singleton shapes, the bulk
// image and preimage kernels must equal the per-node
// ForEachSuccessor/Holds brute force, bit for bit in both directions.
func TestKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	alphabet := []string{"A", "B"}
	sizes := []int{1, 2, 3, 5, 9, 17, 40, 73, 150, 331, 500}
	for trial, n := range sizes {
		for _, maxKids := range []int{1, 3, 8} { // chains, bushy, wide
			tr := tree.Random(rng, tree.RandomConfig{Nodes: n, MaxChildren: maxKids, Alphabet: alphabet})
			ix := NewTreeIndex(tr)
			dst := make([]uint64, bitset.Words(n))
			for kind := 0; kind < 8; kind++ {
				src := randomPreDomain(rng, n, kind)
				for _, a := range axis.All() {
					image(a, ix, src, dst)
					if want := oracleImage(tr, a, src); !wordsEqual(dst, want) {
						t.Fatalf("trial %d (n=%d kids<=%d kind=%d): image(%v) mismatch\nsrc  %v\ngot  %v\nwant %v\ntree %s",
							trial, n, maxKids, kind, a, ranks(src), ranks(dst), ranks(want), tr)
					}
					preimage(a, ix, src, dst)
					if want := oraclePreimage(tr, a, src); !wordsEqual(dst, want) {
						t.Fatalf("trial %d (n=%d kids<=%d kind=%d): preimage(%v) mismatch\nsrc  %v\ngot  %v\nwant %v\ntree %s",
							trial, n, maxKids, kind, a, ranks(src), ranks(dst), ranks(want), tr)
					}
				}
			}
		}
	}
}

// ranks renders a pre-rank bitset as a rank list for failure messages.
func ranks(w []uint64) []int32 {
	var out []int32
	bitset.ForEach(w, func(i int32) bool { out = append(out, i); return true })
	return out
}

// TestFastACKernelPolicyParity: the kernel and probe revise paths must
// compute the identical maximal arc-consistent prevaluation — same
// verdict, same sets, same removal counters — across random trees and
// queries over the full axis vocabulary.
func TestFastACKernelPolicyParity(t *testing.T) {
	defer SetKernelPolicy(KernelAuto)
	rng := rand.New(rand.NewSource(123))
	alphabet := []string{"A", "B", "C"}
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(60)
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: n, MaxChildren: 4, Alphabet: alphabet,
			MultiLabelProb: 0.1, UnlabeledProb: 0.1,
		})
		q := randomQuery(rng, allTestAxes, alphabet, 1+rng.Intn(4), rng.Intn(6), rng.Intn(3))

		SetKernelPolicy(KernelNever)
		pProbe, sProbe, okProbe := FastACFromStats(tr, q, NewPrevaluation(tr, q))
		SetKernelPolicy(KernelAlways)
		pKernel, sKernel, okKernel := FastACFromStats(tr, q, NewPrevaluation(tr, q))
		SetKernelPolicy(KernelAuto)
		pAuto, okAuto := FastAC(tr, q)

		if okProbe != okKernel || okProbe != okAuto {
			t.Fatalf("trial %d: verdicts differ: probe %v kernel %v auto %v\nquery %s\ntree %s",
				trial, okProbe, okKernel, okAuto, q, tr)
		}
		if !okProbe {
			continue
		}
		if !pProbe.Equal(pKernel) || !pProbe.Equal(pAuto) {
			t.Fatalf("trial %d: prevaluations differ across kernel policies\nquery %s\ntree %s", trial, q, tr)
		}
		if sProbe.Removals != sKernel.Removals {
			t.Fatalf("trial %d: removal counters differ: probe %d kernel %d", trial, sProbe.Removals, sKernel.Removals)
		}
	}
}

// TestPinRunKernelPolicyParity: incremental pinned propagation must agree
// between the kernel and probe revise paths — verdicts and all resulting
// domains — for every single pin over random inputs.
func TestPinRunKernelPolicyParity(t *testing.T) {
	defer SetKernelPolicy(KernelAuto)
	rng := rand.New(rand.NewSource(321))
	alphabet := []string{"A", "B"}
	checked := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(24)
		tr := tree.Random(rng, tree.RandomConfig{Nodes: n, MaxChildren: 3, Alphabet: alphabet})
		q := randomQuery(rng, allTestAxes, alphabet, 1+rng.Intn(3), rng.Intn(5), rng.Intn(2))
		p, ok := FastAC(tr, q)
		if !ok {
			continue
		}
		base := NewPinBase(tr, q, p)
		runProbe := NewPinRun(base)
		runKernel := NewPinRun(base)
		for x := 0; x < q.NumVars(); x++ {
			for v := 0; v < tr.Len(); v++ {
				SetKernelPolicy(KernelNever)
				okProbe := runProbe.Push(cq.Var(x), tree.NodeID(v))
				SetKernelPolicy(KernelAlways)
				okKernel := runKernel.Push(cq.Var(x), tree.NodeID(v))
				if okProbe != okKernel {
					t.Fatalf("trial %d: pin %d=%d: probe %v kernel %v\nquery %s\ntree %s",
						trial, x, v, okProbe, okKernel, q, tr)
				}
				checked++
				if !okProbe {
					continue
				}
				dProbe := runDomains(runProbe, q.NumVars(), tr.Len())
				dKernel := runDomains(runKernel, q.NumVars(), tr.Len())
				for y := 0; y < q.NumVars(); y++ {
					if !dProbe[y].Equal(dKernel[y]) {
						t.Fatalf("trial %d: pin %d=%d: var %d: probe %v kernel %v\nquery %s\ntree %s",
							trial, x, v, y, dProbe[y].Members(), dKernel[y].Members(), q, tr)
					}
				}
				runProbe.Pop()
				runKernel.Pop()
			}
		}
	}
	if checked < 300 {
		t.Fatalf("too few pins checked (%d) — generator drifted", checked)
	}
}
