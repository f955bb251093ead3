package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

// TestStrategiesKernelPathParity: all three strategies (Yannakakis/acyclic,
// X-property, backtracking) must produce byte-identical answer sets whether
// their revise steps — the acyclic semijoin schedule and the FastAC/pinned
// worklists run the same one — go through the per-node probe loops
// (KernelNever), the bulk image kernels (KernelAlways), or the production
// density heuristic (KernelAuto) — and, on small inputs, match the
// brute-force reference enumeration.
func TestStrategiesKernelPathParity(t *testing.T) {
	defer consistency.SetKernelPolicy(consistency.KernelAuto)
	policies := []struct {
		name string
		p    consistency.KernelPolicy
	}{
		{"probe", consistency.KernelNever},
		{"kernel", consistency.KernelAlways},
		{"auto", consistency.KernelAuto},
	}
	rng := rand.New(rand.NewSource(2024))
	alphabet := []string{"A", "B", "C"}
	cases := 0
	for trial := 0; trial < 70; trial++ {
		n := 1 + rng.Intn(40)
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: n, MaxChildren: 3, Alphabet: alphabet,
			MultiLabelProb: 0.1, UnlabeledProb: 0.1,
		})
		q := randomQuery(rng, allAxes, alphabet, 1+rng.Intn(3), rng.Intn(4), rng.Intn(3))
		// Give the query a head so All exercises enumeration, not just Bool.
		switch {
		case q.NumVars() >= 2 && trial%2 == 0:
			q.SetHead(cq.Var(0), cq.Var(1))
		default:
			q.SetHead(cq.Var(0))
		}
		want := ReferenceEvalAll(tr, q)

		pq, err := Prepare(q)
		if err != nil {
			t.Fatalf("trial %d: Prepare: %v", trial, err)
		}
		strategy := pq.Plan().Strategy
		var results [][][]tree.NodeID
		for _, pol := range policies {
			consistency.SetKernelPolicy(pol.p)
			// A fresh Prepared per policy: pooled scratches never carry
			// state from a differently-policied run.
			fresh := MustPrepare(q)
			got, _ := fresh.AllDoc(NewDocument(tr), EnumOptions{})
			results = append(results, got)
		}
		consistency.SetKernelPolicy(consistency.KernelAuto)
		for i, pol := range policies {
			if !reflect.DeepEqual(results[i], want) {
				t.Fatalf("trial %d (%v, policy %s): All = %v, want %v\nquery %s\ntree %s",
					trial, strategy, pol.name, results[i], want, q, tr)
			}
		}
		cases++
	}
	if cases < 50 {
		t.Fatalf("too few cases (%d)", cases)
	}
}

// TestEachStrategyKernelParity pins one query per strategy and checks
// probe-vs-kernel parity on a larger tree, where the density heuristic
// genuinely mixes paths: the acyclic semijoin schedule, the X-property pinned
// enumeration, and the MAC backtracking search must each return identical
// answers under every kernel policy.
func TestEachStrategyKernelParity(t *testing.T) {
	defer consistency.SetKernelPolicy(consistency.KernelAuto)
	rng := rand.New(rand.NewSource(9))
	tr := tree.Random(rng, tree.RandomConfig{Nodes: 600, MaxChildren: 4, Alphabet: []string{"A", "B", "C"}})
	d := NewDocument(tr)
	queries := []struct {
		src  string
		want Strategy
	}{
		{"Q(y) <- A(x), Child+(x, y), B(y), Child(y, z), C(z)", StrategyAcyclic},
		{"Q(y) <- A(x), Child+(x, y), B(y), Child*(y, z), C(z), Child+(x, z)", StrategyXProperty},
		{"Q(y) <- A(x), Child(x, y), B(y), Child+(x, z), C(z), Following(y, z)", StrategyBacktrack},
	}
	for _, qc := range queries {
		q := cq.MustParse(qc.src)
		pq := MustPrepare(q)
		if got := pq.Plan().Strategy; got != qc.want {
			t.Fatalf("%s: planned %v, want %v", qc.src, got, qc.want)
		}
		var base [][]tree.NodeID
		for _, pol := range []consistency.KernelPolicy{consistency.KernelNever, consistency.KernelAlways, consistency.KernelAuto} {
			consistency.SetKernelPolicy(pol)
			got, _ := MustPrepare(q).AllDoc(d, EnumOptions{})
			if base == nil {
				base = got
				if len(base) == 0 {
					t.Fatalf("%s: no answers — tree too sparse for a meaningful parity check", qc.src)
				}
				continue
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("%s: policy %d answers differ (%d vs %d tuples)", qc.src, pol, len(got), len(base))
			}
		}
		consistency.SetKernelPolicy(consistency.KernelAuto)
	}
}

// allAxes is the full axis vocabulary including inverses and the order
// extensions (the signature generator for the parity trials).
var allAxes = axis.All()
