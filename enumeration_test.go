package cqtrees

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/tree"
)

// collectTuples drains the Tuples iterator into a sorted slice.
func collectTuples(pq *PreparedQuery, doc *Document) [][]NodeID {
	out := slices.Collect(pq.Tuples(doc))
	slices.SortFunc(out, slices.Compare[[]NodeID])
	return out
}

// allOf is the suite's materialized evaluation: AllErr on doc, failing
// the test on error.
func allOf(tb testing.TB, pq *PreparedQuery, doc *Document, opts ...EvalOption) [][]NodeID {
	tb.Helper()
	out, err := pq.AllErr(doc, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// nodesOf is allOf for a monadic query's sorted answer node set.
func nodesOf(tb testing.TB, pq *PreparedQuery, doc *Document, opts ...EvalOption) []NodeID {
	tb.Helper()
	out, err := pq.NodesErr(doc, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestStreamingMatchesOracle: on random trees and queries, the streamed
// tuple set must equal the brute-force oracle (and the materialized
// AllErr and the one-shot EvaluateAll) under every strategy; streamed
// tuples must be pairwise distinct.
func TestStreamingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	alphabet := []string{"A", "B", "C"}
	hit := map[core.Strategy]int{}
	for trial := 0; trial < 160; trial++ {
		cfg := parityConfigs[trial%len(parityConfigs)]
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes:       1 + rng.Intn(11),
			MaxChildren: 3,
			Alphabet:    alphabet,
		})
		q := randomQuery(rng, cfg.axes, 2+rng.Intn(3), 1+rng.Intn(4), alphabet)
		pq, err := Prepare(q)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", cfg.name, err)
		}
		hit[pq.Plan().Strategy]++
		doc := Index(tr)

		got := collectTuples(pq, doc)
		want := core.ReferenceEvalAll(tr, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s trial %d: streamed %v != oracle %v\nq = %s\ntree = %s",
				cfg.name, trial, got, want, q, tr)
		}
		if all := allOf(t, pq, doc); !reflect.DeepEqual(all, want) {
			t.Fatalf("%s trial %d: AllErr %v != oracle %v\nq = %s\ntree = %s",
				cfg.name, trial, all, want, q, tr)
		}
		if all := EvaluateAll(tr, q); !reflect.DeepEqual(all, want) {
			t.Fatalf("%s trial %d: EvaluateAll %v != oracle %v\nq = %s\ntree = %s",
				cfg.name, trial, all, want, q, tr)
		}
		// Distinctness of the stream.
		seen := map[string]bool{}
		for _, tp := range got {
			k := fmt.Sprint(tp)
			if seen[k] {
				t.Fatalf("%s trial %d: duplicate streamed tuple %v", cfg.name, trial, tp)
			}
			seen[k] = true
		}
		// Monadic: NodeSeq must agree with NodesErr, EvaluateNodes and the
		// oracle.
		if len(q.Head) == 1 {
			nodes := slices.Collect(pq.NodeSeq(doc))
			flat := make([]NodeID, len(want))
			for i, tp := range want {
				flat[i] = tp[0]
			}
			slices.Sort(nodes)
			if !reflect.DeepEqual(nodes, flat) && !(len(nodes) == 0 && len(flat) == 0) {
				t.Fatalf("%s trial %d: NodeSeq %v != oracle %v\nq = %s\ntree = %s",
					cfg.name, trial, nodes, flat, q, tr)
			}
			if ns := nodesOf(t, pq, doc); !reflect.DeepEqual(ns, flat) && !(len(ns) == 0 && len(flat) == 0) {
				t.Fatalf("%s trial %d: NodesErr %v != oracle %v", cfg.name, trial, ns, flat)
			}
			if ns := EvaluateNodes(tr, q); !reflect.DeepEqual(ns, flat) && !(len(ns) == 0 && len(flat) == 0) {
				t.Fatalf("%s trial %d: EvaluateNodes %v != oracle %v", cfg.name, trial, ns, flat)
			}
		}
		// Streaming again on the same PreparedQuery (scratch reuse) must
		// not drift.
		if again := collectTuples(pq, doc); !reflect.DeepEqual(again, got) {
			t.Fatalf("%s trial %d: re-stream drifted: %v then %v", cfg.name, trial, got, again)
		}
	}
	for _, s := range []core.Strategy{core.StrategyAcyclic, core.StrategyXProperty, core.StrategyBacktrack} {
		if hit[s] == 0 {
			t.Errorf("streaming parity never exercised strategy %v", s)
		}
	}
	t.Logf("strategy coverage: %v", hit)
}

// TestStreamingEarlyExit: breaking out of the range loop must stop
// enumeration immediately — the loop body runs exactly min(limit,
// |answer|) times — for every strategy and for both tuple and node
// streaming.
func TestStreamingEarlyExit(t *testing.T) {
	queries := map[string]string{
		"acyclic":   "Q(y) <- A(x), Child+(x, y), B(y)",
		"xproperty": "Q(y) <- A(x), Child+(x, y), B(y), Child+(y, z), C(z), Child+(x, z)",
		"backtrack": "Q(y) <- A(x), Child(x, y), B(y), Child+(x, z), C(z), Following(y, z)",
	}
	rng := rand.New(rand.NewSource(9))
	doc := Index(tree.Random(rng, tree.RandomConfig{Nodes: 150, MaxChildren: 3, Alphabet: []string{"A", "B", "C"}}))
	for name, src := range queries {
		t.Run(name, func(t *testing.T) {
			pq := MustCompile(src)
			total := len(allOf(t, pq, doc))
			if total < 2 {
				t.Fatalf("want >= 2 answers to make early exit meaningful, got %d", total)
			}
			for _, limit := range []int{1, 2, total, total + 5} {
				calls := 0
				for range pq.Tuples(doc) {
					calls++
					if calls == limit {
						break
					}
				}
				want := limit
				if want > total {
					want = total
				}
				if calls != want {
					t.Errorf("limit %d: Tuples loop ran %d times, want %d", limit, calls, want)
				}
				calls = 0
				for range pq.NodeSeq(doc) {
					calls++
					if calls == limit {
						break
					}
				}
				if calls != want {
					t.Errorf("limit %d: NodeSeq loop ran %d times, want %d", limit, calls, want)
				}
			}
		})
	}
}

// TestParallelEnumerationConcurrent drives enumeration from many
// goroutines at once on a shared PreparedQuery — under -race this proves
// the pooled scratches and per-call PinBase snapshots are data-race free.
func TestParallelEnumerationConcurrent(t *testing.T) {
	queries := map[string]string{
		"acyclic":   "Q(x, y) <- A(x), Child+(x, y), B(y)",
		"xproperty": "Q(y) <- A(x), Child+(x, y), B(y), Child+(y, z), C(z), Child+(x, z)",
	}
	rng := rand.New(rand.NewSource(7))
	docs := []*Document{
		Index(tree.Random(rng, tree.RandomConfig{Nodes: 200, MaxChildren: 3, Alphabet: []string{"A", "B", "C"}})),
		Index(tree.Random(rng, tree.RandomConfig{Nodes: 60, MaxChildren: 5, Alphabet: []string{"A", "B", "C"}})),
	}
	for name, src := range queries {
		t.Run(name, func(t *testing.T) {
			pq := MustCompile(src)
			want := make([][][]NodeID, len(docs))
			for i, doc := range docs {
				want[i] = allOf(t, pq, doc)
				if len(want[i]) == 0 {
					t.Fatalf("tree %d: want answers for a meaningful race test", i)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, 32)
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for it := 0; it < 10; it++ {
						i := (g + it) % len(docs)
						got, err := pq.AllErr(docs[i])
						if err != nil || !reflect.DeepEqual(got, want[i]) {
							errs <- fmt.Errorf("goroutine %d tree %d: %v, %v != %v", g, i, got, err, want[i])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
