package cqtrees

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/tree"
)

// strategyQueries covers all three evaluation strategies; each is monadic
// so every tier (Tuples, NodeSeq, AllErr, NodesErr) applies.
var strategyQueries = map[string]string{
	"acyclic":   "Q(y) <- A(x), Child+(x, y), B(y)",
	"xproperty": "Q(y) <- A(x), Child+(x, y), B(y), Child+(y, z), C(z), Child+(x, z)",
	"backtrack": "Q(y) <- A(x), Child(x, y), B(y), Child+(x, z), C(z), Following(y, z)",
}

// TestDocumentSharedAcrossGoroutines runs several PreparedQuerys over one
// shared Document from many goroutines at once; under -race this proves
// the Document (orderings, lazily materialized label words) is safe to share between strategies and callers.
func TestDocumentSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := tree.Random(rng, tree.RandomConfig{Nodes: 150, MaxChildren: 3, Alphabet: []string{"A", "B", "C"}})
	doc := Index(tr)

	var pqs []*PreparedQuery
	var want [][]NodeID
	for _, name := range []string{"acyclic", "xproperty", "backtrack"} {
		pq := MustCompile(strategyQueries[name])
		nodes, err := pq.NodesErr(doc)
		if err != nil {
			t.Fatalf("%s: NodesErr: %v", name, err)
		}
		pqs = append(pqs, pq)
		want = append(want, nodes)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 15; it++ {
				i := (g + it) % len(pqs)
				got, err := pqs[i].NodesErr(doc)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d query %d: %v != %v", g, i, got, want[i])
					return
				}
				var seq []NodeID
				for v := range pqs[i].NodeSeq(doc) {
					seq = append(seq, v)
				}
				slices.Sort(seq)
				if !reflect.DeepEqual(seq, want[i]) && !(len(seq) == 0 && len(want[i]) == 0) {
					errs <- fmt.Errorf("goroutine %d query %d: NodeSeq %v != %v", g, i, seq, want[i])
					return
				}
				if sat, err := pqs[i].BoolErr(doc); err != nil || sat != (len(want[i]) > 0) {
					errs <- fmt.Errorf("goroutine %d query %d: BoolErr = %v, %v", g, i, sat, err)
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
}

// TestDocumentTierParity is the tier parity property test: on random
// trees and queries, the iterators (Tuples/NodeSeq) and the
// error-returning tier (AllErr/NodesErr) over one Document must agree
// with each other and with the brute-force oracle under every strategy.
func TestDocumentTierParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	alphabet := []string{"A", "B", "C"}
	hit := map[core.Strategy]int{}
	for trial := 0; trial < 140; trial++ {
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

		want := core.ReferenceEvalAll(tr, q)
		allErr, err := pq.AllErr(doc)
		if err != nil {
			t.Fatalf("%s trial %d: AllErr: %v", cfg.name, trial, err)
		}
		if !reflect.DeepEqual(allErr, want) {
			t.Fatalf("%s trial %d: AllErr %v != oracle %v\nq = %s\ntree = %s",
				cfg.name, trial, allErr, want, q, tr)
		}
		tuples := collectTuples(pq, doc)
		if !reflect.DeepEqual(tuples, want) && !(len(tuples) == 0 && len(want) == 0) {
			t.Fatalf("%s trial %d: Tuples %v != oracle %v\nq = %s\ntree = %s",
				cfg.name, trial, tuples, want, q, tr)
		}
		sat, err := pq.BoolErr(doc)
		if err != nil || sat != (len(want) > 0) {
			t.Fatalf("%s trial %d: BoolErr = %v, %v; oracle has %d answers", cfg.name, trial, sat, err, len(want))
		}

		if len(q.Head) == 1 {
			nodesErr, err := pq.NodesErr(doc)
			if err != nil {
				t.Fatalf("%s trial %d: NodesErr: %v", cfg.name, trial, err)
			}
			seq := slices.Collect(pq.NodeSeq(doc))
			slices.Sort(seq)
			if !reflect.DeepEqual(seq, nodesErr) && !(len(seq) == 0 && len(nodesErr) == 0) {
				t.Fatalf("%s trial %d: NodeSeq %v != NodesErr %v", cfg.name, trial, seq, nodesErr)
			}
			if len(nodesErr) != len(want) {
				t.Fatalf("%s trial %d: NodesErr %v != oracle %v", cfg.name, trial, nodesErr, want)
			}
			for i, tp := range want {
				if nodesErr[i] != tp[0] {
					t.Fatalf("%s trial %d: NodesErr %v != oracle %v", cfg.name, trial, nodesErr, want)
				}
			}
		}
	}
	for _, s := range []core.Strategy{core.StrategyAcyclic, core.StrategyXProperty, core.StrategyBacktrack} {
		if hit[s] == 0 {
			t.Errorf("tier parity never exercised strategy %v", s)
		}
	}
	t.Logf("strategy coverage: %v", hit)
}

// TestIteratorEarlyExit: breaking out of a range loop must stop the
// underlying engine immediately, for every strategy.
func TestIteratorEarlyExit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := tree.Random(rng, tree.RandomConfig{Nodes: 150, MaxChildren: 3, Alphabet: []string{"A", "B", "C"}})
	doc := Index(tr)
	for name, src := range strategyQueries {
		t.Run(name, func(t *testing.T) {
			pq := MustCompile(src)
			total, err := pq.NodesErr(doc)
			if err != nil || len(total) < 2 {
				t.Fatalf("want >= 2 answers, got %v (err %v)", total, err)
			}
			count := 0
			for range pq.Tuples(doc) {
				count++
				if count == 2 {
					break
				}
			}
			if count != 2 {
				t.Errorf("Tuples early exit consumed %d, want 2", count)
			}
			count = 0
			for range pq.NodeSeq(doc) {
				count++
				if count == 1 {
					break
				}
			}
			if count != 1 {
				t.Errorf("NodeSeq early exit consumed %d, want 1", count)
			}
		})
	}
}

// TestErrNotMonadic: the error-returning tier reports a typed, wrappable
// ErrNotMonadic; NodeSeq and the one-shot EvaluateNodes panic with it.
func TestErrNotMonadic(t *testing.T) {
	tr := MustParseTree("A(B,C(B))")
	doc := Index(tr)
	pq := MustCompile("Q(x, y) <- A(x), Child+(x, y), B(y)")
	if _, err := pq.NodesErr(doc); !errors.Is(err, ErrNotMonadic) {
		t.Errorf("NodesErr on binary query: err = %v, want ErrNotMonadic", err)
	}
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrNotMonadic) {
				t.Errorf("NodeSeq panic = %v, want error wrapping ErrNotMonadic", r)
			}
		}()
		pq.NodeSeq(doc)
	}()
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrNotMonadic) {
				t.Errorf("EvaluateNodes panic = %v, want error wrapping ErrNotMonadic", r)
			}
		}()
		EvaluateNodes(tr, pq.Query())
	}()
	// Monadic queries are unaffected.
	mq := MustCompile("Q(y) <- A(x), Child+(x, y), B(y)")
	if nodes, err := mq.NodesErr(doc); err != nil || len(nodes) != 2 {
		t.Errorf("NodesErr = %v, %v; want 2 nodes", nodes, err)
	}
}

// countdownCtx is a context whose Err flips to Canceled after a fixed
// number of Err calls — a deterministic way to cancel evaluation
// mid-flight at an exact outer-candidate iteration.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	left  int
	fired bool
}

func newCountdownCtx(calls int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), left: calls}
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		c.fired = true
		return context.Canceled
	}
	c.left--
	return nil
}

// TestContextCancelSequential: a cancelled context stops sequential
// enumeration within one outer iteration, and the error-returning tier
// reports the context error (discarding partial results).
func TestContextCancelSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := tree.Random(rng, tree.RandomConfig{Nodes: 300, MaxChildren: 3, Alphabet: []string{"A", "B", "C"}})
	doc := Index(tr)

	// Pre-cancelled context: every strategy and entry point errors upfront.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, src := range strategyQueries {
		pq := MustCompile(src)
		if _, err := pq.BoolErr(doc, WithContext(cancelled)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: BoolErr on cancelled ctx: err = %v", name, err)
		}
		if out, err := pq.AllErr(doc, WithContext(cancelled)); !errors.Is(err, context.Canceled) || out != nil {
			t.Errorf("%s: AllErr on cancelled ctx: out = %v, err = %v", name, out, err)
		}
		if out, err := pq.NodesErr(doc, WithContext(cancelled)); !errors.Is(err, context.Canceled) || out != nil {
			t.Errorf("%s: NodesErr on cancelled ctx: out = %v, err = %v", name, out, err)
		}
	}

	// Mid-flight cancel of the error tier: the countdown grants the entry
	// checks, then fires inside the enumeration; the partial result is
	// discarded.
	for name, src := range strategyQueries {
		pq := MustCompile(src)
		ctx := newCountdownCtx(3)
		if out, err := pq.NodesErr(doc, WithContext(ctx)); !errors.Is(err, context.Canceled) || out != nil || !ctx.fired {
			t.Errorf("%s: NodesErr cancelled mid-flight: out = %v, err = %v", name, out, err)
		}
		if out, err := pq.AllErr(doc, WithContext(newCountdownCtx(3))); !errors.Is(err, context.Canceled) || out != nil {
			t.Errorf("%s: AllErr cancelled mid-flight: out = %v, err = %v", name, out, err)
		}
	}

	// Mid-iteration cancel: consume 3 nodes then cancel; the sequence must
	// stop before yielding a 4th (the probe runs once per outer candidate).
	for _, name := range []string{"acyclic", "xproperty"} {
		pq := MustCompile(strategyQueries[name])
		all, err := pq.NodesErr(doc)
		if err != nil || len(all) < 5 {
			t.Fatalf("%s: want >= 5 answers for a meaningful cancel test, got %v (err %v)", name, all, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		count := 0
		for range pq.NodeSeq(doc, WithContext(ctx)) {
			count++
			if count == 3 {
				cancel()
			}
		}
		cancel()
		if count != 3 {
			t.Errorf("%s: consumed %d nodes after cancelling at 3", name, count)
		}
		// The error tier must surface the cancellation.
		if _, err := pq.NodesErr(doc, WithContext(ctx)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: NodesErr after cancel: err = %v", name, err)
		}
	}

	// Backtracking checks the probe at every search-node expansion: cancel
	// after the first tuple and require the search to stop early.
	pq := MustCompile(strategyQueries["backtrack"])
	total, err := pq.NodesErr(doc)
	if err != nil || len(total) < 2 {
		t.Fatalf("backtrack: want >= 2 answers, got %v (err %v)", total, err)
	}
	ctx, cancelBT := context.WithCancel(context.Background())
	count := 0
	for range pq.Tuples(doc, WithContext(ctx)) {
		count++
		cancelBT()
	}
	cancelBT()
	if count != 1 {
		t.Errorf("backtrack: consumed %d tuples after cancelling at 1", count)
	}
}

// TestDocumentIndexBuiltOnce pins the indexing contract: evaluating N
// prepared queries against one Document builds the tree indexes exactly
// once, while each one-shot helper call (Evaluate, EvaluateAll,
// EvaluateNodes) takes a *Tree and builds exactly one index per call.
func TestDocumentIndexBuiltOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := tree.Random(rng, tree.RandomConfig{Nodes: 200, MaxChildren: 3, Alphabet: []string{"A", "B", "C"}})
	srcs := []string{
		strategyQueries["acyclic"],
		strategyQueries["xproperty"],
		strategyQueries["backtrack"],
	}

	before := consistency.IndexBuildCount()
	doc := Index(tr)
	for _, src := range srcs {
		pq := MustCompile(src)
		if _, err := pq.NodesErr(doc); err != nil {
			t.Fatal(err)
		}
		if _, err := pq.BoolErr(doc); err != nil {
			t.Fatal(err)
		}
		for range pq.Tuples(doc) {
		}
	}
	if got := consistency.IndexBuildCount() - before; got != 1 {
		t.Errorf("document path: %d index builds for %d queries, want exactly 1", got, len(srcs))
	}

	oneShots := map[string]func(q *Query){
		"Evaluate":      func(q *Query) { Evaluate(tr, q) },
		"EvaluateAll":   func(q *Query) { EvaluateAll(tr, q) },
		"EvaluateNodes": func(q *Query) { EvaluateNodes(tr, q) },
	}
	for name, call := range oneShots {
		for _, src := range srcs {
			q := MustParseQuery(src)
			for rep := 0; rep < 2; rep++ {
				before = consistency.IndexBuildCount()
				call(q)
				if got := consistency.IndexBuildCount() - before; got != 1 {
					t.Errorf("%s call %d on %s: %d index builds, want exactly 1", name, rep, src, got)
				}
			}
		}
	}
}
