package cqtrees

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/tree"
)

// buildCorpus indexes n random trees as docs named d00..d(n-1).
func buildCorpus(t testing.TB, n, nodes int, seed int64) (*Corpus, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewCorpus()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("d%02d", i)
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: nodes, MaxChildren: 3, Alphabet: []string{"A", "B", "C"},
		})
		if _, err := c.AddTree(names[i], tr); err != nil {
			t.Fatalf("AddTree %s: %v", names[i], err)
		}
	}
	return c, names
}

// TestCorpusBatchParity: for every strategy and worker count, batch
// evaluation yields exactly the per-document sequential results — same
// documents, same answers, no errors.
func TestCorpusBatchParity(t *testing.T) {
	c, names := buildCorpus(t, 9, 120, 7)
	var pqs []*PreparedQuery
	var srcs []string
	for _, name := range []string{"acyclic", "xproperty", "backtrack"} {
		pqs = append(pqs, MustCompile(strategyQueries[name]))
		srcs = append(srcs, name)
	}

	// Ground truth: direct per-document evaluation.
	type key struct {
		doc   string
		query int
	}
	wantTuples := map[key][][]NodeID{}
	for _, name := range names {
		doc, ok := c.Get(name)
		if !ok {
			t.Fatalf("Get %s failed", name)
		}
		for qi, pq := range pqs {
			tuples, err := pq.AllErr(doc)
			if err != nil {
				t.Fatalf("%s/%s: AllErr: %v", name, srcs[qi], err)
			}
			wantTuples[key{name, qi}] = tuples
		}
	}

	for _, workers := range []int{1, 4} {
		got := map[key][][]NodeID{}
		for r := range c.TuplesSet(pqs, WithBatchWorkers(workers)) {
			if r.Err != nil {
				t.Fatalf("workers=%d %s/%s: %v", workers, r.Doc, srcs[r.Query], r.Err)
			}
			if _, dup := got[key{r.Doc, r.Query}]; dup {
				t.Fatalf("workers=%d: duplicate result for %s/%d", workers, r.Doc, r.Query)
			}
			got[key{r.Doc, r.Query}] = r.Tuples
		}
		if len(got) != len(wantTuples) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(wantTuples))
		}
		for k, want := range wantTuples {
			if !reflect.DeepEqual(got[k], want) {
				t.Fatalf("workers=%d %s/%s: %v != %v", workers, k.doc, srcs[k.query], got[k], want)
			}
		}

		// Nodes and Bool agree with the tuple relation.
		for r := range c.NodesSet(pqs, WithBatchWorkers(workers)) {
			if r.Err != nil {
				t.Fatalf("Nodes workers=%d %s/%s: %v", workers, r.Doc, srcs[r.Query], r.Err)
			}
			want := wantTuples[key{r.Doc, r.Query}]
			if len(r.Nodes) != len(want) {
				t.Fatalf("Nodes workers=%d %s/%s: %d nodes, want %d", workers, r.Doc, srcs[r.Query], len(r.Nodes), len(want))
			}
			for i, v := range r.Nodes {
				if v != want[i][0] {
					t.Fatalf("Nodes workers=%d %s/%s: node %d = %v, want %v", workers, r.Doc, srcs[r.Query], i, v, want[i][0])
				}
			}
		}
		for r := range c.BoolSet(pqs, WithBatchWorkers(workers)) {
			if r.Err != nil {
				t.Fatalf("Bool workers=%d %s/%s: %v", workers, r.Doc, srcs[r.Query], r.Err)
			}
			if want := len(wantTuples[key{r.Doc, r.Query}]) > 0; r.Sat != want {
				t.Fatalf("Bool workers=%d %s/%s: %v, want %v", workers, r.Doc, srcs[r.Query], r.Sat, want)
			}
		}
	}
}

// TestCorpusDocSelection: WithDocs picks exactly the named documents
// (missing ones reported per query with ErrUnknownDocument), WithDocFilter
// restricts the fleet.
func TestCorpusDocSelection(t *testing.T) {
	c, names := buildCorpus(t, 6, 60, 21)
	pq := MustCompile(strategyQueries["acyclic"])

	var seen, failed []string
	for r := range c.Bool(pq, WithDocs(names[1], "ghost", names[3])) {
		if r.Err != nil {
			if !errors.Is(r.Err, ErrUnknownDocument) {
				t.Fatalf("%s: err = %v, want ErrUnknownDocument", r.Doc, r.Err)
			}
			failed = append(failed, r.Doc)
			continue
		}
		seen = append(seen, r.Doc)
	}
	sort.Strings(seen)
	if !reflect.DeepEqual(seen, []string{names[1], names[3]}) {
		t.Fatalf("evaluated %v, want [%s %s]", seen, names[1], names[3])
	}
	if !reflect.DeepEqual(failed, []string{"ghost"}) {
		t.Fatalf("failed %v, want [ghost]", failed)
	}

	seen = nil
	for r := range c.Bool(pq, WithDocFilter(func(name string) bool { return name <= names[2] })) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Doc, r.Err)
		}
		seen = append(seen, r.Doc)
	}
	sort.Strings(seen)
	if !reflect.DeepEqual(seen, names[:3]) {
		t.Fatalf("filtered fleet %v, want %v", seen, names[:3])
	}

	// A dynamically built empty selection evaluates nothing — it must not
	// fall back to the whole fleet.
	var none []string
	for r := range c.Bool(pq, WithDocs(none...)) {
		t.Fatalf("empty WithDocs yielded %s", r.Doc)
	}
}

// TestCorpusNodesNotMonadic: a non-unary query reports ErrNotMonadic in
// every per-document result instead of panicking.
func TestCorpusNodesNotMonadic(t *testing.T) {
	c, _ := buildCorpus(t, 3, 30, 5)
	pq := MustCompile("Q(x, y) <- A(x), Child+(x, y), B(y)")
	n := 0
	for r := range c.Nodes(pq) {
		n++
		if !errors.Is(r.Err, ErrNotMonadic) {
			t.Fatalf("%s: err = %v, want ErrNotMonadic", r.Doc, r.Err)
		}
	}
	if n != 3 {
		t.Fatalf("%d results, want 3", n)
	}
}

// TestCorpusBatchCancellation: a cancelled batch context stops the fan-out
// — pre-cancelled batches yield nothing, mid-flight cancels surface as
// per-document context errors — and the worker pool always joins (no
// goroutine leak).
func TestCorpusBatchCancellation(t *testing.T) {
	c, _ := buildCorpus(t, 8, 400, 99)
	pq := MustCompile(strategyQueries["xproperty"])

	before := runtime.NumGoroutine()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for range c.Tuples(pq, WithBatchContext(cancelled), WithBatchWorkers(4)) {
		t.Fatal("pre-cancelled batch yielded a result")
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	clean, errored := 0, 0
	for r := range c.Tuples(pq, WithBatchContext(ctx), WithBatchWorkers(2)) {
		switch {
		case r.Err == nil:
			clean++
		case errors.Is(r.Err, context.Canceled):
			errored++
		default:
			t.Fatalf("%s: unexpected err %v", r.Doc, r.Err)
		}
		cancelMid()
	}
	if clean+errored == 0 || clean+errored == c.Len() && errored == 0 {
		t.Fatalf("mid-flight cancel: %d clean + %d cancelled of %d", clean, errored, c.Len())
	}

	// Early break joins the pool too.
	for range c.Bool(pq, WithBatchWorkers(4)) {
		break
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+2 {
		t.Errorf("goroutine leak: %d before, %d after", before, got)
	}
}

// TestCorpusConcurrentMutation: batches keep streaming correct snapshots
// while other goroutines add, swap, and remove documents (run under -race
// in CI).
func TestCorpusConcurrentMutation(t *testing.T) {
	c, names := buildCorpus(t, 6, 80, 33)
	pq := MustCompile(strategyQueries["acyclic"])

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Stop and wait for the mutator however the test ends: a t.Fatalf below
	// must not leave it swapping and indexing under the package's later
	// tests.
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("extra%02d", i%4)
			tr := tree.Random(rng, tree.RandomConfig{Nodes: 40, MaxChildren: 3, Alphabet: []string{"A", "B"}})
			if _, err := c.Swap(name, Index(tr)); err != nil {
				t.Error(err)
				return
			}
			c.Remove(fmt.Sprintf("extra%02d", (i+2)%4))
			i++
		}
	}()

	for round := 0; round < 20; round++ {
		seen := map[string]bool{}
		for r := range c.Bool(pq, WithBatchWorkers(3)) {
			if r.Err != nil {
				t.Fatalf("round %d %s: %v", round, r.Doc, r.Err)
			}
			if seen[r.Doc] {
				t.Fatalf("round %d: duplicate %s", round, r.Doc)
			}
			seen[r.Doc] = true
		}
		// The stable fleet is always present in the snapshot.
		for _, name := range names {
			if !seen[name] {
				t.Fatalf("round %d: stable doc %s missing", round, name)
			}
		}
	}
}

// TestCorpusEviction drives the public budget/eviction surface: the hook
// observes LRU evictions, Get counts as a touch, and accounting shrinks.
func TestCorpusEviction(t *testing.T) {
	sizer := Index(MustParseTree("A(B,C(B))"))
	sizer.Materialize() // Add charges the materialized size; budget from the same figure
	unit := sizer.SizeBytes()
	var evicted []string
	c := NewCorpus(
		WithMaxBytes(2*unit+unit/2),
		WithEvictionHook(func(name string, doc *Document) {
			if doc == nil {
				t.Errorf("hook(%s): nil doc", name)
			}
			evicted = append(evicted, name)
		}),
	)
	for _, name := range []string{"a", "b"} {
		if err := c.Add(name, Index(MustParseTree("A(B,C(B))"))); err != nil {
			t.Fatalf("Add %s: %v", name, err)
		}
	}
	if _, ok := c.Get("a"); !ok { // touch: "b" becomes LRU
		t.Fatal("Get a")
	}
	if err := c.Add("c", Index(MustParseTree("A(B,C(B))"))); err != nil {
		t.Fatalf("Add c: %v", err)
	}
	if !reflect.DeepEqual(evicted, []string{"b"}) {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
	if got := c.Names(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("Names = %v", got)
	}
	if c.Bytes() > 2*unit+unit/2 {
		t.Fatalf("Bytes = %d over budget", c.Bytes())
	}
}

// TestCorpusSizeBytes: the accounting figure is positive, grows with the
// tree, and Document.SizeBytes is stable across calls.
func TestCorpusSizeBytes(t *testing.T) {
	small := Index(MustParseTree("A(B)"))
	rng := rand.New(rand.NewSource(3))
	big := Index(tree.Random(rng, tree.DefaultRandomConfig(5000)))
	if small.SizeBytes() <= 0 {
		t.Fatalf("small SizeBytes = %d", small.SizeBytes())
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("big (%d) <= small (%d)", big.SizeBytes(), small.SizeBytes())
	}
	if a, b := big.SizeBytes(), big.SizeBytes(); a != b {
		t.Fatalf("SizeBytes unstable: %d != %d", a, b)
	}
	// ~56 bytes of precomputed orders + headers per node is the floor.
	if got, floor := big.SizeBytes(), int64(5000*56); got < floor {
		t.Fatalf("big SizeBytes = %d, below per-node floor %d", got, floor)
	}
}
