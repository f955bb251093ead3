package corpus

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/tree"
)

func doc(src string) *core.Document {
	return core.NewDocument(tree.MustParseTerm(src))
}

func TestAddSwapRemoveGet(t *testing.T) {
	c := New()
	d1, d2 := doc("A(B,C)"), doc("A(B(C),C)")

	if err := c.Add("", d1); !errors.Is(err, ErrEmptyName) {
		t.Fatalf("Add empty name: err = %v, want ErrEmptyName", err)
	}
	if err := c.Add("one", d1); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := c.Add("one", d2); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Add: err = %v, want ErrExists", err)
	}
	if got, ok := c.Get("one"); !ok || got != d1 {
		t.Fatalf("Get = %v, %v; want d1, true", got, ok)
	}
	if prev, err := c.Swap("one", d2); err != nil || prev != d1 {
		t.Fatalf("Swap = %v, %v; want d1, nil", prev, err)
	}
	if prev, err := c.Swap("two", d1); err != nil || prev != nil {
		t.Fatalf("Swap fresh name = %v, %v; want nil, nil", prev, err)
	}
	if got := c.Names(); !reflect.DeepEqual(got, []string{"one", "two"}) {
		t.Fatalf("Names = %v", got)
	}
	if want := d1.SizeBytes() + d2.SizeBytes(); c.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", c.Bytes(), want)
	}
	if got := c.Remove("one"); got != d2 {
		t.Fatalf("Remove = %v, want d2", got)
	}
	if got := c.Remove("one"); got != nil {
		t.Fatalf("second Remove = %v, want nil", got)
	}
	if c.Len() != 1 || c.Bytes() != d1.SizeBytes() {
		t.Fatalf("after Remove: Len = %d, Bytes = %d", c.Len(), c.Bytes())
	}
}

// TestEvictionLRU: a byte budget evicts least-recently-used documents,
// Get counts as a use, the triggering insertion is spared, and the hook
// sees every victim.
func TestEvictionLRU(t *testing.T) {
	c := New()
	var evicted []string
	one := doc("A(B,C)")
	one.Materialize() // Add charges the materialized size; budget from the same figure
	budget := 3*one.SizeBytes() + one.SizeBytes()/2
	c.SetBudget(budget, func(name string, d *core.Document) {
		if d == nil {
			t.Errorf("eviction hook for %q: nil document", name)
		}
		evicted = append(evicted, name)
	})

	for _, name := range []string{"a", "b", "c"} {
		if err := c.Add(name, doc("A(B,C)")); err != nil {
			t.Fatalf("Add %s: %v", name, err)
		}
	}
	if len(evicted) != 0 {
		t.Fatalf("evicted %v before exceeding budget", evicted)
	}
	// Touch "a" so "b" is now the least recently used. Peek is not a
	// touch: peeking "b" afterwards must not save it from eviction.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("Get a failed")
	}
	if _, bytes, ok := c.Peek("b"); !ok || bytes <= 0 {
		t.Fatalf("Peek b = %d, %v", bytes, ok)
	}
	if err := c.Add("d", doc("A(B,C)")); err != nil {
		t.Fatalf("Add d: %v", err)
	}
	if !reflect.DeepEqual(evicted, []string{"b"}) {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
	if got := c.Names(); !reflect.DeepEqual(got, []string{"a", "c", "d"}) {
		t.Fatalf("Names = %v", got)
	}

	// A single oversized insertion evicts everything else but is spared
	// itself.
	evicted = nil
	big := core.NewDocument(tree.MustParseTerm("A(" + deepTerm(200) + ")"))
	if big.SizeBytes() <= budget {
		t.Fatalf("test setup: big doc (%d bytes) fits the budget (%d)", big.SizeBytes(), budget)
	}
	if err := c.Add("big", big); err != nil {
		t.Fatalf("Add big: %v", err)
	}
	sort.Strings(evicted)
	if !reflect.DeepEqual(evicted, []string{"a", "c", "d"}) {
		t.Fatalf("evicted = %v, want [a c d]", evicted)
	}
	if got := c.Names(); !reflect.DeepEqual(got, []string{"big"}) {
		t.Fatalf("Names = %v, want [big]", got)
	}
}

// deepTerm builds a right-deep term with n nodes.
func deepTerm(n int) string {
	s := "B"
	for i := 1; i < n; i++ {
		s = "B(" + s + ")"
	}
	return s
}

func TestSnapshot(t *testing.T) {
	c := New()
	for _, name := range []string{"x", "y", "z"} {
		if err := c.Add(name, doc("A(B)")); err != nil {
			t.Fatal(err)
		}
	}
	docs, missing := c.Snapshot(nil, nil)
	if names := docNames(docs); !reflect.DeepEqual(names, []string{"x", "y", "z"}) || missing != nil {
		t.Fatalf("full snapshot = %v, missing %v", names, missing)
	}
	docs, missing = c.Snapshot([]string{"z", "nope", "x"}, nil)
	if names := docNames(docs); !reflect.DeepEqual(names, []string{"z", "x"}) {
		t.Fatalf("named snapshot = %v", names)
	}
	if len(missing) != 1 || missing[0].Name != "nope" || !errors.Is(missing[0].Err, ErrUnknown) {
		t.Fatalf("missing = %v", missing)
	}
	docs, _ = c.Snapshot(nil, func(name string) bool { return name != "y" })
	if names := docNames(docs); !reflect.DeepEqual(names, []string{"x", "z"}) {
		t.Fatalf("filtered snapshot = %v", names)
	}

	// A document removed between the listing and its lookup (the filter
	// runs in between) is skipped when implicitly selected and a Miss when
	// named.
	removeY := func(name string) bool {
		if name == "y" {
			c.Remove("y")
		}
		return true
	}
	docs, missing = c.Snapshot(nil, removeY)
	if names := docNames(docs); !reflect.DeepEqual(names, []string{"x", "z"}) || missing != nil {
		t.Fatalf("snapshot racing a remove = %v, missing %v", names, missing)
	}
	if err := c.Add("y", doc("A(B)")); err != nil {
		t.Fatal(err)
	}
	_, missing = c.Snapshot([]string{"y", "x"}, removeY)
	if len(missing) != 1 || missing[0].Name != "y" || !errors.Is(missing[0].Err, ErrUnknown) {
		t.Fatalf("named snapshot racing a remove: missing = %v", missing)
	}
}

func docNames(docs []Doc) []string {
	names := make([]string, len(docs))
	for i, d := range docs {
		names[i] = d.Name
	}
	return names
}

// TestRunParity: the parallel pool produces exactly the sequential result
// set (as a set — completion order differs), for every worker count.
func TestRunParity(t *testing.T) {
	var docs []Doc
	for i := 0; i < 7; i++ {
		docs = append(docs, Doc{Name: fmt.Sprintf("d%d", i)})
	}
	jobs := Jobs(docs, 3)
	eval := func(_ context.Context, j Job) (string, error) {
		return fmt.Sprintf("%s/%d", j.Doc.Name, j.Query), nil
	}
	var want []string
	for r := range Run(nil, 1, jobs, eval) {
		if r.Err != nil {
			t.Fatalf("sequential: %v", r.Err)
		}
		want = append(want, r.Value)
	}
	if len(want) != len(jobs) {
		t.Fatalf("sequential yielded %d of %d", len(want), len(jobs))
	}
	for _, workers := range []int{2, 4, 32} {
		var got []string
		for r := range Run(context.Background(), workers, jobs, eval) {
			if r.Err != nil {
				t.Fatalf("workers=%d: %v", workers, r.Err)
			}
			got = append(got, r.Value)
		}
		sortedWant := append([]string(nil), want...)
		sort.Strings(sortedWant)
		sort.Strings(got)
		if !reflect.DeepEqual(got, sortedWant) {
			t.Fatalf("workers=%d: %v != %v", workers, got, sortedWant)
		}
	}
}

// TestRunEarlyExit: breaking out of the iterator cancels the derived
// context, the pool joins, and not every job runs.
func TestRunEarlyExit(t *testing.T) {
	docs := make([]Doc, 64)
	for i := range docs {
		docs[i] = Doc{Name: fmt.Sprintf("d%03d", i)}
	}
	jobs := Jobs(docs, 1)
	var mu sync.Mutex
	ran := 0
	eval := func(ctx context.Context, j Job) (int, error) {
		mu.Lock()
		ran++
		mu.Unlock()
		return 0, ctx.Err()
	}
	seen := 0
	for range Run(context.Background(), 4, jobs, eval) {
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Fatalf("consumed %d, want 3", seen)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran >= len(jobs) {
		t.Fatalf("early exit still ran all %d jobs", ran)
	}
}

// TestRunCancellation: a pre-cancelled context yields nothing
// sequentially, and a mid-flight cancel stops dispatch while in-flight
// evaluations report the context error.
func TestRunCancellation(t *testing.T) {
	jobs := Jobs([]Doc{{Name: "a"}, {Name: "b"}, {Name: "c"}}, 1)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for range Run(cancelled, 1, jobs, func(context.Context, Job) (int, error) { return 0, nil }) {
		t.Fatal("pre-cancelled sequential Run yielded a result")
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	results := 0
	for r := range Run(ctx, 2, jobs, func(ctx context.Context, j Job) (int, error) {
		cancelMid()
		return 0, ctx.Err()
	}) {
		results++
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result err = %v, want context.Canceled", r.Err)
		}
	}
	if results == 0 {
		t.Fatal("no in-flight results observed")
	}
}

// TestRunCancelSkipsEval: once the batch context dies, workers stop
// invoking eval — a job that reaches a worker after cancellation reports
// the cancellation error without paying for an evaluation. This is what
// frees pool capacity promptly under deadline pressure: without the
// worker-side check, a job delivered in the race window between the
// dispatcher's last liveness check and the cancel would still evaluate.
func TestRunCancelSkipsEval(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		docs := make([]Doc, 8)
		for i := range docs {
			docs[i] = Doc{Name: fmt.Sprintf("d%d", i)}
		}
		jobs := Jobs(docs, 1)
		ctx, cancel := context.WithCancel(context.Background())

		const workers = 2
		var calls atomic.Int32
		entered := make(chan struct{}, workers)
		gate := make(chan struct{})
		eval := func(ctx context.Context, j Job) (int, error) {
			calls.Add(1)
			entered <- struct{}{}
			<-gate
			return 0, ctx.Err()
		}

		results := make(chan Result[Job, int], len(jobs))
		go func() {
			defer close(results)
			for r := range Run(ctx, workers, jobs, eval) {
				results <- r
			}
		}()

		// Both workers are mid-eval; the dispatcher is blocked offering the
		// next job. Cancel, then let the evals finish: every later worker
		// iteration observes the dead context before touching eval.
		<-entered
		<-entered
		cancel()
		close(gate)

		n := 0
		for r := range results {
			n++
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("iter %d: result err = %v, want context.Canceled", iter, r.Err)
			}
		}
		if got := calls.Load(); got != workers {
			t.Fatalf("iter %d: eval ran %d times, want exactly %d (no eval after cancel)", iter, got, workers)
		}
		if n < workers || n > len(jobs) {
			t.Fatalf("iter %d: %d results for %d jobs", iter, n, len(jobs))
		}
	}
}

// TestVersionMonotonic: versions strictly increase across every content
// change of a name — Add, Swap, Remove followed by re-Add — and Version
// agrees with Stat.
func TestVersionMonotonic(t *testing.T) {
	c := New()
	if _, ok := c.Version("x"); ok {
		t.Fatal("Version of absent name reported ok")
	}
	if err := c.Add("x", doc("A(B)")); err != nil {
		t.Fatalf("Add: %v", err)
	}
	v1, ok := c.Version("x")
	if !ok || v1 == 0 {
		t.Fatalf("Version after Add = %d, %v", v1, ok)
	}
	if st, ok := c.Stat("x"); !ok || st.Version != v1 {
		t.Fatalf("Stat.Version = %d, want %d", st.Version, v1)
	}
	if _, err := c.Swap("x", doc("A(B,C)")); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	v2, _ := c.Version("x")
	if v2 <= v1 {
		t.Fatalf("Swap version %d not after Add version %d", v2, v1)
	}
	c.Remove("x")
	if _, ok := c.Version("x"); ok {
		t.Fatal("Version survived Remove")
	}
	if err := c.Add("x", doc("A(C)")); err != nil {
		t.Fatalf("re-Add: %v", err)
	}
	v3, _ := c.Version("x")
	if v3 <= v2 {
		t.Fatalf("re-Add version %d not after Swap version %d", v3, v2)
	}
	// Distinct names never share a version: a cache key that (wrongly)
	// dropped the name would still not collide.
	if err := c.Add("y", doc("A(B)")); err != nil {
		t.Fatalf("Add y: %v", err)
	}
	vy, _ := c.Version("y")
	if vy <= v3 {
		t.Fatalf("y version %d not after x version %d", vy, v3)
	}
}

// TestVersionStableAcrossHydration: dehydrating a snapshot-backed entry
// and hydrating it back changes residency only — the version (and so any
// cached results keyed to it) survives the round trip unchanged.
func TestVersionStableAcrossHydration(t *testing.T) {
	dir := t.TempDir()
	c := New()
	if err := c.Add("x", doc("A(B(C),D)")); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := c.PersistDoc(dir, "x"); err != nil {
		t.Fatalf("PersistDoc: %v", err)
	}
	v0, _ := c.Version("x")

	c.SetBudget(1, nil) // force dehydration of the (persisted) entry
	st, ok := c.Stat("x")
	if !ok || st.Hydrated {
		t.Fatalf("after budget squeeze: Stat = %+v, %v (want dehydrated)", st, ok)
	}
	if st.Version != v0 {
		t.Fatalf("dehydration changed version: %d -> %d", v0, st.Version)
	}

	c.SetBudget(0, nil) // lift the budget; hydration must not re-dehydrate
	if _, ok := c.Get("x"); !ok {
		t.Fatal("Get failed to hydrate")
	}
	if st, _ := c.Stat("x"); !st.Hydrated {
		t.Fatal("entry not hydrated after Get")
	}
	if v, _ := c.Version("x"); v != v0 {
		t.Fatalf("hydration changed version: %d -> %d", v0, v)
	}
	if n := c.Hydrations(); n != 1 {
		t.Fatalf("Hydrations = %d, want 1", n)
	}

	// A fresh corpus opening the same directory assigns NEW versions:
	// stub registration is a content-establishing event for that corpus.
	c2 := New()
	if n, err := c2.LoadDir(dir); err != nil || n != 1 {
		t.Fatalf("LoadDir = %d, %v", n, err)
	}
	if v, ok := c2.Version("x"); !ok || v == 0 {
		t.Fatalf("stub version = %d, %v", v, ok)
	}
}

// TestInvalidationHook: the hook fires once per name on Swap replacement,
// Remove, and budget eviction of a memory-only document — and does NOT
// fire on fresh Add, fresh-name Swap, dehydration, or hydration.
func TestInvalidationHook(t *testing.T) {
	dir := t.TempDir()
	c := New()
	var fired []string
	c.SetInvalidationHook(func(name string) { fired = append(fired, name) })
	var evicted []string
	take := func() []string { out := fired; fired = nil; return out }

	if err := c.Add("a", doc("A(B)")); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if got := take(); len(got) != 0 {
		t.Fatalf("fresh Add fired %v", got)
	}
	if _, err := c.Swap("b", doc("A(B)")); err != nil {
		t.Fatalf("Swap fresh: %v", err)
	}
	if got := take(); len(got) != 0 {
		t.Fatalf("fresh-name Swap fired %v", got)
	}
	if _, err := c.Swap("a", doc("A(B,C)")); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if got := take(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Swap replacement fired %v, want [a]", got)
	}

	// Remove fires both hooks — the same path as budget eviction.
	c.SetBudget(0, func(name string, d *core.Document) {
		if d == nil {
			t.Errorf("eviction hook for %q: nil document", name)
		}
		evicted = append(evicted, name)
	})
	c.Remove("a")
	if got := take(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Remove fired %v, want [a]", got)
	}
	if !reflect.DeepEqual(evicted, []string{"a"}) {
		t.Fatalf("Remove eviction hook saw %v, want [a]", evicted)
	}
	evicted = nil

	// Dehydration (snapshot-backed budget victim) fires the eviction hook
	// only: the name keeps its version and hydrates back to the same
	// content, so results cached against it stay valid.
	if err := c.PersistDoc(dir, "b"); err != nil {
		t.Fatalf("PersistDoc: %v", err)
	}
	verB, _ := c.Version("b")
	c.SetBudget(1, func(name string, d *core.Document) { evicted = append(evicted, name) })
	if got := take(); len(got) != 0 {
		t.Fatalf("dehydration fired invalidation %v", got)
	}
	if !reflect.DeepEqual(evicted, []string{"b"}) {
		t.Fatalf("dehydration eviction hook saw %v, want [b]", evicted)
	}
	if d, _, _ := c.Peek("b"); d != nil {
		t.Fatal("budget victim b still resident")
	}
	if v, _ := c.Version("b"); v != verB {
		t.Fatalf("dehydration changed b's version %d -> %d", verB, v)
	}

	// A memory-only budget victim leaves the corpus: both hooks fire.
	evicted = nil
	c.SetBudget(0, nil)
	if err := c.Add("m", doc("A(B)")); err != nil {
		t.Fatalf("Add m: %v", err)
	}
	c.SetBudget(1, func(name string, d *core.Document) { evicted = append(evicted, name) })
	if got := take(); !reflect.DeepEqual(got, []string{"m"}) {
		t.Fatalf("memory-only eviction fired %v, want [m]", got)
	}
	if !reflect.DeepEqual(evicted, []string{"m"}) {
		t.Fatalf("memory-only eviction hook saw %v, want [m]", evicted)
	}

	// Hydration is silent: residency returns, content never changed.
	c.SetBudget(0, nil)
	if _, ok := c.Get("b"); !ok {
		t.Fatal("Get failed to hydrate")
	}
	if got := take(); len(got) != 0 {
		t.Fatalf("hydration fired %v", got)
	}

	// Removing a stub fires invalidation but not eviction (no resident
	// document to hand the eviction hook).
	c2 := New()
	if n, err := c2.LoadDir(dir); err != nil || n != 1 {
		t.Fatalf("LoadDir = %d, %v", n, err)
	}
	var stubFired []string
	c2.SetInvalidationHook(func(name string) { stubFired = append(stubFired, name) })
	c2.SetBudget(0, func(name string, d *core.Document) {
		t.Errorf("eviction hook fired for stub %q", name)
	})
	if d := c2.Remove("b"); d != nil {
		t.Fatalf("Remove stub returned a document")
	}
	if !reflect.DeepEqual(stubFired, []string{"b"}) {
		t.Fatalf("stub Remove fired %v, want [b]", stubFired)
	}
}
