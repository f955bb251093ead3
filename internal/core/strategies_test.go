package core

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/tree"
)

// strategyCase is one random (tree, query) pair whose head has arity 1 or
// 2, with its reference relation, for the in-package strategy tests below.
type strategyCase struct {
	tr   *tree.Tree
	q    *cq.Query
	p    *Prepared
	want [][]tree.NodeID
}

// strategyCases draws random trees of up to 12 nodes and random queries
// over the full axis vocabulary, until each strategy has at least min
// cases with a nonempty answer (unsatisfiable cases ride along). The small
// sizes keep ReferenceEvalAll cheap.
func strategyCases(t *testing.T, seed int64, min int) []strategyCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	alphabet := []string{"A", "B", "C"}
	var out []strategyCase
	count := map[Strategy]int{}
	for trial := 0; trial < 20000; trial++ {
		if count[StrategyAcyclic] >= min && count[StrategyXProperty] >= min && count[StrategyBacktrack] >= min {
			return out
		}
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: 1 + rng.Intn(12), MaxChildren: 3, Alphabet: alphabet,
			MultiLabelProb: 0.1, UnlabeledProb: 0.1,
		})
		nv := 2 + rng.Intn(3)
		q := randomQuery(rng, allAxes, alphabet, nv, 1+rng.Intn(4), rng.Intn(3))
		// Heads that skip variable 0 make the acyclic strategy's first
		// enumeration variable (a component root) a projected-away one.
		h := cq.Var(rng.Intn(nv))
		q.SetHead(h)
		if rng.Intn(2) == 0 {
			q.SetHead(h, (h+cq.Var(1+rng.Intn(nv-1)))%cq.Var(nv))
		}
		p := MustPrepare(q)
		if s := p.Plan().Strategy; count[s] < min {
			want := ReferenceEvalAll(tr, q)
			if len(want) > 0 {
				count[s]++
			}
			out = append(out, strategyCase{tr, q, p, want})
		}
	}
	t.Fatalf("could not draw %d cases per strategy: %v", min, count)
	return nil
}

// sameTuples reports whether two tuple lists are equal, treating nil and
// empty alike.
func sameTuples(a, b [][]tree.NodeID) bool {
	return slices.EqualFunc(a, b, slices.Equal[[]tree.NodeID])
}

// TestParallelEnumerationMatchesReference: AllDoc and MonadicDoc return
// exactly the reference relation under every strategy, including acyclic
// heads whose first enumeration variable is projected away.
func TestParallelEnumerationMatchesReference(t *testing.T) {
	for i, c := range strategyCases(t, 7, 25) {
		d := NewDocument(c.tr)
		want := c.want
		got, err := c.p.AllDoc(d, EnumOptions{})
		if err != nil || !sameTuples(got, want) {
			t.Fatalf("case %d (%v): AllDoc = %v (err %v), want %v\nquery %s\ntree %s",
				i, c.p.Plan().Strategy, got, err, want, c.q, c.tr)
		}
		if len(c.q.Head) != 1 {
			continue
		}
		var wantNodes []tree.NodeID
		for _, tp := range want {
			wantNodes = append(wantNodes, tp[0])
		}
		nodes, err := c.p.MonadicDoc(d, EnumOptions{})
		if err != nil || !slices.Equal(nodes, wantNodes) {
			t.Fatalf("case %d (%v): MonadicDoc = %v (err %v), want %v\nquery %s\ntree %s",
				i, c.p.Plan().Strategy, nodes, err, wantNodes, c.q, c.tr)
		}
	}
}

// TestParallelXPropertyOnAcyclicQueries forces the X-property strategy
// onto acyclic tractable queries, whose answers are larger than those of
// the random cyclic ones, so the X-property descent sees many outer
// candidates.
func TestParallelXPropertyOnAcyclicQueries(t *testing.T) {
	tr := tree.Random(rand.New(rand.NewSource(3)), tree.RandomConfig{Nodes: 40, MaxChildren: 3, Alphabet: []string{"A", "B"}})
	d := NewDocument(tr)
	for _, src := range []string{
		"Q(x, y) <- A(x), Child+(x, y)",
		"Q(y) <- A(x), Child*(x, y), B(y)",
	} {
		q := cq.MustParse(src)
		p := prepareXProperty(t, q)
		want := ReferenceEvalAll(tr, q)
		if got, _ := p.AllDoc(d, EnumOptions{}); !sameTuples(got, want) {
			t.Fatalf("%s: AllDoc = %v, want %v", src, got, want)
		}
		if len(q.Head) == 1 {
			var wantNodes []tree.NodeID
			for _, tp := range want {
				wantNodes = append(wantNodes, tp[0])
			}
			if nodes, _ := p.MonadicDoc(d, EnumOptions{}); !slices.Equal(nodes, wantNodes) {
				t.Fatalf("%s: MonadicDoc = %v, want %v", src, nodes, wantNodes)
			}
		}
	}
}

// TestParallelCancelled: AllDoc under an already-cancelled context reports
// the context's error under every strategy.
func TestParallelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := strategyCases(t, 11, 1)
	for _, sc := range c {
		if _, err := sc.p.AllDoc(NewDocument(sc.tr), EnumOptions{Ctx: ctx}); err == nil {
			t.Fatalf("%v: cancelled AllDoc returned no error", sc.p.Plan().Strategy)
		}
	}
}

// preKeyLess orders two tuples by pre rank per position, ascending or
// descending per dirs — the ordered enumeration's key, stated here
// independently of orderedKeyLess.
func preKeyLess(t *tree.Tree, dirs []OrderDir, a, b []tree.NodeID) bool {
	for k := range a {
		ra, rb := t.Pre(a[k]), t.Pre(b[k])
		switch {
		case ra == rb:
			continue
		case dirs[k] == OrderDesc:
			return ra > rb
		default:
			return ra < rb
		}
	}
	return false
}

// TestOrderedEnumerationMatchesReference: under every strategy (the
// backtracking one materializes and sorts through orderedBacktrack) an
// ordered AllDoc is the reference relation sorted by the requested
// per-position document order, and resuming strictly after any answer
// yields exactly the answers that follow it.
func TestOrderedEnumerationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i, c := range strategyCases(t, 9, 20) {
		d := NewDocument(c.tr)
		dirs := make([]OrderDir, len(c.q.Head))
		for k := range dirs {
			dirs[k] = OrderDir(rng.Intn(2))
		}
		want := slices.Clone(c.want)
		slices.SortStableFunc(want, func(a, b []tree.NodeID) int {
			switch {
			case preKeyLess(c.tr, dirs, a, b):
				return -1
			case preKeyLess(c.tr, dirs, b, a):
				return 1
			}
			return 0
		})
		got, err := c.p.AllDoc(d, EnumOptions{Order: dirs})
		if err != nil || !sameTuples(got, want) {
			t.Fatalf("case %d (%v, dirs %v): ordered AllDoc = %v (err %v), want %v\nquery %s\ntree %s",
				i, c.p.Plan().Strategy, dirs, got, err, want, c.q, c.tr)
		}
		if len(want) == 0 {
			continue
		}
		k := rng.Intn(len(want))
		after := make([]int32, len(want[k]))
		for j, v := range want[k] {
			after[j] = c.tr.Pre(v)
		}
		rest, err := c.p.AllDoc(d, EnumOptions{Order: dirs, After: after})
		if err != nil || !sameTuples(rest, want[k+1:]) {
			t.Fatalf("case %d (%v, dirs %v): resume after %v = %v (err %v), want %v\nquery %s\ntree %s",
				i, c.p.Plan().Strategy, dirs, want[k], rest, err, want[k+1:], c.q, c.tr)
		}
	}
}

// TestForwardCheckingMatchesReference: the backtracking engine without
// propagation (plain forward checking over a static search order) returns
// the reference relation.
func TestForwardCheckingMatchesReference(t *testing.T) {
	for i, c := range strategyCases(t, 13, 15) {
		e := &BacktrackEngine{}
		if got := e.EvalAll(c.tr, c.q); !sameTuples(got, c.want) {
			t.Fatalf("case %d: forward-checking EvalAll = %v, want %v\nquery %s\ntree %s", i, got, c.want, c.q, c.tr)
		}
	}
}

// TestDocumentSnapshotRoundTrip: a document loaded from its own snapshot
// answers like the original, WriteTo writes the snapshot bytes, and
// Materialize leaves the footprint stable.
func TestDocumentSnapshotRoundTrip(t *testing.T) {
	tr := tree.Random(rand.New(rand.NewSource(4)), tree.RandomConfig{Nodes: 50, MaxChildren: 3, Alphabet: []string{"A", "B"}})
	d := NewDocument(tr)
	var buf bytes.Buffer
	if n, err := d.WriteTo(&buf); err != nil || n != int64(buf.Len()) || !bytes.Equal(buf.Bytes(), d.Snapshot()) {
		t.Fatalf("WriteTo = %d, %v; want the %d snapshot bytes", n, err, len(d.Snapshot()))
	}
	loaded, err := LoadDocument(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != d.Len() || !loaded.Tree().Equal(d.Tree()) {
		t.Fatal("loaded document differs from the original tree")
	}
	loaded.Materialize()
	size := loaded.SizeBytes()
	p := MustPrepare(cq.MustParse("Q(x, y) <- A(x), Child+(x, y), B(y)"))
	want, _ := p.AllDoc(d, EnumOptions{})
	got, _ := p.AllDoc(loaded, EnumOptions{})
	if !sameTuples(got, want) || len(want) == 0 {
		t.Fatalf("loaded document answers %v, want %v", got, want)
	}
	if loaded.SizeBytes() != size {
		t.Fatalf("SizeBytes moved after Materialize: %d -> %d", size, loaded.SizeBytes())
	}
	if _, err := LoadDocument(buf.Bytes()[:10]); err == nil {
		t.Fatal("truncated snapshot loaded without error")
	}
}
