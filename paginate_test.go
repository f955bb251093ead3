package cqtrees

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/tree"
)

// orderedQueries covers all three evaluation strategies with a binary head
// (so lexicographic tie-breaking across positions is actually exercised).
var orderedQueries = map[string]string{
	"acyclic":   "Q(x, y) <- A(x), Child+(x, y), B(y)",
	"xproperty": "Q(x, y) <- A(x), Child+(x, y), B(y), Child+(y, z), C(z), Child+(x, z)",
	"backtrack": "Q(x, y) <- A(x), Child(x, y), B(y), Child+(x, z), C(z), Following(y, z)",
}

// sortByDirs is the test oracle: sort tuples by per-position pre rank
// under dirs, matching the engine's ordered key.
func sortByDirs(t *Tree, dirs []Dir, tuples [][]NodeID) {
	less := func(a, b []NodeID) bool {
		for k := range a {
			ra, rb := t.Pre(a[k]), t.Pre(b[k])
			if ra == rb {
				continue
			}
			if dirs[k] == Desc {
				return ra > rb
			}
			return ra < rb
		}
		return false
	}
	for i := 1; i < len(tuples); i++ {
		for j := i; j > 0 && less(tuples[j], tuples[j-1]); j-- {
			tuples[j], tuples[j-1] = tuples[j-1], tuples[j]
		}
	}
}

// TestOrderedEnumeration: for every strategy and every direction
// combination, WithOrder must yield exactly the unordered answer set
// re-sorted by the per-position document-order key. The X-property
// strategy has one tuple descent, so its unordered stream must also be
// exactly the all-ascending ordered stream (on tree.Random trees NodeID
// order is not pre order, so this pins the order, not just the set).
func TestOrderedEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	combos := [][]Dir{{Asc, Asc}, {Asc, Desc}, {Desc, Asc}, {Desc, Desc}}
	hit := map[core.Strategy]bool{}
	for name, src := range orderedQueries {
		t.Run(name, func(t *testing.T) {
			pq := MustCompile(src)
			hit[pq.Plan().Strategy] = true
			for trial := 0; trial < 20; trial++ {
				tr := tree.Random(rng, tree.RandomConfig{Nodes: 60 + trial*10, MaxChildren: 3, Alphabet: []string{"A", "B", "C"}})
				doc := Index(tr)
				base, err := pq.AllErr(doc)
				if err != nil {
					t.Fatal(err)
				}
				for _, dirs := range combos {
					want := make([][]NodeID, len(base))
					copy(want, base)
					sortByDirs(tr, dirs, want)
					got, err := pq.AllErr(doc, WithOrder(dirs...))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
						t.Fatalf("trial %d dirs %v: ordered AllErr\n got %v\nwant %v\ntree %s", trial, dirs, got, want, tr)
					}
				}
				if pq.Plan().Strategy == core.StrategyXProperty {
					stream, ordered := slices.Collect(pq.Tuples(doc)), slices.Collect(pq.Tuples(doc, WithOrder()))
					if !reflect.DeepEqual(stream, ordered) {
						t.Fatalf("trial %d: unordered stream %v\nis not the document-order stream %v\ntree %s", trial, stream, ordered, tr)
					}
				}
			}
		})
	}
	for _, s := range []core.Strategy{core.StrategyAcyclic, core.StrategyXProperty, core.StrategyBacktrack} {
		if !hit[s] {
			t.Errorf("ordered enumeration never exercised strategy %v", s)
		}
	}
}

// TestOrderPadsAndRejects: short specs pad ascending, WithOrder() alone is
// all-ascending, and over-long specs fail with ErrOrderArity across the
// error-reporting tiers while the iterators just end.
func TestOrderPadsAndRejects(t *testing.T) {
	pq := MustCompile("Q(x, y) <- A(x), Child+(x, y), B(y)")
	doc := Index(MustParseTree("A(B,A(B,B),B)"))
	full, err := pq.AllErr(doc, WithOrder(Asc, Asc))
	if err != nil {
		t.Fatal(err)
	}
	padded, err := pq.AllErr(doc, WithOrder(Asc))
	if err != nil {
		t.Fatal(err)
	}
	bare, err := pq.AllErr(doc, WithOrder())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, padded) || !reflect.DeepEqual(full, bare) {
		t.Fatalf("padding drift: full %v padded %v bare %v", full, padded, bare)
	}
	if _, err := pq.AllErr(doc, WithOrder(Asc, Asc, Asc)); !errors.Is(err, ErrOrderArity) {
		t.Fatalf("over-long order spec: got %v, want ErrOrderArity", err)
	}
	if _, err := pq.BoolErr(doc, WithOrder(Asc, Asc, Asc)); !errors.Is(err, ErrOrderArity) {
		t.Fatalf("BoolErr over-long order spec: got %v, want ErrOrderArity", err)
	}
	n := 0
	for range pq.Tuples(doc, WithOrder(Asc, Asc, Asc)) {
		n++
	}
	if n != 0 {
		t.Fatalf("Tuples with invalid order yielded %d tuples, want 0", n)
	}
}

// TestLimitOffset: WithLimit takes a prefix, WithOffset drops one, both
// compose, and an offset past the end yields empty — on the ordered path
// and the unordered one.
func TestLimitOffset(t *testing.T) {
	pq := MustCompile("Q(x, y) <- A(x), Child+(x, y), B(y)")
	rng := rand.New(rand.NewSource(7))
	tr := tree.Random(rng, tree.RandomConfig{Nodes: 120, MaxChildren: 3, Alphabet: []string{"A", "B"}})
	doc := Index(tr)
	all, err := pq.AllErr(doc, WithOrder())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 10 {
		t.Fatalf("want >= 10 answers, got %d", len(all))
	}
	for _, tc := range []struct{ limit, offset int }{
		{3, 0}, {0, 4}, {5, 2}, {len(all), 0}, {3, len(all)}, {3, len(all) + 10},
	} {
		got, err := pq.AllErr(doc, WithOrder(), WithLimit(tc.limit), WithOffset(tc.offset))
		if err != nil {
			t.Fatal(err)
		}
		want := all
		if tc.offset >= len(want) {
			want = nil
		} else {
			want = want[tc.offset:]
		}
		if tc.limit > 0 && tc.limit < len(want) {
			want = want[:tc.limit]
		}
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("limit %d offset %d: got %v want %v", tc.limit, tc.offset, got, want)
		}
	}
	// Unordered limit: a prefix of some complete enumeration — verify
	// count and membership.
	set := map[string]bool{}
	for _, tup := range all {
		set[fmt.Sprint(tup)] = true
	}
	lim, err := pq.AllErr(doc, WithLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(lim) != 5 {
		t.Fatalf("unordered WithLimit(5): got %d tuples", len(lim))
	}
	for _, tup := range lim {
		if !set[fmt.Sprint(tup)] {
			t.Fatalf("unordered limit returned non-answer %v", tup)
		}
	}
}

// TestPaginateWalk: walking pages via cursors reproduces the one-shot
// ordered enumeration exactly for every strategy, every page size —
// including page sizes that divide the total exactly (the final page must
// be full and mint no cursor).
func TestPaginateWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for name, src := range orderedQueries {
		t.Run(name, func(t *testing.T) {
			pq := MustCompile(src)
			tr := tree.Random(rng, tree.RandomConfig{Nodes: 150, MaxChildren: 3, Alphabet: []string{"A", "B", "C"}})
			doc := Index(tr)
			want, err := pq.AllErr(doc, WithOrder(Asc, Desc))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) < 6 {
				t.Skipf("only %d answers; need a few pages", len(want))
			}
			sizes := []int{1, 2, 3, len(want), len(want) + 7}
			// A divisor of the total, to hit the exact-boundary case.
			for d := 2; d < len(want); d++ {
				if len(want)%d == 0 {
					sizes = append(sizes, d)
					break
				}
			}
			for _, size := range sizes {
				var got [][]NodeID
				cursor := ""
				pages := 0
				for {
					opts := []EvalOption{WithOrder(Asc, Desc), WithLimit(size)}
					if cursor != "" {
						opts = append(opts, WithCursor(cursor))
					}
					page, err := pq.Paginate(doc, opts...)
					if err != nil {
						t.Fatalf("size %d page %d: %v", size, pages, err)
					}
					got = append(got, page.Tuples...)
					pages++
					if page.Next == "" {
						break
					}
					if len(page.Tuples) != size {
						t.Fatalf("size %d: truncated page had %d tuples", size, len(page.Tuples))
					}
					cursor = page.Next
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("size %d: paged union != one-shot\n got %v\nwant %v", size, got, want)
				}
				wantPages := (len(want) + size - 1) / size
				if pages != wantPages {
					t.Fatalf("size %d: walked %d pages, want %d", size, pages, wantPages)
				}
			}
		})
	}
}

// TestPaginateDefaults: no order requested means all-ascending document
// order; no limit means DefaultPageSize; 0-ary queries are rejected.
func TestPaginateDefaults(t *testing.T) {
	pq := MustCompile("Q(x, y) <- A(x), Child+(x, y), B(y)")
	rng := rand.New(rand.NewSource(3))
	tr := tree.Random(rng, tree.RandomConfig{Nodes: 400, MaxChildren: 2, Alphabet: []string{"A", "B"}})
	doc := Index(tr)
	want, err := pq.AllErr(doc, WithOrder())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= DefaultPageSize {
		t.Fatalf("want > %d answers, got %d", DefaultPageSize, len(want))
	}
	page, err := pq.Paginate(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Tuples) != DefaultPageSize || page.Next == "" {
		t.Fatalf("default page: %d tuples, next %q", len(page.Tuples), page.Next)
	}
	if !reflect.DeepEqual(page.Tuples, want[:DefaultPageSize]) {
		t.Fatal("default page is not the all-ascending prefix")
	}
	boolq := MustCompile("Q() <- A(x), Child+(x, y), B(y)")
	if _, err := boolq.Paginate(doc); !errors.Is(err, ErrOrderArity) {
		t.Fatalf("0-ary Paginate: got %v, want ErrOrderArity", err)
	}
}

// TestCursorRejections: the three typed failure modes, plus offset
// composition and order adoption from the cursor.
func TestCursorRejections(t *testing.T) {
	pq := MustCompile("Q(x, y) <- A(x), Child+(x, y), B(y)")
	other := MustCompile("Q(x, y) <- A(x), Child+(x, y), C(y)")
	rng := rand.New(rand.NewSource(5))
	tr := tree.Random(rng, tree.RandomConfig{Nodes: 120, MaxChildren: 3, Alphabet: []string{"A", "B", "C"}})
	doc := Index(tr)
	first, err := pq.Paginate(doc, WithLimit(2), WithOrder(Desc))
	if err != nil {
		t.Fatal(err)
	}
	if first.Next == "" {
		t.Fatal("first page not truncated; enlarge the tree")
	}

	// Malformed tokens.
	for _, tok := range []string{"", "!!!", "AAAA", first.Next + "AAAA", first.Next[:len(first.Next)-2]} {
		if _, err := pq.Paginate(doc, WithCursor(tok)); !errors.Is(err, ErrCursorMalformed) {
			t.Fatalf("token %q: got %v, want ErrCursorMalformed", tok, err)
		}
	}
	// Cursor from a different query.
	if _, err := other.Paginate(doc, WithCursor(first.Next)); !errors.Is(err, ErrCursorMismatch) {
		t.Fatalf("foreign cursor: got %v, want ErrCursorMismatch", err)
	}
	// Explicit order disagreeing with the cursor's.
	if _, err := pq.Paginate(doc, WithOrder(Asc, Asc), WithCursor(first.Next)); !errors.Is(err, ErrCursorMismatch) {
		t.Fatalf("order mismatch: got %v, want ErrCursorMismatch", err)
	}
	// Stale version.
	if _, err := pq.Paginate(doc, WithCursor(first.Next), WithDocVersion(999)); !errors.Is(err, ErrCursorStale) {
		t.Fatalf("stale cursor: got %v, want ErrCursorStale", err)
	}
	// The cursor carries its order: resuming without WithOrder continues
	// the Desc,Asc stream.
	rest, err := pq.Paginate(doc, WithCursor(first.Next), WithLimit(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	all, err := pq.AllErr(doc, WithOrder(Desc))
	if err != nil {
		t.Fatal(err)
	}
	if want := all[2:]; !reflect.DeepEqual(rest.Tuples, want) && !(len(rest.Tuples) == 0 && len(want) == 0) {
		t.Fatalf("cursor-carried order: got %v want %v", rest.Tuples, want)
	}
	// WithOffset composes with a cursor (applied after the resume point).
	off, err := pq.Paginate(doc, WithCursor(first.Next), WithOffset(1), WithLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) > 3 && !reflect.DeepEqual(off.Tuples, all[3:4]) {
		t.Fatalf("cursor+offset: got %v want %v", off.Tuples, all[3:4])
	}
}

// TestCorpusPageVersioning: Corpus.Page binds cursors to content versions —
// a swap invalidates outstanding cursors (ErrCursorStale), removal turns
// them into unknown-document errors, and dehydrate/hydrate does NOT
// invalidate (residency is not content).
func TestCorpusPageVersioning(t *testing.T) {
	pq := MustCompile("Q(x, y) <- A(x), Child+(x, y), B(y)")
	rng := rand.New(rand.NewSource(11))
	tr := tree.Random(rng, tree.RandomConfig{Nodes: 120, MaxChildren: 3, Alphabet: []string{"A", "B"}})
	c := NewCorpus()
	if err := c.Add("d", Index(tr)); err != nil {
		t.Fatal(err)
	}
	first, err := c.Page(pq, "d", WithLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	if first.Next == "" {
		t.Fatal("first page not truncated; enlarge the tree")
	}
	// Same content: resume works.
	if _, err := c.Page(pq, "d", WithCursor(first.Next)); err != nil {
		t.Fatalf("resume on unchanged doc: %v", err)
	}
	// Dehydrate/hydrate: version stable, cursor still valid.
	dir := t.TempDir()
	if err := c.PersistDoc(dir, "d"); err != nil {
		t.Fatal(err)
	}
	c2 := NewCorpus()
	if _, err := c2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	// The re-loaded corpus re-stamps versions, so re-mint there and cycle.
	p2, err := c2.Page(pq, "d", WithLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := c2.Version("d")
	if _, err := c2.PersistDir(dir); err != nil {
		t.Fatal(err)
	}
	if after, _ := c2.Version("d"); after != before {
		t.Fatalf("version changed across persist: %d -> %d", before, after)
	}
	if _, err := c2.Page(pq, "d", WithCursor(p2.Next)); err != nil {
		t.Fatalf("resume after persist: %v", err)
	}
	// Swap: content changed, cursor stale.
	if _, err := c.Swap("d", Index(MustParseTree("A(B,B)"))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Page(pq, "d", WithCursor(first.Next)); !errors.Is(err, ErrCursorStale) {
		t.Fatalf("post-swap resume: got %v, want ErrCursorStale", err)
	}
	// Remove: unknown document.
	c.Remove("d")
	if _, err := c.Page(pq, "d", WithCursor(first.Next)); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("post-remove resume: got %v, want ErrUnknownDocument", err)
	}
}

// TestCursorRoundTrip: encode/decode is the identity on valid cursors.
func TestCursorRoundTrip(t *testing.T) {
	cases := []cursor{
		{qhash: 0, version: 0, dirs: []Dir{}, ranks: []int32{}},
		{qhash: 1, version: 7, dirs: []Dir{Asc}, ranks: []int32{0}},
		{qhash: ^uint64(0), version: ^uint64(0), dirs: []Dir{Desc, Asc, Desc}, ranks: []int32{5, 0, 1<<31 - 1}},
	}
	for i, c := range cases {
		got, err := decodeCursor(encodeCursor(c))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.qhash != c.qhash || got.version != c.version ||
			!reflect.DeepEqual(got.dirs, c.dirs) || !reflect.DeepEqual(got.ranks, c.ranks) {
			t.Fatalf("case %d: round trip drift: %+v -> %+v", i, c, got)
		}
	}
}
