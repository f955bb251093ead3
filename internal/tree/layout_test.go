package tree

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// checkTree asserts the invariants every constructed tree must satisfy:
// Validate passes, the term syntax round-trips, and a snapshot round trip
// (AppendSections, then FromSnapshot) reproduces every array of the layout.
func checkTree(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v\ntree %s", err, tr)
	}
	if tr.Len() > 0 {
		back, err := ParseTerm(tr.String())
		if err != nil {
			t.Fatalf("ParseTerm(String()): %v\ntree %s", err, tr)
		}
		if !back.Equal(tr) {
			t.Fatalf("ParseTerm(String()) differs\ntree %s\nback %s", tr, back)
		}
	}
	w := snapshot.NewWriter()
	w.WriteMeta(tr.SnapshotMeta())
	tr.AppendSections(w)
	r, err := snapshot.Open(w.Finish())
	if err != nil {
		t.Fatalf("snapshot.Open: %v", err)
	}
	loaded, err := FromSnapshot(r)
	if err != nil {
		t.Fatalf("FromSnapshot: %v\ntree %s", err, tr)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("Validate after snapshot round trip: %v", err)
	}
	if !sameLayout(tr, loaded) {
		t.Fatalf("snapshot round trip changed the layout\ntree %s\nback %s", tr, loaded)
	}
}

// sameLayout reports whether a and b hold equal arrays in every field.
func sameLayout(a, b *Tree) bool {
	return a.size == b.size && a.structure == b.structure && a.nameStr == b.nameStr &&
		slices.Equal(a.parent, b.parent) && slices.Equal(a.kidsOff, b.kidsOff) &&
		slices.Equal(a.kidsFlat, b.kidsFlat) && slices.Equal(a.sibIndex, b.sibIndex) &&
		slices.Equal(a.pre, b.pre) && slices.Equal(a.post, b.post) &&
		slices.Equal(a.bflr, b.bflr) && slices.Equal(a.depth, b.depth) &&
		slices.Equal(a.preEnd, b.preEnd) && slices.Equal(a.byPre, b.byPre) &&
		slices.Equal(a.byPost, b.byPost) && slices.Equal(a.byBFLR, b.byBFLR) &&
		slices.Equal(a.nameOff, b.nameOff) && slices.Equal(a.labelOff, b.labelOff) &&
		slices.Equal(a.labelIDs, b.labelIDs) && slices.Equal(a.labelOcc, b.labelOcc) &&
		slices.Equal(a.idxOff, b.idxOff) && slices.Equal(a.idxFlat, b.idxFlat)
}

// FuzzParseTerm: any input either fails with an error wrapping ErrSyntax
// or yields a tree that passes checkTree.
func FuzzParseTerm(f *testing.F) {
	for _, s := range []string{
		"A", "A(B,C(D))", "X|Y(Z)", "_(A,_)", " A ( B | C , D ) ", "A|A|B(B|A)",
		"a-b(c'd,e*f(g+h))", "_", "__(_x)",
		"", "(", "A(", "A(B", "A)", "A(B,)", "A||B", "A(B)(C)", "A,B", "|", "A(B C)",
		Random(rand.New(rand.NewSource(1)), DefaultRandomConfig(40)).String(),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ParseTerm(s)
		if err != nil {
			if !errors.Is(err, ErrSyntax) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		checkTree(t, tr)
	})
}

// TestBuilderOutOfPreOrder: a Builder may add nodes in any top-down order
// (breadth-first, random attachment as Random does) and labels to earlier
// nodes; Build must still derive sibling order from insertion order and
// pass checkTree.
func TestBuilderOutOfPreOrder(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Tree
		want  string // expected term; "" skips the comparison
	}{
		{"empty", func() *Tree { return NewBuilder(0).Build() }, ""},
		{"single", func() *Tree { b := &Builder{}; b.AddNode(NilNode, "A"); return b.Build() }, "A"},
		{"breadth-first", func() *Tree {
			b := NewBuilder(6)
			r := b.AddNode(NilNode, "A")
			x := b.AddNode(r, "B")
			y := b.AddNode(r, "C")
			b.AddNode(x, "D")
			b.AddNode(y, "E")
			b.AddNode(x, "F")
			return b.Build()
		}, "A(B(D,F),C(E))"},
		{"labels added late", func() *Tree {
			b := NewBuilder(4)
			r := b.AddNode(NilNode)
			x := b.AddNode(r, "Z")
			y := b.AddNode(r)
			b.AddNode(x, "B", "A", "B")
			b.AddLabel(r, "R")
			b.AddLabel(y, "Q")
			b.AddLabel(x, "A")
			b.AddLabel(r, "R")
			return b.Build()
		}, "R(A|Z(A|B),Q)"},
		{"combine", func() *Tree {
			return Combine([]string{"Root"}, MustParseTerm("A(B,C)"), PathOfLabels("X", "", "Y"))
		}, "Root(A(B,C),X(_(Y)))"},
		{"random", func() *Tree {
			return Random(rand.New(rand.NewSource(5)), DefaultRandomConfig(500))
		}, ""},
		{"random multi-label", func() *Tree {
			return Random(rand.New(rand.NewSource(6)), RandomConfig{
				Nodes: 300, MaxChildren: 6, Alphabet: []string{"b", "a", "c", "a"},
				MultiLabelProb: 0.5, UnlabeledProb: 0.2,
			})
		}, ""},
		{"unlabeled", func() *Tree {
			return Random(rand.New(rand.NewSource(7)), RandomConfig{Nodes: 50, MaxChildren: 3})
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.build()
			if tc.want != "" && tr.String() != tc.want {
				t.Fatalf("String() = %q, want %q", tr.String(), tc.want)
			}
			checkTree(t, tr)
		})
	}
}

// TestParseTermAllocsFlat: a parse allocates a fixed number of arrays,
// however many nodes the term has (the Builder keeps flat buffers sized
// from the term, and Build allocates per array, not per node).
func TestParseTermAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		term := Random(rand.New(rand.NewSource(int64(n))), DefaultRandomConfig(n)).String()
		return testing.AllocsPerRun(20, func() { MustParseTerm(term) })
	}
	// Two allocations of slack absorb runtime noise in the average; one
	// allocation per node would be 9,900 more.
	if small, large := allocs(100), allocs(10000); large > small+2 {
		t.Fatalf("ParseTerm allocations grow with the tree: %v at 100 nodes, %v at 10000", small, large)
	}
}

// TestParseTermManyLabelsOneNode parses one node carrying 200,000 distinct
// labels in descending order, the worst case for sorting a node's label
// set. A term body is client input, so the sort must stay O(k log k): a
// quadratic sort needs about 2·10¹⁰ swaps here and misses the deadline.
func TestParseTermManyLabelsOneNode(t *testing.T) {
	const k = 200000
	var sb strings.Builder
	for i := k - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, "L%06d", i)
		if i > 0 {
			sb.WriteByte('|')
		}
	}
	term := sb.String()
	done := make(chan *Tree, 1)
	go func() { done <- MustParseTerm(term) }()
	var tr *Tree
	select {
	case tr = <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("ParseTerm of one node with %d labels took over 10s", k)
	}
	labels := tr.Labels(0)
	if len(labels) != k || labels[0] != "L000000" || labels[k-1] != fmt.Sprintf("L%06d", k-1) {
		t.Fatalf("got %d labels from %q to %q", len(labels), labels[0], labels[len(labels)-1])
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
