package xpath

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/rewrite"
	"repro/internal/tree"
)

// evalNodes is the suite's one-shot monadic evaluation: prepare q, index
// t, and return the sorted answer node set.
func evalNodes(t *tree.Tree, q *cq.Query) []tree.NodeID {
	out, err := core.MustPrepare(q).MonadicDoc(core.NewDocument(t), core.EnumOptions{})
	if err != nil {
		panic(err)
	}
	return out
}

// sameNodeSet compares two node lists as sets.
func sameNodeSet(a, b []tree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[tree.NodeID]bool{}
	for _, v := range a {
		m[v] = true
	}
	for _, v := range b {
		if !m[v] {
			return false
		}
	}
	return true
}

func sel(t *testing.T, tr *tree.Tree, src string) []tree.NodeID {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return EvalFromRoot(tr, e)
}

func TestEvalBasics(t *testing.T) {
	tr := tree.MustParseTerm("A(B(D,E),C(B))")
	cases := []struct {
		src  string
		want int
	}{
		{"//B", 2},
		{"//A", 1},
		{"//Z", 0},
		{"//*", 6},
		{"/child::B", 1},     // absolute: children of root
		{"//B/child::D", 1},  //
		{"//B[child::D]", 1}, // predicate filters
		{"//B[child::D][child::E]", 1},
		{"//B[child::Z]", 0},
		{"//C/descendant::B", 1},
		{"//D/following::C", 1},
		{"//D/following::*", 3}, // E, C, B
		{"//E/parent::B", 1},
		{"//B/ancestor::A", 1},
		{"//D/following-sibling::E", 1},
		{"//E/preceding-sibling::D", 1},
		{"self::A", 1}, // relative from root
	}
	for _, tc := range cases {
		got := sel(t, tr, tc.src)
		if len(got) != tc.want {
			t.Errorf("%q selected %d nodes (%v), want %d", tc.src, len(got), got, tc.want)
		}
	}
}

func TestEvalIntroQueryEquivalence(t *testing.T) {
	// //A[B]/following::C  ==  Q(z) ← A(x), Child(x,y), B(y),
	// Following(x,z), C(z)  (the introduction's claim).
	e := MustParse("//A[child::B]/following::C")
	q := cq.MustParse("Q(z) <- A(x), Child(x, y), B(y), Following(x, z), C(z)")
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: 1 + rng.Intn(20), MaxChildren: 3,
			Alphabet: []string{"A", "B", "C"},
		})
		want := evalNodes(tr, q)
		got := EvalFromRoot(tr, e)
		if !sameNodeSet(want, got) {
			t.Fatalf("trial %d: XPath %v vs CQ %v on %s", trial, got, want, tr)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "//", "//A[", "//A]", "foo::A", "//A//"}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"//A[child::B]/following::C",
		"/child::A/descendant::B",
		"self::A[descendant::B][following::C]",
	}
	for _, src := range srcs {
		e := MustParse(src)
		back, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", e.String(), err)
		}
		if back.String() != e.String() {
			t.Errorf("round trip %q -> %q", e.String(), back.String())
		}
	}
}

func TestToCQEquivalence(t *testing.T) {
	exprs := []string{
		"//A",
		"//A[child::B]/following::C",
		"//A/descendant::B[following-sibling::C]",
		"//A[ancestor::B]",
	}
	rng := rand.New(rand.NewSource(9))
	for _, src := range exprs {
		e := MustParse(src)
		q, err := ToCQ(e)
		if err != nil {
			t.Fatalf("ToCQ(%q): %v", src, err)
		}
		if cq.Classify(q) != cq.Acyclic {
			t.Errorf("ToCQ(%q) not acyclic", src)
		}
		for trial := 0; trial < 25; trial++ {
			tr := tree.Random(rng, tree.RandomConfig{
				Nodes: 1 + rng.Intn(15), MaxChildren: 3,
				Alphabet: []string{"A", "B", "C"},
			})
			want := EvalFromRoot(tr, e)
			got := evalNodes(tr, q)
			if !sameNodeSet(want, got) {
				t.Fatalf("%q: XPath %v vs CQ %v on %s", src, want, got, tr)
			}
		}
	}
}

func TestToCQRejectsRootAnchored(t *testing.T) {
	e := MustParse("/child::A")
	if _, err := ToCQ(e); err == nil {
		t.Errorf("root-anchored /child::A should be rejected")
	}
}

func TestFromAcyclicCQ(t *testing.T) {
	// Remark 6.1 direction: monadic acyclic CQ -> XPath, equivalent on
	// single-labeled trees.
	queries := []string{
		"Q(y) <- A(x), Child(x, y)",
		"Q(y) <- A(x), Child+(x, y), B(y)",
		"Q(x) <- A(x), Child(x, y), B(y), NextSibling+(y, z), C(z)",
		"Q(z) <- A(x), Following(x, z), B(y), Child(y, z)",
		"Q(x) <- A(x), B(y)", // disconnected component
	}
	rng := rand.New(rand.NewSource(13))
	for _, src := range queries {
		q := cq.MustParse(src)
		e, err := FromAcyclicCQ(q)
		if err != nil {
			t.Fatalf("FromAcyclicCQ(%s): %v", src, err)
		}
		for trial := 0; trial < 25; trial++ {
			tr := tree.Random(rng, tree.RandomConfig{
				Nodes: 1 + rng.Intn(15), MaxChildren: 3,
				Alphabet:      []string{"A", "B", "C"},
				UnlabeledProb: 0.1,
			})
			want := evalNodes(tr, q)
			got := EvalFromRoot(tr, e)
			if !sameNodeSet(want, got) {
				t.Fatalf("%s -> %s: CQ %v vs XPath %v on %s", src, e, want, got, tr)
			}
		}
	}
}

func TestFromAPQEndToEnd(t *testing.T) {
	// Full pipeline of the paper's expressiveness story: cyclic CQ ->
	// APQ (Thm 6.10) -> XPath (Remark 6.1); union of XPath results equals
	// the original query's answers.
	q := rewrite.IntroQuery() // //A[B]/following::C as a CQ — acyclic? It is!
	// Use a genuinely cyclic query instead: Fig. 1.
	q = rewrite.Figure1Query()
	apq, err := rewrite.TranslateCQ(q, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exprs, err := FromAPQ(apq)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: 1 + rng.Intn(12), MaxChildren: 3,
			Alphabet: []string{"S", "NP", "PP"},
		})
		want := evalNodes(tr, q)
		got := map[tree.NodeID]bool{}
		for _, e := range exprs {
			for _, v := range EvalFromRoot(tr, e) {
				got[v] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: XPath union %d nodes, CQ %d on %s", trial, len(got), len(want), tr)
		}
		for _, v := range want {
			if !got[v] {
				t.Fatalf("trial %d: missing node %d", trial, v)
			}
		}
	}
}

func TestFromAcyclicCQRejectsCyclic(t *testing.T) {
	q := cq.MustParse("Q(x) <- Child+(x, y), Child*(x, y)")
	if _, err := FromAcyclicCQ(q); err == nil {
		t.Errorf("cyclic query should be rejected")
	}
}
