package core

import (
	"math/rand"
	"testing"

	"repro/internal/axis"
	"repro/internal/cq"
	"repro/internal/tree"
)

// Example 4.5: the relations <pre (DocOrder), Succ<pre (DocOrderSucc) and
// Self may be added to τ1 = {Child+, Child*} while retaining tractability.

func TestExample45ExtendedSignatureTractable(t *testing.T) {
	sig := []axis.Axis{
		axis.ChildPlus, axis.ChildStar, axis.Self,
		axis.DocOrder, axis.DocOrderSucc,
	}
	c := Classify(sig)
	if c.Complexity != PTime {
		t.Fatalf("extended τ1 should be tractable: %v", c)
	}
	if c.Order != axis.PreOrder {
		t.Errorf("witnessing order should be <pre, got %v", c.Order)
	}
}

func TestExample45QueriesMatchOracle(t *testing.T) {
	// The X-property engine against the oracle on the extended signature
	// (the FastAC-vs-HornAC leg is TestFastACMatchesHornACExample45 in
	// internal/consistency).
	sig := []axis.Axis{
		axis.ChildPlus, axis.ChildStar, axis.Self,
		axis.DocOrder, axis.DocOrderSucc,
	}
	rng := rand.New(rand.NewSource(45))
	alphabet := []string{"A", "B"}
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(9)
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: n, MaxChildren: 3, Alphabet: alphabet,
		})
		q := randomQuery(rng, sig, alphabet, 1+rng.Intn(3), rng.Intn(4), rng.Intn(2))
		want := ReferenceEvalBoolean(tr, q)
		if got, _ := prepareXProperty(t, q).BoolDoc(NewDocument(tr), EnumOptions{}); got != want {
			t.Fatalf("trial %d: poly %v oracle %v\nquery %s\ntree %s", trial, got, want, q, tr)
		}
	}
}

func TestDocOrderQuerySemantics(t *testing.T) {
	// "A before B in document order" — a relation XPath cannot state.
	tr := tree.MustParseTerm("R(A(B),B,A)")
	q := cq.New()
	x := q.AddVar("x")
	y := q.AddVar("y")
	q.AddLabel("A", x)
	q.AddLabel("B", y)
	q.AddAtom(axis.DocOrder, x, y)
	q.SetHead(x, y)
	// A nodes at pre 1 and 5; B at pre 2 and 4. Pairs with pre(A) < pre(B):
	// (1,2), (1,4) — the late A (pre 5) precedes nothing.
	got := evalAll(tr, q)
	if len(got) != 2 {
		t.Fatalf("want 2 pairs, got %v", got)
	}
	for _, tup := range got {
		if !(tr.Pre(tup[0]) < tr.Pre(tup[1])) {
			t.Errorf("pair %v violates document order", tup)
		}
	}
}

func TestDocOrderSuccChainPinsTraversal(t *testing.T) {
	// Succ<pre chains walk the document order node by node.
	tr := tree.MustParseTerm("A(B(C),D)")
	q := cq.MustParse("Q(x) <- A(w), DocOrderSucc(w, x)")
	got := evalNodes(tr, q)
	if len(got) != 1 || !tr.HasLabel(got[0], "B") {
		t.Fatalf("successor of the root in document order should be B: %v", got)
	}
}

func TestInverseAxesInQueries(t *testing.T) {
	// Inverse axes are redundant (§1.1) but supported: Parent/Ancestor
	// queries must agree with their forward formulations.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: 1 + rng.Intn(12), MaxChildren: 3, Alphabet: []string{"A", "B"},
		})
		fwd := cq.MustParse("Q(y) <- A(x), Child+(x, y), B(y)")
		bwd := cq.MustParse("Q(y) <- B(y), Ancestor+(y, x), A(x)")
		a := evalNodes(tr, fwd)
		b := evalNodes(tr, bwd)
		if len(a) != len(b) {
			t.Fatalf("forward/backward disagree on %s: %v vs %v", tr, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("forward/backward disagree on %s", tr)
			}
		}
	}
}

func TestSelfAxisCollapsesVariables(t *testing.T) {
	tr := tree.MustParseTerm("A|B(C)")
	q := cq.MustParse("Q() <- A(x), Self(x, y), B(y)")
	if !evalBool(tr, q) {
		t.Errorf("Self should allow x = y on a multi-labeled node")
	}
	tr2 := tree.MustParseTerm("A(B)")
	if evalBool(tr2, q) {
		t.Errorf("no node carries both labels")
	}
}

func TestBeyondAxSignatureNotOverclaimed(t *testing.T) {
	// {Child, DocOrder} has no common X order, but hardness is not
	// proved by the paper — the classification must say so.
	c := Classify([]axis.Axis{axis.Child, axis.DocOrder})
	if c.Complexity != NPComplete {
		t.Fatalf("no common order exists; expected the NP side, got %v", c)
	}
	if c.Theorem == "" || c.Theorem == "Thm 1.1" {
		t.Errorf("extension signatures must carry the not-claimed caveat, got %q", c.Theorem)
	}
}
