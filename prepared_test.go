package cqtrees

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/axis"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/tree"
)

// randomQuery builds a random query over the given axes with nv variables,
// na binary atoms, labels on some variables, and 0..2 head variables.
func randomQuery(rng *rand.Rand, axes []axis.Axis, nv, na int, alphabet []string) *cq.Query {
	q := cq.New()
	vars := make([]cq.Var, nv)
	for i := range vars {
		vars[i] = q.AddVar(fmt.Sprintf("v%d", i))
	}
	for i := 0; i < na; i++ {
		x := rng.Intn(nv)
		y := rng.Intn(nv)
		if x == y {
			y = (y + 1) % nv
		}
		q.AddAtom(axes[rng.Intn(len(axes))], vars[x], vars[y])
	}
	for _, v := range vars {
		if rng.Float64() < 0.5 {
			q.AddLabel(alphabet[rng.Intn(len(alphabet))], v)
		}
	}
	switch rng.Intn(3) {
	case 1:
		q.SetHead(vars[rng.Intn(nv)])
	case 2:
		q.SetHead(vars[rng.Intn(nv)], vars[rng.Intn(nv)])
	}
	return q
}

// parityConfig pairs a signature with the strategies it can exercise.
type parityConfig struct {
	name string
	axes []axis.Axis
}

var parityConfigs = []parityConfig{
	// Tractable signature: cyclic draws hit the X-property engine,
	// forest-shaped draws the acyclic engine.
	{"tractable-vertical", []axis.Axis{axis.ChildPlus, axis.ChildStar}},
	{"tractable-following", []axis.Axis{axis.Following, axis.DocOrder}},
	// Intractable signatures: cyclic draws hit the backtracking engine.
	{"hard-child-childplus", []axis.Axis{axis.Child, axis.ChildPlus}},
	{"hard-child-following", []axis.Axis{axis.Child, axis.Following}},
	// Mixed bag including inverse axes.
	{"mixed", []axis.Axis{axis.Child, axis.NextSibling, axis.Parent, axis.PrevSiblingPlus}},
}

// TestPreparedMatchesOneShot is the prepare/execute parity property test:
// on random trees and random queries, Prepare(q).AllErr(Index(t)) must
// equal the one-shot EvaluateAll(t, q), and both must match the
// brute-force oracle. All three strategies must be exercised.
func TestPreparedMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
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
		got := allOf(t, pq, doc)
		want := EvaluateAll(tr, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s trial %d: prepared %v != one-shot %v\nq = %s\ntree = %s",
				cfg.name, trial, got, want, q, tr)
		}
		if ref := core.ReferenceEvalAll(tr, q); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s trial %d: prepared %v != oracle %v\nq = %s\ntree = %s",
				cfg.name, trial, got, ref, q, tr)
		}
		// Re-evaluation on the same PreparedQuery (scratch reuse) and on a
		// second tree (tree-index invalidation) must stay consistent.
		if again := allOf(t, pq, doc); !reflect.DeepEqual(again, got) {
			t.Fatalf("%s trial %d: re-evaluation drifted: %v then %v", cfg.name, trial, got, again)
		}
		tr2 := tree.Random(rng, tree.RandomConfig{Nodes: 1 + rng.Intn(8), MaxChildren: 2, Alphabet: alphabet})
		if got2, want2 := allOf(t, pq, Index(tr2)), core.ReferenceEvalAll(tr2, q); !reflect.DeepEqual(got2, want2) {
			t.Fatalf("%s trial %d: second tree: prepared %v != oracle %v", cfg.name, trial, got2, want2)
		}
		if sat, err := pq.BoolErr(doc); err != nil || sat != (len(got) > 0) {
			t.Fatalf("%s trial %d: BoolErr = %v, %v disagrees with AllErr", cfg.name, trial, sat, err)
		}
	}
	for _, s := range []core.Strategy{core.StrategyAcyclic, core.StrategyXProperty, core.StrategyBacktrack} {
		if hit[s] == 0 {
			t.Errorf("parity test never exercised strategy %v", s)
		}
	}
	t.Logf("strategy coverage: %v", hit)
}

// TestPreparedConcurrent runs one PreparedQuery from many goroutines
// against several trees at once; under -race this proves the compiled
// query and its pooled scratch state are goroutine-safe.
func TestPreparedConcurrent(t *testing.T) {
	queries := map[string]string{
		"acyclic":   "Q(y) <- A(x), Child+(x, y), B(y)",
		"xproperty": "Q() <- A(x), Child+(x, y), B(y), Child*(y, z), Child+(x, z)",
		"backtrack": "Q(y) <- A(x), Child(x, y), B(y), Child+(x, z), C(z), Following(y, z)",
	}
	rng := rand.New(rand.NewSource(5))
	docs := []*Document{
		Index(tree.Random(rng, tree.DefaultRandomConfig(120))),
		Index(tree.Random(rng, tree.DefaultRandomConfig(60))),
		Index(MustParseTree("A(B,C(B))")),
	}
	for name, src := range queries {
		t.Run(name, func(t *testing.T) {
			pq := MustCompile(src)
			want := make([][][]NodeID, len(docs))
			for i, doc := range docs {
				want[i] = allOf(t, pq, doc)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 16)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for it := 0; it < 20; it++ {
						i := (g + it) % len(docs)
						if got, err := pq.AllErr(docs[i]); err != nil || !reflect.DeepEqual(got, want[i]) {
							errs <- fmt.Errorf("goroutine %d: tree %d: got %v, %v, want %v", g, i, got, err, want[i])
							return
						}
						if got, err := pq.BoolErr(docs[i]); err != nil || got != (len(want[i]) > 0) {
							errs <- fmt.Errorf("goroutine %d: tree %d: BoolErr = %v, %v", g, i, got, err)
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

// TestSharedEngineFacade checks that the one-shot functions (each call
// prepares the query and indexes the tree afresh) behave identically
// across repeated and concurrent calls.
func TestSharedEngineFacade(t *testing.T) {
	tr := MustParseTree("A(B,C(B,A(B)))")
	q := MustParseQuery("Q(y) <- A(x), Child+(x, y), B(y)")
	first := EvaluateAll(tr, q)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got := EvaluateAll(tr, q); !reflect.DeepEqual(got, first) {
					t.Errorf("one-shot evaluation drifted: %v vs %v", got, first)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !Evaluate(tr, q) {
		t.Error("Evaluate should hold")
	}
	if got := EvaluateNodes(tr, q); len(got) != len(first) {
		t.Errorf("EvaluateNodes = %v", got)
	}
}

// TestPreparedPlanAndIntrospection covers Plan/Query/String and the
// Compile error paths.
func TestPreparedPlanAndIntrospection(t *testing.T) {
	pq := MustCompile("Q(y) <- A(x), Child+(x, y), B(y)")
	if pq.Plan().Strategy != core.StrategyAcyclic {
		t.Errorf("plan = %v", pq.Plan())
	}
	if pq.Query().NumVars() != 2 {
		t.Errorf("NumVars = %d", pq.Query().NumVars())
	}
	if pq.String() == "" {
		t.Error("empty String()")
	}
	if _, err := Compile("not a query"); err == nil {
		t.Error("Compile should fail on garbage")
	}
	if _, err := Prepare(nil); err == nil {
		t.Error("Prepare(nil) should fail")
	}
}

// TestFingerprintInjective: labels are arbitrary strings under
// programmatic construction, so the fingerprint — the key of the serving
// caches and the query hash in cursors — must not collide when a label
// contains the encoding's delimiters. (Regression: the old
// CanonicalKey-based fingerprint mapped labels {A@1, B@2} and the single
// label "A/1;B"@2 to the same key, making a shared cache serve one
// query's plan for the other.)
func TestFingerprintInjective(t *testing.T) {
	q1 := cq.New()
	x, y, z := q1.AddVar("x"), q1.AddVar("y"), q1.AddVar("z")
	q1.AddAtom(axis.Child, x, y)
	q1.AddLabel("A", y)
	q1.AddLabel("B", z)

	q2 := cq.New()
	x2, y2, z2 := q2.AddVar("x"), q2.AddVar("y"), q2.AddVar("z")
	q2.AddAtom(axis.Child, x2, y2)
	_ = y2
	q2.AddLabel("A/1;B", z2)

	if q1.Fingerprint() == q2.Fingerprint() {
		t.Fatalf("distinct queries share a fingerprint: %q", q1.Fingerprint())
	}
	// And evaluation must answer them independently.
	tr := MustParseTree("A(A,B)")
	if Evaluate(tr, q1) == Evaluate(tr, q2) {
		t.Fatalf("q1 (satisfiable) and q2 (label %q never occurs) should differ", "A/1;B")
	}
}

// TestPreparedImmuneToQueryMutation: mutating the source query after
// Prepare must not affect the compiled query.
func TestPreparedImmuneToQueryMutation(t *testing.T) {
	tr := MustParseTree("A(B,C(B))")
	q := MustParseQuery("Q(y) <- A(x), Child+(x, y), B(y)")
	pq := MustPrepare(q)
	doc := Index(tr)
	before := allOf(t, pq, doc)
	q.AddLabel("Z", 0) // would make the query unsatisfiable
	if after := allOf(t, pq, doc); !reflect.DeepEqual(after, before) {
		t.Errorf("prepared query affected by mutation: %v vs %v", after, before)
	}
}
