package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

// scrambledTree builds a random n-node tree with tree.Builder, attaching
// each new node under a uniformly drawn earlier one, so that NodeIDs are
// not pre ranks: a walk that mixed the two numberings up would read the
// wrong nodes. Each node carries up to two labels of A, B, C.
func scrambledTree(rng *rand.Rand, n int) *tree.Tree {
	labels := func() []string {
		var ls []string
		for _, l := range []string{"A", "B", "C"} {
			if rng.Intn(2) == 0 {
				ls = append(ls, l)
			}
		}
		return ls
	}
	b := tree.NewBuilder(n)
	b.AddNode(tree.NilNode, labels()...)
	for i := 1; i < n; i++ {
		b.AddNode(tree.NodeID(rng.Intn(i)), labels()...)
	}
	return b.Build()
}

// walkParityQueries are the acyclic shapes of TestAcyclicWalkParity:
// every axis as R(x, y) (the walk reads x's forward image) and as R(y, x)
// (its backward image), with head (x, y); then a projected chain, heads
// whose connecting subtree starts below the forest root (the body's
// first variable) or leaves a branch out, and a two-component product
// with non-head branches.
func walkParityQueries() []*cq.Query {
	var out []*cq.Query
	for _, a := range axis.All() {
		out = append(out,
			headed(fmt.Sprintf("A(x), %s(x, y), B(y)", a), "x", "y"),
			headed(fmt.Sprintf("A(x), %s(y, x), B(y)", a), "x", "y"),
		)
	}
	return append(out,
		headed("A(x), Child+(x, y), B(y), Child+(y, z), C(z)", "x", "z"),
		headed("A(x), Following(x, y), B(y), Ancestor*(y, z), C(z)", "z", "y"),
		headed("A(x), Child(x, y), NextSibling+(y, z), B(z)", "z"),
		headed("A(x), Child+(x, y), B(y), Preceding(x, z), PrevSibling*(z, w)", "y", "w"),
		headed("A(x), Child(x, y), B(y), C(u), NextSibling(u, w), A(w)", "x", "u"),
	)
}

// headed parses body with the named head variables. Variables are
// numbered by first occurrence in the body, so the acyclic strategy roots
// each component at its first body variable, head or not.
func headed(body string, head ...string) *cq.Query {
	q := cq.MustParse("Q() <- " + body)
	vars := make([]cq.Var, len(head))
	for i, h := range head {
		vars[i], _ = q.VarByName(h)
	}
	q.SetHead(vars...)
	return q
}

// TestAcyclicWalkParity: the acyclic strategy's unordered tuple stream is
// exactly the reference relation, with no tuple twice, for every axis in
// both link directions and for projected and product heads, on trees
// whose NodeIDs are not pre ranks. SatisfactionDoc's valuation (the first
// assignment of the same walk over every variable) is consistent.
func TestAcyclicWalkParity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, q := range walkParityQueries() {
		src := q.String()
		p := MustPrepare(q)
		if p.Plan().Strategy != StrategyAcyclic {
			t.Fatalf("%s: plan %v, want the acyclic strategy", src, p.Plan())
		}
		n := 90 // more than one word of pre ranks, so interval ends fall mid-set
		if q.NumVars() > 2 {
			n = 12 // ReferenceEvalAll costs n^vars
		}
		answered := 0
		for trial := 0; trial < 6; trial++ {
			tr := scrambledTree(rng, 1+rng.Intn(n))
			d := NewDocument(tr)
			var got [][]tree.NodeID
			seen := map[string]bool{}
			p.ForEachTupleDoc(d, EnumOptions{}, func(tuple []tree.NodeID) bool {
				if key := fmt.Sprint(tuple); seen[key] {
					t.Fatalf("%s on %s: tuple %v streamed twice", src, tr, tuple)
				} else {
					seen[key] = true
				}
				got = append(got, copyTuple(tuple))
				return true
			})
			slices.SortFunc(got, slices.Compare[[]tree.NodeID])
			want := ReferenceEvalAll(tr, q)
			if !sameTuples(got, want) {
				t.Fatalf("%s on %s:\n got %v\nwant %v", src, tr, got, want)
			}
			theta := p.SatisfactionDoc(d, EnumOptions{})
			if (theta != nil) != (len(want) > 0) || theta != nil && !consistency.Consistent(tr, q, theta) {
				t.Fatalf("%s on %s: satisfaction %v with %d answers", src, tr, theta, len(want))
			}
			if len(want) > 0 {
				answered++
			}
		}
		if answered == 0 {
			t.Errorf("%s: no trial had an answer", src)
		}
	}
}

// headRootQueries are acyclic shapes whose head is not the body's first
// variable: it lies below it in the body's own order, sits in the middle
// of a chain, or in a second component, with heads walkable in head order
// and not.
func headRootQueries() []*cq.Query {
	chain := "A(x), Child+(x, y), B(y), Child(y, z), C(z)"
	steps := "A(x), Child(x, y), B(y), Child+(y, z), C(z)"
	two := "A(x), Child(x, y), B(y), C(u), NextSibling(u, w), A(w)"
	return []*cq.Query{
		headed(steps, "z"),
		headed(steps, "y", "x"),
		headed(steps, "z", "x", "y"),
		headed(chain, "z"),
		headed(chain, "y"),
		headed(chain, "y", "x"),
		headed(chain, "z", "y"),
		headed(chain, "z", "x"),
		headed("A(x), Following(x, y), B(y), Preceding(y, z), C(z), PrevSibling+(z, w)", "w", "y"),
		headed(two, "w"),
		headed(two, "w", "y"),
		headed(two, "u", "x"),
	}
}

// TestAcyclicWalkParityHeadRoots makes TestAcyclicWalkParity's checks
// (checkWalkParity) on headRootQueries under every kernel policy, plus
// the monadic node stream, which reads the head's reduced words directly.
func TestAcyclicWalkParityHeadRoots(t *testing.T) {
	defer consistency.SetKernelPolicy(consistency.KernelAuto)
	for _, pol := range []consistency.KernelPolicy{consistency.KernelNever, consistency.KernelAlways, consistency.KernelAuto} {
		consistency.SetKernelPolicy(pol)
		rng := rand.New(rand.NewSource(33))
		for _, q := range headRootQueries() {
			checkWalkParity(t, rng, q, 12)
		}
	}
}

// checkWalkParity checks q's unordered tuple stream, node stream (for a
// monadic head) and satisfaction against ReferenceEvalAll on the given
// number of random scrambled trees, and that some trial had an answer.
func checkWalkParity(t *testing.T, rng *rand.Rand, q *cq.Query, trials int) {
	t.Helper()
	src := q.String()
	p := MustPrepare(q)
	if p.Plan().Strategy != StrategyAcyclic {
		t.Fatalf("%s: plan %v, want the acyclic strategy", src, p.Plan())
	}
	n := 90 // more than one word of pre ranks, so interval ends fall mid-set
	if q.NumVars() > 2 {
		n = 12 // ReferenceEvalAll costs n^vars
	}
	answered := 0
	for trial := 0; trial < trials; trial++ {
		tr := scrambledTree(rng, 1+rng.Intn(n))
		d := NewDocument(tr)
		var got [][]tree.NodeID
		seen := map[string]bool{}
		p.ForEachTupleDoc(d, EnumOptions{}, func(tuple []tree.NodeID) bool {
			if key := fmt.Sprint(tuple); seen[key] {
				t.Fatalf("%s on %s: tuple %v streamed twice", src, tr, tuple)
			} else {
				seen[key] = true
			}
			got = append(got, copyTuple(tuple))
			return true
		})
		slices.SortFunc(got, slices.Compare[[]tree.NodeID])
		want := ReferenceEvalAll(tr, q)
		if !sameTuples(got, want) {
			t.Fatalf("%s on %s:\n got %v\nwant %v", src, tr, got, want)
		}
		if len(q.Head) == 1 {
			var nodes [][]tree.NodeID
			p.ForEachNodeDoc(d, EnumOptions{}, func(v tree.NodeID) bool {
				nodes = append(nodes, []tree.NodeID{v})
				return true
			})
			slices.SortFunc(nodes, slices.Compare[[]tree.NodeID])
			if !sameTuples(nodes, want) {
				t.Fatalf("%s on %s: node stream\n got %v\nwant %v", src, tr, nodes, want)
			}
		}
		theta := p.SatisfactionDoc(d, EnumOptions{})
		if (theta != nil) != (len(want) > 0) || theta != nil && !consistency.Consistent(tr, q, theta) {
			t.Fatalf("%s on %s: satisfaction %v with %d answers", src, tr, theta, len(want))
		}
		if len(want) > 0 {
			answered++
		}
	}
	if answered == 0 {
		t.Errorf("%s: no trial had an answer", src)
	}
}

// TestAcyclicScheduleOnePass: the semijoin schedule is the bottom-up pass
// alone over a forest rooted at the head. It holds one step per forest
// edge (NumVars minus the components), each revising a variable's forest
// parent against it through its linking atom, in postorder: a variable
// is used as a support only after every step that revises it. Each
// component with a head variable is rooted at its first one in head
// order, any other at its lowest variable.
func TestAcyclicScheduleOnePass(t *testing.T) {
	var queries []*cq.Query
	queries = append(queries, walkParityQueries()...)
	queries = append(queries, headRootQueries()...)
	for _, c := range orderedWalkQueries() {
		queries = append(queries, c.q)
	}
	queries = append(queries, cq.MustParse("Q() <- A(x), Child(x, y), B(y), C(u), NextSibling(u, w), A(w), D(v)"))
	for _, q := range queries {
		f, err := buildShadowForest(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		// Components and their expected roots, by union-find over the atoms.
		comp := make([]int, q.NumVars())
		for i := range comp {
			comp[i] = i
		}
		var find func(x int) int
		find = func(x int) int {
			if comp[x] != x {
				comp[x] = find(comp[x])
			}
			return comp[x]
		}
		for _, at := range q.Atoms {
			comp[find(int(at.X))] = find(int(at.Y))
		}
		wantRoot := map[int]cq.Var{}
		for _, h := range q.Head {
			if _, ok := wantRoot[find(int(h))]; !ok {
				wantRoot[find(int(h))] = h
			}
		}
		for x := range q.NumVars() {
			if _, ok := wantRoot[find(x)]; !ok {
				wantRoot[find(x)] = cq.Var(x)
			}
		}
		for x := range q.NumVars() {
			isRoot := f.parent[x] == cq.NilVar
			if want := wantRoot[find(x)] == cq.Var(x); isRoot != want {
				t.Fatalf("%s: variable %s is a root: %v, want %v", q, q.VarName(cq.Var(x)), isRoot, want)
			}
		}
		if want := q.NumVars() - len(wantRoot); len(f.schedule) != want {
			t.Fatalf("%s: %d steps, want %d (one per forest edge)", q, len(f.schedule), want)
		}
		// In postorder, a variable's own revises all come before its use
		// as a support, and its parent is revised against it exactly once.
		pending := make([]int, q.NumVars()) // forest children not yet revised against
		for x := range q.NumVars() {
			if p := f.parent[x]; p != cq.NilVar {
				pending[p]++
			}
		}
		used := make([]bool, q.NumVars())
		for i, st := range f.schedule {
			at := q.Atoms[st.Atom]
			tgt, sup := at.X, at.Y
			if !st.Fwd {
				tgt, sup = at.Y, at.X
			}
			if f.parent[sup] != tgt || f.linkAtom[sup] != int(st.Atom) {
				t.Fatalf("%s: step %d revises %s against %s, which is not its forest child by atom %d",
					q, i, q.VarName(tgt), q.VarName(sup), st.Atom)
			}
			if used[sup] || pending[sup] != 0 {
				t.Fatalf("%s: step %d reads %s before its own %d revises", q, i, q.VarName(sup), pending[sup])
			}
			used[sup] = true
			pending[tgt]--
		}
	}
}

// TestAcyclicWalkOrder: a single-atom stream whose head is (top, image)
// arrives in walk order — x ascending in document order, then each x's
// image ascending in document order — for every axis in both directions.
func TestAcyclicWalkOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	tr := scrambledTree(rng, 200)
	d := NewDocument(tr)
	for _, q := range walkParityQueries()[:2*len(axis.All())] {
		src := q.String()
		p := MustPrepare(q)
		var prev []int32
		p.ForEachTupleDoc(d, EnumOptions{}, func(tuple []tree.NodeID) bool {
			cur := []int32{tr.Pre(tuple[0]), tr.Pre(tuple[1])}
			if prev != nil && slices.Compare(prev, cur) >= 0 {
				t.Fatalf("%s: pre ranks %v after %v", src, cur, prev)
			}
			prev = cur
			return true
		})
	}
}

// orderedWalkCase is one query of TestAcyclicOrderedWalkParity and
// whether its head is walkable in head order (otherwise ordered requests
// fall back to the pinned descent).
type orderedWalkCase struct {
	q        *cq.Query
	walkable bool
}

// orderedWalkQueries: every axis as R(x, y) and as R(y, x), with heads
// (x, y) and (y, x); three-variable heads walked in an order other than
// the forest's BFS order (x, y, z), one reading each step from a forest
// child and one starting below the root; a product of two components;
// and heads that are not walkable in head order: one skipping the middle
// of a chain, one leaving the chain's middle for last, one with a
// repeated variable.
func orderedWalkQueries() []orderedWalkCase {
	var out []orderedWalkCase
	for _, a := range axis.All() {
		for _, body := range []string{"A(x), %s(x, y), B(y)", "A(x), %s(y, x), B(y)"} {
			body = fmt.Sprintf(body, a)
			out = append(out,
				orderedWalkCase{headed(body, "x", "y"), true},
				orderedWalkCase{headed(body, "y", "x"), true},
			)
		}
	}
	chain := "A(x), Child+(x, y), B(y), Following(y, z), C(z)"
	return append(out,
		orderedWalkCase{headed(chain, "z", "y", "x"), true},
		orderedWalkCase{headed(chain, "y", "z", "x"), true},
		orderedWalkCase{headed("A(x), Child(x, y), B(y), PrevSibling*(y, z), Ancestor+(z, w)", "y", "z", "x"), true},
		orderedWalkCase{headed("A(x), Child(x, y), B(y), C(u), NextSibling(u, w), A(w)", "y", "u", "x", "w"), true},
		orderedWalkCase{headed(chain, "x", "z"), false},
		orderedWalkCase{headed(chain, "z", "x", "y"), false},
		orderedWalkCase{headed(chain, "y", "x", "y"), false},
	)
}

// TestAcyclicOrderedWalkParity: for every direction combination, an
// ordered stream of the acyclic strategy is the reference relation sorted
// by the per-position pre-rank key (and for a walkable head, so is the
// unordered stream under all-ascending directions); pages of random sizes, each resumed
// through After at the previous page's last tuple, concatenate to the
// same stream; and the stream equals the pinned descent's. The trees are
// built under random parents, so NodeIDs are not pre ranks.
func TestAcyclicOrderedWalkParity(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, c := range orderedWalkQueries() {
		q, src := c.q, c.q.String()
		p := MustPrepare(q)
		if p.Plan().Strategy != StrategyAcyclic || p.forest.inOrder != c.walkable {
			t.Fatalf("%s: plan %v, walkable %v, want acyclic and %v", src, p.Plan(), p.forest.inOrder, c.walkable)
		}
		n := 90 // more than one word of pre ranks
		switch q.NumVars() {
		case 3:
			n = 20 // ReferenceEvalAll costs n^vars
		case 4:
			n = 10
		}
		k := len(q.Head)
		answered := 0
		for trial := 0; trial < 1<<k; trial++ {
			dirs := make([]OrderDir, k)
			for j := range dirs {
				dirs[j] = OrderDir(trial >> j & 1)
			}
			tr := scrambledTree(rng, 1+rng.Intn(n))
			d := NewDocument(tr)
			want := ReferenceEvalAll(tr, q)
			slices.SortStableFunc(want, func(a, b []tree.NodeID) int {
				switch {
				case preKeyLess(tr, dirs, a, b):
					return -1
				case preKeyLess(tr, dirs, b, a):
					return 1
				}
				return 0
			})
			got, err := p.AllDoc(d, EnumOptions{Order: dirs})
			if err != nil || !sameTuples(got, want) {
				t.Fatalf("%s dirs %v on %s:\n got %v\nwant %v", src, dirs, tr, got, want)
			}

			if c.walkable && trial == 0 {
				var unordered [][]tree.NodeID
				p.ForEachTupleDoc(d, EnumOptions{}, func(tuple []tree.NodeID) bool {
					unordered = append(unordered, copyTuple(tuple))
					return true
				})
				if !sameTuples(unordered, want) {
					t.Fatalf("%s on %s: unordered stream\n %v\nwant the ascending one %v", src, tr, unordered, want)
				}
			}

			var paged [][]tree.NodeID
			o := EnumOptions{Order: dirs}
			for {
				o.Limit = 1 + rng.Intn(7)
				page, _ := p.AllDoc(d, o)
				paged = append(paged, page...)
				if len(page) < o.Limit {
					break
				}
				o.After = make([]int32, k)
				for j, v := range page[len(page)-1] {
					o.After[j] = tr.Pre(v)
				}
			}
			if !sameTuples(paged, want) {
				t.Fatalf("%s dirs %v on %s: pages concatenate to\n %v\nwant %v", src, dirs, tr, paged, want)
			}

			var descent [][]tree.NodeID
			orderedDescent(d, q, newEvalScratch(), EnumOptions{Order: dirs}, nil, func(tuple []tree.NodeID) bool {
				descent = append(descent, copyTuple(tuple))
				return true
			})
			if !sameTuples(descent, want) {
				t.Fatalf("%s dirs %v on %s: pinned descent gives\n %v\nwant %v", src, dirs, tr, descent, want)
			}
			if len(want) > 0 {
				answered++
			}
		}
		if answered == 0 {
			t.Errorf("%s: no trial had an answer", src)
		}
	}
}
