package core

import (
	"fmt"

	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

// The acyclic strategy (StrategyAcyclic) evaluates queries whose query
// graph's undirected shadow is a forest in the style of Yannakakis'
// algorithm [Yannakakis 1981], cited in §1.1 as the reason APQs evaluate
// particularly well: a bottom-up semijoin pass then a top-down pass make
// the candidate sets globally consistent, after which answers enumerate
// backtrack-free. It works on every tree structure and every acyclic query
// regardless of signature — acyclicity, not the X-property, supplies
// tractability here. The two passes are a fixed schedule of revise steps,
// built once at Prepare and run by the consistency package's one revise
// (the same kernel-or-probe step as the FastAC worklist).

// shadowForest is a rooted-forest view of an acyclic query graph.
type shadowForest struct {
	q     *cq.Query
	roots []cq.Var
	// For each variable: the atom linking it to its forest parent, and
	// whether the atom points parent -> child (down) or child -> parent.
	parent    []cq.Var
	linkAtom  []int
	linkDown  []bool // atom is R(parent, child)
	children  [][]cq.Var
	postorder []cq.Var
	// headOrder lists the variables of components containing head
	// variables in parent-before-child order — the variables enumeration
	// assigns. Derived once at build time; see computeHeadOrder.
	headOrder []cq.Var
	// schedule is Yannakakis' semijoin program over the linking atoms:
	// postorder up (prune each parent against its child), then preorder
	// down (prune each child against its parent). Derived once at build
	// time and run by acyclicReduce.
	schedule []consistency.Semijoin
	// The variables whose reduced sets a caller of acyclicReduce reads, as
	// masks over the query's variables: all of them (a satisfaction),
	// those of headOrder (tuple enumeration) and the head (a monadic
	// answer). A Boolean query reads none and passes nil.
	allMirror, enumMirror, headMirror []bool
}

// buildShadowForest roots each component of the shadow; returns an error
// if the query is not acyclic.
func buildShadowForest(q *cq.Query) (*shadowForest, error) {
	g := cq.NewGraph(q)
	if !g.IsForest() {
		return nil, fmt.Errorf("core: query is not acyclic: %s", q)
	}
	n := q.NumVars()
	f := &shadowForest{
		q:        q,
		parent:   make([]cq.Var, n),
		linkAtom: make([]int, n),
		linkDown: make([]bool, n),
		children: make([][]cq.Var, n),
	}
	for i := range f.parent {
		f.parent[i] = cq.NilVar
		f.linkAtom[i] = -1
	}
	visited := make([]bool, n)
	for root := cq.Var(0); int(root) < n; root++ {
		if visited[root] {
			continue
		}
		f.roots = append(f.roots, root)
		// BFS over the shadow.
		queue := []cq.Var{root}
		visited[root] = true
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, e := range g.Out(x) {
				if !visited[e.To] {
					visited[e.To] = true
					f.parent[e.To] = x
					f.linkAtom[e.To] = e.AtomIndex
					f.linkDown[e.To] = true
					f.children[x] = append(f.children[x], e.To)
					queue = append(queue, e.To)
				}
			}
			for _, e := range g.In(x) {
				if !visited[e.From] {
					visited[e.From] = true
					f.parent[e.From] = x
					f.linkAtom[e.From] = e.AtomIndex
					f.linkDown[e.From] = false
					f.children[x] = append(f.children[x], e.From)
					queue = append(queue, e.From)
				}
			}
		}
	}
	// Postorder: children before parents.
	state := make([]byte, n)
	var dfs func(x cq.Var)
	dfs = func(x cq.Var) {
		state[x] = 1
		for _, c := range f.children[x] {
			if state[c] == 0 {
				dfs(c)
			}
		}
		f.postorder = append(f.postorder, x)
	}
	for _, r := range f.roots {
		dfs(r)
	}
	f.headOrder = computeHeadOrder(q, f)
	// The linking atom is R(parent, child) when linkDown: the parent is
	// then the atom's left-hand side (a forward revise going up) and the
	// child its right-hand side (a backward revise going down).
	f.schedule = make([]consistency.Semijoin, 0, 2*(n-len(f.roots)))
	for _, x := range f.postorder {
		if f.parent[x] != cq.NilVar {
			f.schedule = append(f.schedule, consistency.Semijoin{Atom: int32(f.linkAtom[x]), Fwd: f.linkDown[x]})
		}
	}
	for i := len(f.postorder) - 1; i >= 0; i-- {
		if x := f.postorder[i]; f.parent[x] != cq.NilVar {
			f.schedule = append(f.schedule, consistency.Semijoin{Atom: int32(f.linkAtom[x]), Fwd: !f.linkDown[x]})
		}
	}
	f.allMirror, f.enumMirror, f.headMirror = make([]bool, n), make([]bool, n), make([]bool, n)
	for x := range f.allMirror {
		f.allMirror[x] = true
	}
	for _, x := range f.headOrder {
		f.enumMirror[x] = true
	}
	for _, x := range q.Head {
		f.headMirror[x] = true
	}
	return f, nil
}

// computeHeadOrder returns the variables of forest components containing
// head variables, in parent-before-child order. (Non-head components only
// contribute their nonemptiness, established by acyclicReduce.)
func computeHeadOrder(q *cq.Query, f *shadowForest) []cq.Var {
	comp := make([]int, q.NumVars())
	for i := range comp {
		comp[i] = -1
	}
	var mark func(x cq.Var, c int)
	mark = func(x cq.Var, c int) {
		comp[x] = c
		for _, ch := range f.children[x] {
			mark(ch, c)
		}
	}
	for ci, r := range f.roots {
		mark(r, ci)
	}
	headComps := map[int]bool{}
	for _, h := range q.Head {
		headComps[comp[h]] = true
	}
	var order []cq.Var
	for i := len(f.postorder) - 1; i >= 0; i-- {
		x := f.postorder[i]
		if headComps[comp[x]] {
			order = append(order, x)
		}
	}
	return order
}

// atomHolds evaluates the linking atom between child c and its parent for
// concrete nodes: vc at the child, vp at the parent.
func (f *shadowForest) atomHolds(t *tree.Tree, c cq.Var, vp, vc tree.NodeID) bool {
	at := f.q.Atoms[f.linkAtom[c]]
	if f.linkDown[c] {
		return axis.Holds(t, at.Axis, vp, vc)
	}
	return axis.Holds(t, at.Axis, vc, vp)
}

// acyclicReduce runs the two semijoin passes and returns the globally
// consistent candidate sets, or ok=false if some set empties. Only the
// sets of the variables mirror marks are reduced (see SemijoinIx); the
// others keep their label-filtered candidates, so a caller reads only the
// variables of the mask it passed. The returned sets are scratch-owned:
// valid until the scratch's next use.
func acyclicReduce(d *Document, q *cq.Query, f *shadowForest, s *evalScratch, mirror []bool) ([]*consistency.NodeSet, bool) {
	p, ok := s.ac.SemijoinIx(d.ix, q, f.schedule, mirror)
	if !ok {
		return nil, false
	}
	return p.Sets, true
}

// acyclicBool decides an acyclic query against a prebuilt shadow forest:
// satisfiable iff the semijoin reduction leaves every candidate set
// nonempty (an empty conjunction always is, an empty tree never).
func acyclicBool(d *Document, q *cq.Query, f *shadowForest, s *evalScratch) bool {
	_, ok := acyclicReduce(d, q, f, s, nil)
	return ok
}

// acyclicSatisfaction returns one consistent valuation, or nil.
func acyclicSatisfaction(d *Document, q *cq.Query, f *shadowForest, s *evalScratch) consistency.Valuation {
	t := d.t
	sets, ok := acyclicReduce(d, q, f, s, f.allMirror)
	if !ok {
		return nil
	}
	theta := make(consistency.Valuation, q.NumVars())
	for i := range theta {
		theta[i] = tree.NilNode
	}
	// Assign top-down; after reduction every parent choice extends.
	for i := len(f.postorder) - 1; i >= 0; i-- {
		x := f.postorder[i]
		p := f.parent[x]
		if p == cq.NilVar {
			sets[x].ForEach(func(v tree.NodeID) bool { theta[x] = v; return false })
			continue
		}
		vp := theta[p]
		sets[x].ForEach(func(vc tree.NodeID) bool {
			if f.atomHolds(t, x, vp, vc) {
				theta[x] = vc
				return false
			}
			return true
		})
		if theta[x] == tree.NilNode {
			panic("core: acyclic reduction left a parent value without child support")
		}
	}
	return theta
}

// acyclicEnumFrom runs the backtrack-free enumeration recursion from
// dimension i of order, assigning into theta and passing each complete
// head tuple (reused buffer) to emit — callers wrap emit with dedupEmit,
// since distinct assignments can project to the same head tuple. Returns
// false when enumeration should stop. stop (optional) is the context
// cancellation probe, checked once per outer (i == 0) candidate.
func acyclicEnumFrom(t *tree.Tree, q *cq.Query, f *shadowForest, sets []*consistency.NodeSet,
	order []cq.Var, theta consistency.Valuation, i int,
	tuple []tree.NodeID, stop func() bool, emit func([]tree.NodeID) bool) bool {
	if i == len(order) {
		for j, h := range q.Head {
			tuple[j] = theta[h]
		}
		return emit(tuple)
	}
	x := order[i]
	p := f.parent[x]
	cont := true
	sets[x].ForEach(func(v tree.NodeID) bool {
		if i == 0 && stop != nil && stop() {
			cont = false
			return false
		}
		if p != cq.NilVar && !f.atomHolds(t, x, theta[p], v) {
			return true
		}
		theta[x] = v
		cont = acyclicEnumFrom(t, q, f, sets, order, theta, i+1, tuple, stop, emit)
		return cont
	})
	return cont
}

// acyclicForEachTuple streams the distinct head tuples of the query
// answer. Enumeration is backtrack-free per component after reduction;
// the tuple passed to fn is reused (copy to retain); fn returns false to
// stop early.
func acyclicForEachTuple(d *Document, q *cq.Query, f *shadowForest, s *evalScratch, stop func() bool, fn func(tuple []tree.NodeID) bool) {
	if len(q.Head) == 0 {
		if acyclicBool(d, q, f, s) {
			fn(nil)
		}
		return
	}
	sets, ok := acyclicReduce(d, q, f, s, f.enumMirror)
	if !ok {
		return
	}
	t := d.t
	theta := make(consistency.Valuation, q.NumVars())
	tuple := make([]tree.NodeID, len(q.Head))
	// headOrder always contains every head variable (head components are
	// enumerated whole), so when it holds nothing else, distinct
	// assignments project to distinct tuples and the O(answers) dedup set
	// can be skipped — streaming a projection-free relation is then
	// memory-flat however many answers it has.
	emit := fn
	if enumNeedsDedup(q.Head, f.headOrder) {
		emit = dedupEmit(fn)
	}
	acyclicEnumFrom(t, q, f, sets, f.headOrder, theta, 0, tuple, stop, emit)
}

// acyclicForEachNode streams the answer of a monadic acyclic query in
// increasing NodeID order — without any enumeration recursion: after the
// two semijoin passes the candidate sets are globally consistent
// (Yannakakis), so every surviving candidate of the head variable extends
// to a full solution and the reduced set IS the answer.
func acyclicForEachNode(d *Document, q *cq.Query, f *shadowForest, s *evalScratch, stop func() bool, fn func(v tree.NodeID) bool) {
	sets, ok := acyclicReduce(d, q, f, s, f.headMirror)
	if !ok {
		return
	}
	if stop == nil {
		sets[q.Head[0]].ForEach(fn)
		return
	}
	sets[q.Head[0]].ForEach(func(v tree.NodeID) bool {
		if stop() {
			return false
		}
		return fn(v)
	})
}
