package core

import (
	"fmt"
	"slices"

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
// (the same kernel-or-probe step as the FastAC worklist). Enumeration then
// walks the forest over the reduced pre-rank domains, visiting for each
// parent value only its axis image (consistency.ImageIter).

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
	// headWalk assigns the variables tuple enumeration reads: the head
	// itself, in head order, when inOrder; otherwise the head variables'
	// connecting subtrees (see computeHeadOrder). headPos maps each head
	// position to its step in headWalk. Derived once at build time.
	headWalk []walkStep
	headPos  []int
	// inOrder says whether the head is walkable in head order: its
	// variables are distinct, and each one after the first is adjacent to
	// an earlier one or is the first of its forest component. Ordered
	// requests for such a head walk headWalk directly.
	inOrder bool
	// headDedup says whether headWalk holds a non-head variable, so that
	// distinct assignments can project to the same head tuple.
	headDedup bool
	// schedule is Yannakakis' semijoin program over the linking atoms:
	// postorder up (prune each parent against its child), then preorder
	// down (prune each child against its parent). Derived once at build
	// time and run by acyclicReduce.
	schedule []consistency.Semijoin
	// headMirror marks the head variables. A monadic answer reads the
	// reduced NodeID-indexed set of its one head variable, so it is the
	// mirror mask that answer passes to SemijoinIx.
	headMirror []bool
}

// walkStep is one variable of a walk: the variable, the walk position of
// the forest neighbour it is read from (-1 for the top of a walked
// subtree, which ranges over its whole domain), and the linking atom's
// axis, read from that neighbour's value forward (atom R(neighbour, x))
// or backward (R(x, neighbour)).
type walkStep struct {
	x    cq.Var
	from int
	ax   axis.Axis
	fwd  bool
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
	f.headMirror = make([]bool, n)
	for _, x := range q.Head {
		f.headMirror[x] = true
	}
	f.headPos = make([]int, len(q.Head))
	if f.walkableInOrder(q.Head) {
		f.inOrder = true
		f.headWalk = f.walk(q.Head)
		for j := range f.headPos {
			f.headPos[j] = j
		}
	} else {
		headOrder := computeHeadOrder(q, f)
		f.headWalk = f.walk(headOrder)
		f.headDedup = enumNeedsDedup(q.Head, headOrder)
		for j, h := range q.Head {
			f.headPos[j] = slices.Index(headOrder, h)
		}
	}
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
	return f, nil
}

// walk returns the steps that assign order, a list of variables in which
// each variable with an earlier forest neighbour has exactly one: it
// ranges over that neighbour's axis image, every other variable over its
// whole domain. A neighbour is the forest parent (the linking atom read
// as built) or a forest child (the child's linking atom, read the other
// way).
func (f *shadowForest) walk(order []cq.Var) []walkStep {
	pos := make([]int, f.q.NumVars())
	for i := range pos {
		pos[i] = -1
	}
	steps := make([]walkStep, len(order))
	for i, x := range order {
		pos[x] = i
		steps[i] = walkStep{x: x, from: -1}
		if p := f.parent[x]; p != cq.NilVar && pos[p] >= 0 {
			steps[i].from = pos[p]
			steps[i].ax = f.q.Atoms[f.linkAtom[x]].Axis
			steps[i].fwd = f.linkDown[x]
			continue
		}
		for _, c := range f.children[x] {
			if pos[c] >= 0 {
				steps[i].from = pos[c]
				steps[i].ax = f.q.Atoms[f.linkAtom[c]].Axis
				steps[i].fwd = !f.linkDown[c]
				break
			}
		}
	}
	return steps
}

// walkableInOrder reports whether a walk can assign head in head order:
// the variables are distinct and each one is adjacent in the forest to an
// earlier one or is the first of its component. The walk then assigns
// only head variables, so its assignments are the distinct head tuples.
func (f *shadowForest) walkableInOrder(head []cq.Var) bool {
	for i, x := range head {
		earlier := head[:i]
		if slices.Contains(earlier, x) {
			return false
		}
		if slices.ContainsFunc(earlier, func(y cq.Var) bool { return f.parent[x] == y || f.parent[y] == x }) {
			continue
		}
		root := f.rootOf(x)
		if slices.ContainsFunc(earlier, func(y cq.Var) bool { return f.rootOf(y) == root }) {
			return false
		}
	}
	return true
}

// rootOf returns the root of x's forest component.
func (f *shadowForest) rootOf(x cq.Var) cq.Var {
	for f.parent[x] != cq.NilVar {
		x = f.parent[x]
	}
	return x
}

// computeHeadOrder returns, for every forest component holding head
// variables, the smallest connected subtree holding them, in
// parent-before-child order. After the full reduction every value of a
// variable extends to a solution along every branch, so tuple enumeration
// need not walk the branches this subtree leaves out, nor the components
// without head variables (acyclicReduce has established that they are
// nonempty).
func computeHeadOrder(q *cq.Query, f *shadowForest) []cq.Var {
	isHead := f.headMirror
	holds := make([]int, q.NumVars()) // distinct head variables in x's forest subtree
	for _, x := range f.postorder {
		if isHead[x] {
			holds[x]++
		}
		if p := f.parent[x]; p != cq.NilVar {
			holds[p] += holds[x]
		}
	}
	var order []cq.Var
	for _, top := range f.roots {
		if holds[top] == 0 {
			continue
		}
		// Descend while one child's subtree holds every head variable.
	descend:
		for !isHead[top] {
			for _, c := range f.children[top] {
				if holds[c] == holds[top] {
					top = c
					continue descend
				}
			}
			break
		}
		order = f.appendHolding(order, top, holds)
	}
	return order
}

// appendHolding appends x and, depth first, every variable below it whose
// forest subtree holds a head variable.
func (f *shadowForest) appendHolding(order []cq.Var, x cq.Var, holds []int) []cq.Var {
	order = append(order, x)
	for _, c := range f.children[x] {
		if holds[c] > 0 {
			order = f.appendHolding(order, c, holds)
		}
	}
	return order
}

// acyclicReduce runs the two semijoin passes and returns the globally
// consistent candidate sets, or ok=false if some set empties. Only the
// sets of the variables mirror marks are reduced (see SemijoinIx); the
// others keep their label-filtered candidates, so a caller reads only the
// variables of the mask it passed. Every variable's reduced pre-rank
// words are left in s.ac (Scratch.DomainPre) either way. The returned
// sets are scratch-owned: valid until the scratch's next use.
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

// acyclicSatisfaction returns one consistent valuation, or nil: the first
// assignment of the walk over every variable.
func acyclicSatisfaction(d *Document, q *cq.Query, f *shadowForest, s *evalScratch) consistency.Valuation {
	if !acyclicBool(d, q, f, s) {
		return nil
	}
	n := q.NumVars()
	order := make([]cq.Var, n)
	for i, x := range f.postorder {
		order[n-1-i] = x
	}
	steps := f.walk(order)
	theta := make(consistency.Valuation, n)
	found := n == 0
	acyclicWalk(d, steps, s, nil, nil, nil, func(at []int32) bool {
		for i, st := range steps {
			theta[st.x] = d.t.ByPre(at[i])
		}
		found = true
		return false
	})
	if !found {
		panic("core: acyclic reduction left a parent value without child support")
	}
	return theta
}

// acyclicWalk enumerates the assignments of steps over the reduced
// domains that acyclicReduce left in s: each step ranges over the axis
// image of its source step's value intersected with its variable's domain
// (the whole domain at a top step), in document order, or in reverse
// where dirs (nil: all ascending) says OrderDesc. It calls leaf with the
// pre ranks assigned, by step (a reused buffer), once per complete
// assignment, and stops when leaf returns false. The reduction is full,
// so every image the walk opens is nonempty: it never backs out of a dead
// end, and an assignment costs O(1) amortised beyond the image shapes'
// own overhead (see consistency.ImageIter).
//
// With after set (pre ranks by step), the walk resumes strictly after
// that assignment in the lexicographic order it walks: while every
// earlier step still holds after's value, a step seeks to after's rank,
// at or past it on inner steps and past it on the last. A resume thus
// costs O(steps + the images' seeks), not the assignments skipped.
// stop (optional) is the context cancellation probe, checked once per
// value of the first step.
func acyclicWalk(d *Document, steps []walkStep, s *evalScratch, dirs []OrderDir, after []int32, stop func() bool, leaf func(at []int32) bool) {
	k := len(steps)
	if k == 0 {
		return
	}
	if len(s.iters) < k {
		s.iters = make([]consistency.ImageIter, k)
		s.at = make([]int32, k)
	}
	iters, at := s.iters[:k], s.at[:k]
	// pfx counts the leading steps whose values equal after's. A step
	// moves on from after's value and never comes back to it, so pfx only
	// shrinks; -1 means no resume.
	pfx := -1
	if after != nil {
		pfx = k
	}
	for i := 0; ; i++ {
		st, desc := &steps[i], dirs != nil && dirs[i] == OrderDesc
		if dom := s.ac.DomainPre(st.x); st.from < 0 {
			iters[i].StartAll(d.ix, dom, desc)
		} else {
			iters[i].Start(d.ix, st.ax, st.fwd, at[st.from], dom, desc)
		}
		if i <= pfx {
			iters[i].Seek(seekRank(after[i], int32(d.t.Len()), desc, i == k-1))
		}
		for {
			w := iters[i].Next()
			if w < 0 {
				if i--; i < 0 {
					return
				}
				continue
			}
			if i == 0 && stop != nil && stop() {
				return
			}
			if pfx > i && w != after[i] {
				pfx = i
			}
			at[i] = w
			if i < k-1 {
				break
			}
			if !leaf(at) {
				return
			}
		}
	}
}

// seekRank returns the rank a resumed walk step seeks to: r itself, or
// the next rank in the step's direction on the last step, whose value r
// was already delivered. r comes from a client's cursor and may be any
// int32, so it is first clamped to [-1, n], which changes no seek's
// outcome and keeps the step from overflowing.
func seekRank(r, n int32, desc, last bool) int32 {
	r = min(max(r, -1), n)
	switch {
	case !last:
		return r
	case desc:
		return r - 1
	default:
		return r + 1
	}
}

// acyclicForEachTuple streams the distinct head tuples of the query
// answer by walking f.headWalk (see shadowForest.inOrder). A head that is
// walkable in head order streams in head-lexicographic document order,
// each position ascending or, where dirs (nil: all ascending) says
// OrderDesc, descending, resuming strictly after the pre ranks after
// (nil: from the start). Any other head streams in walk order over its
// connecting subtrees (see computeHeadOrder): the first step's values in
// document order, each later step's image in document order; dirs and
// after must then be nil. The tuple passed to fn is reused (copy to
// retain); fn returns false to stop early.
func acyclicForEachTuple(d *Document, q *cq.Query, f *shadowForest, s *evalScratch, dirs []OrderDir, after []int32, stop func() bool, fn func(tuple []tree.NodeID) bool) {
	if !acyclicBool(d, q, f, s) {
		return
	}
	if len(q.Head) == 0 {
		fn(nil)
		return
	}
	// When the walk holds head variables only, distinct assignments are
	// distinct tuples and the O(answers) dedup set is skipped: streaming
	// such a relation is memory-flat however many answers it has.
	emit := fn
	if f.headDedup {
		emit = dedupEmit(fn)
	}
	tuple := make([]tree.NodeID, len(q.Head))
	acyclicWalk(d, f.headWalk, s, dirs, after, stop, func(at []int32) bool {
		for j, i := range f.headPos {
			tuple[j] = d.t.ByPre(at[i])
		}
		return emit(tuple)
	})
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
