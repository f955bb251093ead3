package core

import (
	"fmt"
	"slices"

	"repro/internal/axis"
	"repro/internal/bitset"
	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

// The acyclic strategy (StrategyAcyclic) evaluates queries whose query
// graph's undirected shadow is a forest in the style of Yannakakis'
// algorithm [Yannakakis 1981], cited in §1.1 as the reason APQs evaluate
// particularly well. It works on every tree structure and every acyclic
// query regardless of signature — acyclicity, not the X-property,
// supplies tractability here. Each forest component is rooted at its
// first head variable, and one bottom-up semijoin pass (prune each parent
// against its child, children first) leaves every value of a variable
// with a support in each child's reduced domain. That is all the
// consumers read: the query holds iff no domain empties, a root's
// reduced domain is exactly the values that extend to a solution of its
// component (the monadic answer), and a walk that assigns every variable
// after its forest parent never reaches a dead end. The pass is a fixed
// schedule of revise steps, built once at Prepare and run by the
// consistency package's one revise (the same kernel-or-probe step as the
// FastAC worklist). Enumeration then walks the forest over the reduced
// pre-rank domains, visiting for each parent value only its axis image
// (consistency.ImageIter).

// shadowForest is a rooted-forest view of an acyclic query graph.
type shadowForest struct {
	q     *cq.Query
	roots []cq.Var
	// For each variable: the atom linking it to its forest parent, and
	// whether the atom points parent -> child (down) or child -> parent.
	// Each component is rooted at its first head variable in head order,
	// or at its lowest variable when it holds none.
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
	// an earlier one or is the first of its forest component (then its
	// root). Each one after the first of its component is then the forest
	// child of an earlier one. Ordered requests for such a head walk
	// headWalk directly.
	inOrder bool
	// headDedup says whether headWalk holds a non-head variable, so that
	// distinct assignments can project to the same head tuple.
	headDedup bool
	// schedule is the bottom-up half of Yannakakis' semijoin program over
	// the linking atoms: in postorder, prune each parent against its
	// child. Rooted at the head, no consumer needs the top-down half.
	// Derived once at build time and run by acyclicBool.
	schedule []consistency.Semijoin
}

// walkStep is one variable of a walk: the variable, the walk position of
// its forest parent (-1 for a root, which ranges over its whole domain),
// and the linking atom's axis, read from the parent's value forward (atom
// R(parent, x)) or backward (R(x, parent)).
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
	// rootAt roots the component of an unvisited variable r at r and
	// grows it breadth first.
	visited := make([]bool, n)
	rootAt := func(r cq.Var) {
		if visited[r] {
			return
		}
		f.roots = append(f.roots, r)
		queue := []cq.Var{r}
		visited[r] = true
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, e := range g.Out(x) {
				if !visited[e.To] {
					visited[e.To] = true
					f.link(x, e.To, e.AtomIndex, true)
					queue = append(queue, e.To)
				}
			}
			for _, e := range g.In(x) {
				if !visited[e.From] {
					visited[e.From] = true
					f.link(x, e.From, e.AtomIndex, false)
					queue = append(queue, e.From)
				}
			}
		}
	}
	for _, h := range q.Head {
		rootAt(h)
	}
	for x := range n {
		rootAt(cq.Var(x))
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
	// then the atom's left-hand side, revised forward.
	f.schedule = make([]consistency.Semijoin, 0, n-len(f.roots))
	for _, x := range f.postorder {
		if f.parent[x] != cq.NilVar {
			f.schedule = append(f.schedule, consistency.Semijoin{Atom: int32(f.linkAtom[x]), Fwd: f.linkDown[x]})
		}
	}
	return f, nil
}

// link makes c a forest child of p through atom ai, which is R(p, c)
// when down and R(c, p) otherwise.
func (f *shadowForest) link(p, c cq.Var, ai int, down bool) {
	f.parent[c], f.linkAtom[c], f.linkDown[c] = p, ai, down
	f.children[p] = append(f.children[p], c)
}

// walk returns the steps that assign order, a list of variables in which
// each one comes after its forest parent or is a root: it ranges over
// its parent's axis image (the linking atom read as built), a root over
// its whole domain. The bottom-up pass leaves every value with a support
// in each child's domain, so such a walk never backs out of a dead end.
func (f *shadowForest) walk(order []cq.Var) []walkStep {
	pos := make([]int, f.q.NumVars())
	for i := range pos {
		pos[i] = -1
	}
	steps := make([]walkStep, len(order))
	for i, x := range order {
		pos[x] = i
		steps[i] = walkStep{x: x, from: -1}
		if p := f.parent[x]; p != cq.NilVar {
			if pos[p] < 0 {
				panic(fmt.Sprintf("core: walk assigns %s before its forest parent %s", f.q.VarName(x), f.q.VarName(p)))
			}
			steps[i].from = pos[p]
			steps[i].ax = f.q.Atoms[f.linkAtom[x]].Axis
			steps[i].fwd = f.linkDown[x]
		}
	}
	return steps
}

// walkableInOrder reports whether a walk can assign head in head order:
// the variables are distinct and each one is a root or comes after its
// forest parent. The roots being the components' first head variables,
// that is: each one is adjacent in the forest to an earlier one or is
// the first of its component. The walk then assigns only head variables,
// so its assignments are the distinct head tuples.
func (f *shadowForest) walkableInOrder(head []cq.Var) bool {
	for i, x := range head {
		earlier := head[:i]
		if slices.Contains(earlier, x) {
			return false
		}
		if p := f.parent[x]; p != cq.NilVar && !slices.Contains(earlier, p) {
			return false
		}
	}
	return true
}

// computeHeadOrder returns, for every forest component holding head
// variables, the smallest connected subtree holding them, in
// parent-before-child order. The component's root is a head variable, so
// that subtree is the root and every variable whose forest subtree holds
// a head variable. After the bottom-up pass every value of a variable
// extends to a solution of its forest subtree, so tuple enumeration need
// not walk the branches this subtree leaves out, nor the components
// without head variables (acyclicBool has established that they are
// nonempty).
func computeHeadOrder(q *cq.Query, f *shadowForest) []cq.Var {
	isHead := make([]bool, q.NumVars())
	for _, x := range q.Head {
		isHead[x] = true
	}
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
	for _, r := range f.roots {
		if holds[r] > 0 {
			order = f.appendHolding(order, r, holds)
		}
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

// acyclicBool decides an acyclic query against a prebuilt shadow forest
// by the bottom-up semijoin pass: satisfiable iff it leaves every domain
// nonempty (an empty conjunction always is, an empty tree never). The
// reduced domains stay in s.ac's pre-rank words (Scratch.DomainPre),
// valid until the scratch's next use: each root's holds exactly the
// values that extend to a solution of its component, and every value of
// a variable has a support in each forest child's.
func acyclicBool(d *Document, q *cq.Query, f *shadowForest, s *evalScratch) bool {
	return s.ac.SemijoinIx(d.ix, q, f.schedule)
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
// domains that acyclicBool left in s: each step ranges over the axis
// image of its forest parent's value intersected with its variable's
// domain (the whole domain at a root), in document order, or in reverse
// where dirs (nil: all ascending) says OrderDesc. It calls leaf with the
// pre ranks assigned, by step (a reused buffer), once per complete
// assignment, and stops when leaf returns false. The bottom-up pass left
// every parent value a support in its child's domain, so every image the
// walk opens is nonempty: it never backs out of a dead end, and an
// assignment costs O(1) amortised beyond the image shapes' own overhead
// (see consistency.ImageIter).
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
// document order, without any enumeration: the head variable roots its
// forest component, so after the bottom-up pass every value left in its
// pre-rank words extends to a solution, and those words ARE the answer.
func acyclicForEachNode(d *Document, q *cq.Query, f *shadowForest, s *evalScratch, stop func() bool, fn func(v tree.NodeID) bool) {
	if !acyclicBool(d, q, f, s) {
		return
	}
	bitset.ForEach(s.ac.DomainPre(q.Head[0]), func(pr int32) bool {
		if stop != nil && stop() {
			return false
		}
		return fn(d.t.ByPre(pr))
	})
}
