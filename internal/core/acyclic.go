package core

import (
	"fmt"

	"repro/internal/axis"
	"repro/internal/bitset"
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
// tractability here.

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

// semijoinPrune removes from keep every node without an atom-support in
// against: with forward=true it keeps v iff ∃w ∈ against: a(v, w) (v on
// the atom's left-hand side), with forward=false it keeps w iff ∃v ∈
// against: a(v, w). Large semijoins run through the bulk axis image
// kernels — scatter `against` to pre-rank words, one whole-set kernel
// pass, then an O(|keep|) membership filter — turning the nested
// O(|keep|·|against|) probe loop into a few linear sweeps; small ones keep
// the nested loop (the kernel's fixed O(n) cost would dominate). The two
// paths compute the identical surviving set.
func semijoinPrune(d *Document, s *evalScratch, a axis.Axis, keep, against *consistency.NodeSet, forward bool) {
	t := d.t
	doomed := s.doomed[:0]
	defer func() { s.doomed = doomed[:0] }()
	if useSemijoinKernel(keep.Len(), against.Len(), t.Len()) {
		nw := bitset.Words(t.Len())
		s.srcWords = bitset.Grow(s.srcWords, nw)
		s.imgWords = bitset.Resize(s.imgWords, nw)
		against.ForEach(func(w tree.NodeID) bool {
			bitset.Set(s.srcWords, t.Pre(w))
			return true
		})
		if forward {
			consistency.Preimage(a, d.ix, s.srcWords, s.imgWords)
		} else {
			consistency.Image(a, d.ix, s.srcWords, s.imgWords)
		}
		keep.ForEach(func(v tree.NodeID) bool {
			if !bitset.Test(s.imgWords, t.Pre(v)) {
				doomed = append(doomed, v)
			}
			return true
		})
		for _, v := range doomed {
			keep.Remove(v)
		}
		return
	}
	keep.ForEach(func(v tree.NodeID) bool {
		found := false
		against.ForEach(func(w tree.NodeID) bool {
			u1, u2 := v, w
			if !forward {
				u1, u2 = w, v
			}
			if axis.Holds(t, a, u1, u2) {
				found = true
				return false
			}
			return true
		})
		if !found {
			doomed = append(doomed, v)
		}
		return true
	})
	for _, v := range doomed {
		keep.Remove(v)
	}
}

// useSemijoinKernel is the acyclic engine's density heuristic: the nested
// probe loop costs ~|keep|·|against| axis tests, the kernel path
// O(|against| + n + |keep|) — break-even near |keep|·|against| = n. The
// consistency package's KernelPolicy override applies here too, so the
// parity tests can pin either path.
func useSemijoinKernel(keep, against, n int) bool {
	switch consistency.CurrentKernelPolicy() {
	case consistency.KernelAlways:
		return true
	case consistency.KernelNever:
		return false
	}
	return keep*against >= n
}

// acyclicReduce runs the two semijoin passes and returns the globally
// consistent candidate sets, or ok=false if some set empties. The returned
// sets are scratch-owned: valid until the scratch's next use.
func acyclicReduce(d *Document, q *cq.Query, f *shadowForest, s *evalScratch) ([]*consistency.NodeSet, bool) {
	init := s.ac.InitialPrevaluationIx(d.ix, q)
	sets := init.Sets
	// Bottom-up: prune parent candidates lacking a consistent child value.
	// The linking atom is R(parent, child) when linkDown — the parent is
	// then the atom's left-hand side (forward semijoin) — and
	// R(child, parent) otherwise.
	for _, x := range f.postorder {
		p := f.parent[x]
		if p == cq.NilVar {
			continue
		}
		if sets[x].Empty() {
			return nil, false
		}
		at := q.Atoms[f.linkAtom[x]]
		semijoinPrune(d, s, at.Axis, sets[p], sets[x], f.linkDown[x])
	}
	// Top-down: prune child candidates lacking a consistent parent value
	// (the child is the atom's right-hand side when linkDown).
	for i := len(f.postorder) - 1; i >= 0; i-- {
		x := f.postorder[i]
		p := f.parent[x]
		if p == cq.NilVar {
			if sets[x].Empty() {
				return nil, false
			}
			continue
		}
		at := q.Atoms[f.linkAtom[x]]
		semijoinPrune(d, s, at.Axis, sets[x], sets[p], !f.linkDown[x])
		if sets[x].Empty() {
			return nil, false
		}
	}
	return sets, true
}

// acyclicBool decides an acyclic query against a prebuilt shadow forest:
// satisfiable iff the semijoin reduction leaves every candidate set
// nonempty.
func acyclicBool(d *Document, q *cq.Query, f *shadowForest, s *evalScratch) bool {
	if q.NumVars() == 0 {
		return true // empty conjunction
	}
	if d.t.Len() == 0 {
		return false
	}
	_, ok := acyclicReduce(d, q, f, s)
	return ok
}

// acyclicSatisfaction returns one consistent valuation, or nil.
func acyclicSatisfaction(d *Document, q *cq.Query, f *shadowForest, s *evalScratch) consistency.Valuation {
	if q.NumVars() == 0 {
		return consistency.Valuation{}
	}
	t := d.t
	if t.Len() == 0 {
		return nil
	}
	sets, ok := acyclicReduce(d, q, f, s)
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
	t := d.t
	if t.Len() == 0 {
		return
	}
	sets, ok := acyclicReduce(d, q, f, s)
	if !ok {
		return
	}
	theta := make(consistency.Valuation, q.NumVars())
	tuple := make([]tree.NodeID, len(q.Head))
	// headOrder always contains every head variable (head components are
	// enumerated whole), so when it holds nothing else, distinct
	// assignments project to distinct tuples and the O(answers) dedup set
	// can be skipped — streaming a projection-free relation is then
	// memory-flat however many answers it has.
	emit := fn
	if enumNeedsDedup(q.Head, f.headOrder) {
		emit = dedupEmit(map[string]bool{}, fn)
	}
	acyclicEnumFrom(t, q, f, sets, f.headOrder, theta, 0, tuple, stop, emit)
}

// acyclicForEachNode streams the answer of a monadic acyclic query in
// increasing NodeID order — without any enumeration recursion: after the
// two semijoin passes the candidate sets are globally consistent
// (Yannakakis), so every surviving candidate of the head variable extends
// to a full solution and the reduced set IS the answer.
func acyclicForEachNode(d *Document, q *cq.Query, f *shadowForest, s *evalScratch, stop func() bool, fn func(v tree.NodeID) bool) {
	if d.t.Len() == 0 {
		return
	}
	sets, ok := acyclicReduce(d, q, f, s)
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
