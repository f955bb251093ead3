package consistency

import (
	"fmt"

	"repro/internal/axis"
	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/tree"
)

// supportCtx bundles the read-only tree context the support tests consult.
type supportCtx struct {
	t        *tree.Tree
	n        int32
	sibRank  []int32 // node -> sibling-order rank
	sibStart []int32 // parent node -> first child rank
}

// supportedFwd reports whether node v (a candidate for x in atom R(x,y))
// has some support w in dy: ∃w ∈ dy: R(v,w).
func supportedFwd(c *supportCtx, a axis.Axis, v tree.NodeID, dy *pinDom) bool {
	t := c.t
	switch a {
	case axis.Child:
		for _, ch := range t.Children(v) {
			if dy.hasNode(ch) {
				return true
			}
		}
		return false
	case axis.ChildPlus:
		return dy.anyPreIn(t.Pre(v)+1, t.PreEnd(v))
	case axis.ChildStar:
		return dy.anyPreIn(t.Pre(v), t.PreEnd(v))
	case axis.NextSibling:
		w := t.NextSibling(v)
		return w != tree.NilNode && dy.hasNode(w)
	case axis.NextSiblingPlus:
		p := t.Parent(v)
		if p == tree.NilNode {
			return false
		}
		lo := c.sibRank[v] + 1
		hi := c.sibStart[p] + int32(t.NumChildren(p)) - 1
		return dy.anySibIn(lo, hi)
	case axis.NextSiblingStar:
		if dy.hasNode(v) {
			return true
		}
		return supportedFwd(c, axis.NextSiblingPlus, v, dy)
	case axis.Following:
		// ∃w alive: pre(w) > preEnd(v).
		return dy.anyPreIn(t.PreEnd(v)+1, c.n-1)
	case axis.Parent:
		p := t.Parent(v)
		return p != tree.NilNode && dy.hasNode(p)
	case axis.AncestorPlus:
		for p := t.Parent(v); p != tree.NilNode; p = t.Parent(p) {
			if dy.hasNode(p) {
				return true
			}
		}
		return false
	case axis.AncestorStar:
		for p := v; p != tree.NilNode; p = t.Parent(p) {
			if dy.hasNode(p) {
				return true
			}
		}
		return false
	case axis.PrevSibling:
		w := t.PrevSibling(v)
		return w != tree.NilNode && dy.hasNode(w)
	case axis.PrevSiblingPlus:
		p := t.Parent(v)
		if p == tree.NilNode {
			return false
		}
		return dy.anySibIn(c.sibStart[p], c.sibRank[v]-1)
	case axis.PrevSiblingStar:
		if dy.hasNode(v) {
			return true
		}
		return supportedFwd(c, axis.PrevSiblingPlus, v, dy)
	case axis.Preceding:
		// Preceding(v,w) ⇔ Following(w,v) ⇔ pre(v) > preEnd(w).
		return dy.minPreEnd() < t.Pre(v)
	case axis.Self:
		return dy.hasNode(v)
	case axis.DocOrder:
		return dy.anyPreIn(t.Pre(v)+1, c.n-1)
	case axis.DocOrderSucc:
		r := t.Pre(v) + 1
		return r < c.n && dy.hasNode(t.ByPre(r))
	default:
		panic(fmt.Sprintf("consistency: supportedFwd of invalid axis %d", int(a)))
	}
}

// supportedBwd reports whether node w (a candidate for y in atom R(x,y))
// has some support v in dx: ∃v ∈ dx: R(v,w).
func supportedBwd(c *supportCtx, a axis.Axis, w tree.NodeID, dx *pinDom) bool {
	t := c.t
	switch a {
	case axis.Child:
		return supportedFwd(c, axis.Parent, w, dx)
	case axis.ChildPlus:
		return supportedFwd(c, axis.AncestorPlus, w, dx)
	case axis.ChildStar:
		return supportedFwd(c, axis.AncestorStar, w, dx)
	case axis.NextSibling:
		return supportedFwd(c, axis.PrevSibling, w, dx)
	case axis.NextSiblingPlus:
		return supportedFwd(c, axis.PrevSiblingPlus, w, dx)
	case axis.NextSiblingStar:
		return supportedFwd(c, axis.PrevSiblingStar, w, dx)
	case axis.Following:
		// ∃v: Following(v,w) ⇔ ∃v: preEnd(v) < pre(w).
		return dx.minPreEnd() < t.Pre(w)
	case axis.Parent:
		return supportedFwd(c, axis.Child, w, dx)
	case axis.AncestorPlus:
		return supportedFwd(c, axis.ChildPlus, w, dx)
	case axis.AncestorStar:
		return supportedFwd(c, axis.ChildStar, w, dx)
	case axis.PrevSibling:
		return supportedFwd(c, axis.NextSibling, w, dx)
	case axis.PrevSiblingPlus:
		return supportedFwd(c, axis.NextSiblingPlus, w, dx)
	case axis.PrevSiblingStar:
		return supportedFwd(c, axis.NextSiblingStar, w, dx)
	case axis.Preceding:
		// ∃v: Preceding(v,w) ⇔ ∃v: pre(v) > preEnd(w).
		return dx.anyPreIn(t.PreEnd(w)+1, c.n-1)
	case axis.Self:
		return dx.hasNode(w)
	case axis.DocOrder:
		// ∃v: pre(v) < pre(w).
		return dx.anyPreIn(0, t.Pre(w)-1)
	case axis.DocOrderSucc:
		r := t.Pre(w) - 1
		return r >= 0 && dx.hasNode(t.ByPre(r))
	default:
		panic(fmt.Sprintf("consistency: supportedBwd of invalid axis %d", int(a)))
	}
}

// ImageIter visits image(v) ∩ dom for one step of a walk over an acyclic
// query: the nodes w with R(v, w) (a forward step) or R(w, v) (a backward
// step) whose pre ranks dom holds, as pre ranks, in document order or, in
// descending mode, in reverse document order. Each axis image is read off
// the index's rank tables — a pre-rank interval, a sibling chain, the
// ancestor chain, or one node — so a step costs the words of its interval
// or the nodes of its chain, not a filter over the whole domain:
//
//   - Child: v's children;
//   - Child+, Child*, Following, DocOrder: a pre-rank interval;
//   - Parent, Ancestor+, Ancestor*: the parent chain;
//   - the sibling axes: v's siblings after or before it;
//   - Preceding: pre ranks [0, pre(v)) with v's ancestors skipped;
//   - Self, NextSibling, PrevSibling, DocOrderSucc: one node.
//
// Seek skips to a pre rank in the iterator's direction, which is how a
// paged walk resumes without revisiting earlier nodes.
//
// The zero value is an exhausted iterator; Start and StartAll rewind it
// and keep its buffer, so one ImageIter per walk position serves a whole
// walk without allocating.
type ImageIter struct {
	ix   *TreeIndex
	dom  []uint64
	kind imageKind
	desc bool
	// imageRange: the pre ranks [lo, hi] still to scan, and the Preceding
	// cut (skip nodes whose subtree reaches it; 0 skips none).
	// imageSibs: the next sibling to test (-1: none), and the pre ranks
	// [lo, hi] the chain stays within.
	// imageAnc: the index of the next ancestor when desc.
	next, lo, hi, cut int32
	anc               []int32 // imageAnc: alive ancestors, the deepest first
}

type imageKind uint8

const (
	imageRange imageKind = iota
	imageSibs
	imageAnc
)

// StartAll rewinds it to visit every node of dom, in document order or,
// when desc, in reverse.
func (it *ImageIter) StartAll(ix *TreeIndex, dom []uint64, desc bool) {
	it.ix, it.dom, it.desc = ix, dom, desc
	it.scan(0, int32(len(ix.subtreeEnd))-1)
}

// Start rewinds it to visit image(v) ∩ dom under axis a, where v is a pre
// rank: the nodes w with a(v, w) when fwd, with a(w, v) otherwise; in
// document order or, when desc, in reverse.
func (it *ImageIter) Start(ix *TreeIndex, a axis.Axis, fwd bool, v int32, dom []uint64, desc bool) {
	it.ix, it.dom, it.desc = ix, dom, desc
	last := int32(len(ix.subtreeEnd)) - 1
	if !fwd {
		switch a {
		case axis.DocOrder: // the nodes before v
			it.scan(0, v-1)
			return
		case axis.DocOrderSucc: // v's predecessor
			it.scan(v-1, v-1)
			return
		}
		a = a.Inverse()
	}
	// A one-node image is the interval [w, w]. With w = -1 (no such node)
	// it is empty: bitset.NextIn and PrevIn raise a negative low end to 0,
	// leaving [0, -1]. A sibling chain starts at its first member, or at
	// its last one when desc.
	switch a {
	case axis.Self:
		it.scan(v, v)
	case axis.Child:
		if desc {
			it.sibs(ix.lastChildPre(v), v+1, ix.subtreeEnd[v])
		} else {
			it.sibs(ix.firstChildPre[v], v+1, ix.subtreeEnd[v])
		}
	case axis.ChildPlus:
		it.scan(v+1, ix.subtreeEnd[v])
	case axis.ChildStar:
		it.scan(v, ix.subtreeEnd[v])
	case axis.NextSibling:
		it.scan(ix.nextSibPre[v], ix.nextSibPre[v])
	case axis.NextSiblingPlus:
		if desc {
			it.sibs(ix.lastSibPre(v), v+1, last)
		} else {
			it.sibs(ix.nextSibPre[v], v+1, last)
		}
	case axis.NextSiblingStar:
		if desc {
			it.sibs(ix.lastSibPre(v), v, last)
		} else {
			it.sibs(v, v, last)
		}
	case axis.Following:
		it.scan(ix.subtreeEnd[v]+1, last)
	case axis.Parent:
		it.scan(ix.parentPre[v], ix.parentPre[v])
	case axis.AncestorPlus:
		it.ancestors(ix.parentPre[v])
	case axis.AncestorStar:
		it.ancestors(v)
	case axis.PrevSibling:
		it.scan(ix.prevSibPre[v], ix.prevSibPre[v])
	case axis.PrevSiblingPlus:
		if desc {
			it.sibs(ix.prevSibPre[v], 0, v-1)
		} else {
			it.sibs(ix.firstSibPre(v), 0, v-1)
		}
	case axis.PrevSiblingStar:
		if desc {
			it.sibs(v, 0, v)
		} else {
			it.sibs(ix.firstSibPre(v), 0, v)
		}
	case axis.Preceding:
		it.scan(0, v-1)
		it.cut = v
	case axis.DocOrder:
		it.scan(v+1, last)
	case axis.DocOrderSucc:
		it.scan(v+1, v+1)
	default:
		panic(fmt.Sprintf("consistency: image of invalid axis %d", int(a)))
	}
}

func (it *ImageIter) scan(lo, hi int32) {
	it.kind, it.lo, it.hi, it.cut = imageRange, lo, hi, 0
}

func (it *ImageIter) sibs(start, lo, hi int32) {
	it.kind, it.next, it.lo, it.hi = imageSibs, start, lo, hi
}

// ancestors collects the alive nodes on the parent chain from u up, so
// that Next can hand them out root first, or deepest first when desc.
func (it *ImageIter) ancestors(u int32) {
	it.kind, it.anc, it.next = imageAnc, it.anc[:0], 0
	for ; u >= 0; u = it.ix.parentPre[u] {
		if bitset.Test(it.dom, u) {
			it.anc = append(it.anc, u)
		}
	}
}

// Seek drops the nodes that come before pre rank r in the iterator's
// direction (below r ascending, above r descending), so that Next goes
// on from r itself or the first node past it. Called right after a
// Start; any r is safe, including ranks outside the tree.
func (it *ImageIter) Seek(r int32) {
	switch it.kind {
	case imageRange:
		if it.desc {
			it.hi = min(it.hi, r)
		} else {
			it.lo = max(it.lo, r)
		}
	case imageSibs:
		ix, w := it.ix, it.next
		if w < 0 || w == r || (w > r) != it.desc {
			return // the chain starts at or past r
		}
		// A sibling of the chain's start lies on the chain: jump to it.
		// Any other rank is reached by stepping along the chain.
		if r >= 0 && r < int32(len(ix.parentPre)) && ix.parentPre[r] == ix.parentPre[w] {
			it.next = r
			return
		}
		step := ix.nextSibPre
		if it.desc {
			step = ix.prevSibPre
		}
		for w >= 0 && w != r && (w > r) == it.desc {
			w = step[w]
		}
		it.next = w
	default:
		if it.desc {
			for int(it.next) < len(it.anc) && it.anc[it.next] > r {
				it.next++
			}
			return
		}
		k := len(it.anc)
		for k > 0 && it.anc[k-1] < r {
			k--
		}
		it.anc = it.anc[:k]
	}
}

// Next returns the next node of the image, as a pre rank, or -1 when the
// image is exhausted.
func (it *ImageIter) Next() int32 {
	switch it.kind {
	case imageRange:
		for {
			var w int32
			if it.desc {
				if w = bitset.PrevIn(it.dom, it.lo, it.hi); w < 0 {
					return -1
				}
				it.hi = w - 1
			} else {
				if w = bitset.NextIn(it.dom, it.lo, it.hi); w < 0 {
					return -1
				}
				it.lo = w + 1
			}
			if it.cut == 0 || it.ix.subtreeEnd[w] < it.cut {
				return w
			}
		}
	case imageSibs:
		step := it.ix.nextSibPre
		if it.desc {
			step = it.ix.prevSibPre
		}
		for w := it.next; w >= it.lo && w <= it.hi; w = step[w] {
			if bitset.Test(it.dom, w) {
				it.next = step[w]
				return w
			}
		}
		it.next = -1
		return -1
	default:
		if it.desc {
			if int(it.next) == len(it.anc) {
				return -1
			}
			it.next++
			return it.anc[it.next-1]
		}
		k := len(it.anc) - 1
		if k < 0 {
			return -1
		}
		w := it.anc[k]
		it.anc = it.anc[:k]
		return w
	}
}

// FastAC computes the subset-maximal arc-consistent prevaluation of q on t
// with an AC-3-style worklist over the label-filtered initial
// prevaluation, reporting (nil, false) if some variable's set empties.
// Unlike the Horn-SAT reduction it never materializes axis relations:
// every support test is a bit test or a first-alive-bit scan over the
// domain's order bitsets (plus O(children) for Child and O(depth) for
// ancestor walks).
func FastAC(t *tree.Tree, q *cq.Query) (*Prevaluation, bool) {
	if q.NumVars() == 0 {
		return &Prevaluation{}, true
	}
	if t.Len() == 0 {
		return nil, false
	}
	return FastACFrom(t, q, NewPrevaluation(t, q))
}

// Stats reports work counters of a FastAC run or of a sequence of
// exclusions, used by the ablation benchmarks, the experiment harness
// and the complexity tests.
type Stats struct {
	// Revisions counts atom revisions popped from the worklist.
	Revisions int
	// Removals counts candidate nodes pruned from domains.
	Removals int
	// Enqueues counts worklist (re-)insertions.
	Enqueues int
	// Probes counts the support tests of removal-driven exclusions
	// (Scratch.Exclude): one per candidate value rechecked, and one per
	// ancestor an ancestor walk tests for a support.
	Probes int
}

// FastACFrom runs the FastAC worklist from the given initial prevaluation
// (which it consumes and mutates). The result is the maximal
// arc-consistent prevaluation contained in init.
func FastACFrom(t *tree.Tree, q *cq.Query, init *Prevaluation) (*Prevaluation, bool) {
	p, _, ok := FastACFromStats(t, q, init)
	return p, ok
}

// FastACFromStats is FastACFrom with work counters.
func FastACFromStats(t *tree.Tree, q *cq.Query, init *Prevaluation) (*Prevaluation, Stats, bool) {
	return NewScratch().FastACFromStats(t, q, init)
}

// FastACFromStats is the worklist with sc's reusable buffers over a tree
// index built for this call; see FastACFromStats (package level) for the
// contract. The returned prevaluation's sets are init's sets.
func (sc *Scratch) FastACFromStats(t *tree.Tree, q *cq.Query, init *Prevaluation) (*Prevaluation, Stats, bool) {
	if q.NumVars() == 0 {
		return &Prevaluation{}, Stats{}, true
	}
	if t.Len() == 0 {
		return nil, Stats{}, false
	}
	return sc.fastACFromStatsIx(NewTreeIndex(t), q, init)
}

// fastACFromStatsIx is the worklist body against a borrowed document
// index: it loads init's sets into the Scratch's pre-rank domains, runs
// the shared worklist seeded with every atom, and writes the survivors
// back. The returned prevaluation is init.
func (sc *Scratch) fastACFromStatsIx(ix *TreeIndex, q *cq.Query, init *Prevaluation) (*Prevaluation, Stats, bool) {
	lv, ok := sc.loadSets(ix, q, init)
	if !ok {
		return nil, Stats{}, false
	}
	stats, ok := sc.propagateAll(lv, q)
	if !ok {
		return nil, stats, false
	}
	for x, s := range init.Sets {
		if int(lv.count[x]) < s.Len() {
			storePre(ix.t, s, lv.cur[x].pre)
		}
	}
	return init, stats, true
}

// propagateAll runs the worklist on the loaded level lv seeded with
// every atom, leaving the maximal arc-consistent domains in its words.
func (sc *Scratch) propagateAll(lv *pinLevel, q *cq.Query) (Stats, bool) {
	sc.allAtoms = sc.allAtoms[:0]
	for i := range q.Atoms {
		sc.allAtoms = append(sc.allAtoms, int32(i))
	}
	return sc.acRun.propagate(lv, sc.allAtoms)
}

// FastACPreIx reports whether q has an arc-consistent prevaluation on
// ix's tree and leaves the maximal one in the Scratch's pre-rank words,
// for DomainPre, Exclude and PinBaseAC. No NodeSet is built.
func (sc *Scratch) FastACPreIx(ix *TreeIndex, q *cq.Query) bool {
	lv, ok := sc.loadLevel(ix, q)
	if !ok {
		return false
	}
	_, ok = sc.propagateAll(lv, q)
	return ok
}

// Semijoin is one step of a fixed revise schedule: it prunes the
// candidates of atom Atom's left-hand variable that lack a support in the
// right-hand variable's domain (Fwd), or those of the right-hand variable
// against the left-hand one (!Fwd).
type Semijoin struct {
	Atom int32
	Fwd  bool
}

// SemijoinIx runs a fixed schedule of revise steps — the FastAC
// worklist's revise, kernel or probe — once each and in order, over the
// label-filtered initial domains against a borrowed document index. It
// reports false as soon as a domain empties. Yannakakis' two passes over
// a forest-shaped query (postorder up, then preorder down) are such a
// schedule, and they reach the maximal arc-consistent prevaluation
// without a worklist. The reduced domains are left in the Scratch's
// pre-rank words, which DomainPre reads.
func (sc *Scratch) SemijoinIx(ix *TreeIndex, q *cq.Query, steps []Semijoin) bool {
	lv, ok := sc.loadLevel(ix, q)
	if !ok {
		return false
	}
	for _, st := range steps {
		at := q.Atoms[st.Atom]
		tgt := at.X
		if !st.Fwd {
			tgt = at.Y
		}
		if sc.acRun.revise(lv, at, st.Fwd) > 0 && lv.count[tgt] == 0 {
			return false
		}
	}
	return true
}

// DomainPre returns variable x's domain as left by the last FastACIx,
// FastACPreIx, SemijoinIx or PinnedFastACIx call on sc (and the Exclude
// calls since), as words over pre-order ranks. The words are
// Scratch-owned: read-only, and valid until the next domain load on sc;
// Exclude updates them in place.
func (sc *Scratch) DomainPre(x cq.Var) []uint64 { return sc.acRun.levels[0].cur[x].pre }

// loadLevel binds the Scratch's AC run to ix and q and loads its level 0
// with the label-filtered initial domains straight from the index's label
// words: a variable's first label atom is a word copy, each further one an
// AndInto, and a variable without one a fill — O(n/64) words per atom,
// nothing per node. It reports false if some domain is empty.
func (sc *Scratch) loadLevel(ix *TreeIndex, q *cq.Query) (*pinLevel, bool) {
	lv := sc.bindLevel(ix, q)
	for x := range lv.count {
		lv.count[x] = -1 // no label atom seen yet
	}
	for _, la := range q.Labels {
		pre, lw := lv.own[la.X].pre, ix.labelWords(la.Label)
		if lv.count[la.X] < 0 {
			copy(pre, lw)
			lv.count[la.X] = int32(bitset.Count(pre))
		} else {
			lv.count[la.X] = int32(bitset.AndInto(pre, lw))
		}
	}
	n := int32(ix.t.Len())
	for x, c := range lv.count {
		if c < 0 {
			bitset.ZeroAll(lv.own[x].pre)
			bitset.FillRange(lv.own[x].pre, 0, n-1)
			lv.count[x] = n
		}
	}
	return lv, sc.acBase.seal(lv)
}

// loadSets is loadLevel from caller-supplied initial sets (FastACFrom's
// oracle entry): each set's members are scattered into pre words.
func (sc *Scratch) loadSets(ix *TreeIndex, q *cq.Query, init *Prevaluation) (*pinLevel, bool) {
	lv := sc.bindLevel(ix, q)
	for x, s := range init.Sets {
		pre := lv.own[x].pre
		bitset.ZeroAll(pre)
		s.ForEach(func(v tree.NodeID) bool {
			bitset.Set(pre, ix.t.Pre(v))
			return true
		})
		lv.count[x] = int32(s.Len())
	}
	return lv, sc.acBase.seal(lv)
}

// bindLevel binds the Scratch's AC run to ix and q and returns its level
// 0 with every domain's pre words sized for the tree, contents
// unspecified.
func (sc *Scratch) bindLevel(ix *TreeIndex, q *cq.Query) *pinLevel {
	b, r := &sc.acBase, &sc.acRun
	b.bind(ix, q)
	r.b, r.depth = b, 0
	if r.ex != nil {
		r.ex.st, r.ex.stale = Stats{}, true
	}
	lv := r.level(0)
	for x := range lv.own {
		lv.own[x].pre = bitset.Resize(lv.own[x].pre, b.nw)
	}
	return lv
}

// seal finishes the load of level lv: it reports false if some domain is
// empty, and otherwise makes every domain the level's own, its sibling
// and preEnd words scattered from its pre words where bind keeps them.
func (b *PinBase) seal(lv *pinLevel) bool {
	for x := range lv.own {
		if lv.count[x] == 0 {
			return false
		}
		lv.own[x].scatterOrders(b, lv.count[x])
		lv.cur[x], lv.owned[x] = lv.own[x], true
	}
	return true
}

// storePre makes s the set of the nodes whose pre ranks pre holds.
func storePre(t *tree.Tree, s *NodeSet, pre []uint64) {
	s.Reset(t.Len())
	bitset.ForEach(pre, func(pr int32) bool {
		s.Add(t.ByPre(pr))
		return true
	})
}
