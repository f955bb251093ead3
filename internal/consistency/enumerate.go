package consistency

import (
	"repro/internal/axis"
	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/tree"
)

// This file implements the incremental pinned arc-consistency engine behind
// output-sensitive answer enumeration.
//
// The tuple-membership construction below Theorem 3.5 decides "is tuple
// 〈a1..ak〉 in the answer?" by adding singleton relations X_i = {a_i} and
// re-testing arc consistency. Running that from scratch per tuple costs a
// full O(‖A‖·|Q|) pass each time — the |A|^k · ‖A‖ · |Q| worst case the
// paper states. Two observations make enumeration output-sensitive
// instead:
//
//  1. The maximal arc-consistent prevaluation under pins is contained in
//     the unpinned one (arc consistency is monotone in the initial
//     domains), so every pinned run may start from the already-computed
//     maximal prevaluation rather than the label-filtered full sets.
//  2. Starting from an arc-consistent state, only atoms touching the
//     newly pinned variable can be violated, so the worklist seeds with
//     those atoms alone, and domains are shared copy-on-write: a pin
//     touches O(words) state for the pinned variable plus state
//     proportional to the propagation it actually causes.
//
// PinBase snapshots the maximal prevaluation (plus the tree orderings)
// once per enumeration; PinRun is a stack of pin levels over it, used to
// enumerate head tuples with prefix pruning: if pinning a tuple prefix
// already empties a domain, no extension of that prefix is an answer.

// The word-level bitset helpers formerly defined here (bitTest, anyBitIn,
// forEachBit, ...) moved to the shared internal/bitset package, which the
// pin domains below, NodeSet (prevaluation.go), and the bulk axis image
// kernels (kernels.go) all build on.

// --- PinBase --------------------------------------------------------------

// domWords is one variable's alive set stored up to three ways: as a
// bitset over pre-order ranks, over sibling-order ranks, and over
// positions in the (preEnd, pre) order. It is the package's only domain
// representation: the axis support tests probe it through pinDom
// (fastac.go), and the bulk image kernels (kernels.go) read its pre-rank
// words. The sibling-order and preEnd words are kept only when some atom
// of the bound query has an axis whose probe reads them (PinBase.bind);
// otherwise they are empty and every update skips them.
type domWords struct {
	pre    []uint64
	sib    []uint64
	preEnd []uint64
}

// reset makes w the empty set over b's universe, with the orderings b's
// query reads, reusing w's backing arrays.
func (w *domWords) reset(b *PinBase) {
	w.pre = bitset.Grow(w.pre, b.nw)
	w.sib = bitset.Grow(w.sib, b.sibNW)
	w.preEnd = bitset.Grow(w.preEnd, b.preEndNW)
}

// copyFrom makes w a private copy of o, reusing w's backing arrays.
func (w *domWords) copyFrom(o domWords) {
	w.pre = append(w.pre[:0], o.pre...)
	w.sib = append(w.sib[:0], o.sib...)
	w.preEnd = append(w.preEnd[:0], o.preEnd...)
}

func (w *domWords) add(ix *TreeIndex, v tree.NodeID) {
	bitset.Set(w.pre, ix.t.Pre(v))
	if len(w.sib) > 0 {
		bitset.Set(w.sib, ix.sibRank[v])
	}
	if len(w.preEnd) > 0 {
		bitset.Set(w.preEnd, ix.preEndPos[v])
	}
}

// remove deletes the node of pre rank pr.
func (w *domWords) remove(ix *TreeIndex, pr int32) {
	bitset.Clear(w.pre, pr)
	if len(w.sib) == 0 && len(w.preEnd) == 0 {
		return
	}
	v := ix.t.ByPre(pr)
	if len(w.sib) > 0 {
		bitset.Clear(w.sib, ix.sibRank[v])
	}
	if len(w.preEnd) > 0 {
		bitset.Clear(w.preEnd, ix.preEndPos[v])
	}
}

// scatterOrders makes w's sibling-order and preEnd words the members of
// its pre words, count of them, sized for b's query: empty when bind keeps
// neither ordering (the common case, which then costs nothing), and a
// fill when w holds every node.
func (w *domWords) scatterOrders(b *PinBase, count int32) {
	w.sib = bitset.Grow(w.sib, b.sibNW)
	w.preEnd = bitset.Grow(w.preEnd, b.preEndNW)
	if int(count) == b.n {
		bitset.FillRange(w.sib, 0, count-1) // no-op on an unkept ordering
		bitset.FillRange(w.preEnd, 0, count-1)
		return
	}
	if b.sibNW == 0 && b.preEndNW == 0 {
		return
	}
	bitset.ForEach(w.pre, func(pr int32) bool {
		v := b.t.ByPre(pr)
		if len(w.sib) > 0 {
			bitset.Set(w.sib, b.ix.sibRank[v])
		}
		if len(w.preEnd) > 0 {
			bitset.Set(w.preEnd, b.ix.preEndPos[v])
		}
		return true
	})
}

// PinBase is an immutable snapshot of the subset-maximal arc-consistent
// prevaluation of a query on a tree, prepared for repeated pinned runs:
// each variable's candidate set is stored as domWords, so that a PinRun
// can restore any domain with a few word copies.
//
// A PinBase is read-only after construction and safe to share between
// concurrent PinRuns.
type PinBase struct {
	t  *tree.Tree
	q  *cq.Query
	n  int // number of tree nodes
	nw int // words per bitset
	nv int // number of query variables

	// sibNW and preEndNW are the word counts of a domain's sibling-order
	// and preEnd-order bitsets: nw when some atom's axis probes them, 0
	// otherwise.
	sibNW, preEndNW int

	ix      *TreeIndex // borrowed document index (orderings, preEnd values)
	sctx    supportCtx
	atomsOf [][]int32 // variable -> indexes of atoms touching it

	words      []domWords // per variable: candidates in the three orderings
	counts     []int32    // per variable: number of candidates
	atomsStore [][]int32
}

// PinBaseAC snapshots the domains the last FastACPreIx or FastACIx call
// on sc left — the maximal arc-consistent prevaluation — into
// Scratch-owned storage, as a word copy over the same borrowed document
// index. The result is valid until the next PinBaseAC call on sc — and no
// longer than the borrowed index; while valid it is safe for concurrent
// PinRuns.
func (sc *Scratch) PinBaseAC() *PinBase {
	a, b, lv := &sc.acBase, &sc.pinBase, &sc.acRun.levels[0]
	b.bind(a.ix, a.q)
	b.words = grow(b.words, b.nv)
	b.counts = grow(b.counts, b.nv)
	for x := range b.words {
		b.words[x].copyFrom(lv.cur[x])
		b.counts[x] = lv.count[x]
	}
	return b
}

// bind points b at ix and q: sizes, support context and the atoms of each
// variable, but no candidate sets.
func (b *PinBase) bind(ix *TreeIndex, q *cq.Query) {
	t := ix.t
	n := t.Len()
	nv := q.NumVars()
	b.t, b.q, b.n, b.nv = t, q, n, nv
	b.nw = bitset.Words(n)
	b.ix = ix
	b.sctx = supportCtx{t: t, n: int32(n), sibRank: ix.sibRank, sibStart: ix.sibStart}

	b.sibNW, b.preEndNW = 0, 0
	for _, at := range q.Atoms {
		switch at.Axis {
		case axis.NextSiblingPlus, axis.NextSiblingStar, axis.PrevSiblingPlus, axis.PrevSiblingStar:
			b.sibNW = b.nw // anySibIn, either direction
		case axis.Following, axis.Preceding:
			b.preEndNW = b.nw // minPreEnd, either direction
		}
	}

	for len(b.atomsStore) < nv {
		b.atomsStore = append(b.atomsStore, nil)
	}
	b.atomsOf = b.atomsStore[:nv]
	for x := range b.atomsOf {
		b.atomsOf[x] = b.atomsOf[x][:0]
	}
	for i, at := range q.Atoms {
		b.atomsOf[at.X] = append(b.atomsOf[at.X], int32(i))
		if at.Y != at.X {
			b.atomsOf[at.Y] = append(b.atomsOf[at.Y], int32(i))
		}
	}
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// --- pinDom: the support tests' view of a domain --------------------------

// pinDom is one variable's current domWords, with the base supplying the
// tree context the alive-set queries need. All ranges are inclusive; the
// queries tolerate empty or out-of-range intervals.
type pinDom struct {
	b *PinBase
	domWords
}

// hasNode reports whether node v is alive.
func (d *pinDom) hasNode(v tree.NodeID) bool { return bitset.Test(d.pre, d.b.t.Pre(v)) }

// anyPreIn reports whether an alive node has pre rank in [lo, hi].
func (d *pinDom) anyPreIn(lo, hi int32) bool { return bitset.AnyIn(d.pre, lo, hi) }

// anySibIn reports whether an alive node has sibling-order rank in [lo, hi].
func (d *pinDom) anySibIn(lo, hi int32) bool { return bitset.AnyIn(d.sib, lo, hi) }

// minPreEnd returns the minimum preEnd among alive nodes, or n when the
// domain is empty.
func (d *pinDom) minPreEnd() int32 {
	pos := bitset.First(d.preEnd)
	if pos < 0 {
		return int32(d.b.n)
	}
	return d.b.ix.preEndVal[pos]
}

// --- PinRun ---------------------------------------------------------------

// pinLevel holds the domain state after one pin: per variable, the current
// bitsets (aliasing the level below until the variable is mutated —
// copy-on-write), plus alive counts.
type pinLevel struct {
	cur   []domWords
	owned []bool // whether cur[x] is this level's own copy
	count []int32
	own   []domWords // lazily allocated owned buffers, reused across pins
}

func (lv *pinLevel) ensure(nv int) {
	lv.cur = grow(lv.cur, nv)
	lv.owned = grow(lv.owned, nv)
	lv.count = grow(lv.count, nv)
	lv.own = grow(lv.own, nv)
}

// PinRun enumerates over a PinBase by pushing and popping pins. It is a
// stack: Push(x, v) restricts x's domain to {v} on top of the current
// state and propagates arc consistency incrementally; Pop undoes the most
// recent successful Push in O(1) (copy-on-write levels make undo free).
//
// A PinRun is NOT safe for concurrent use; create one per goroutine over a
// shared PinBase.
type PinRun struct {
	b         *PinBase
	depth     int
	levels    []pinLevel
	queue     []int32
	inQueue   []bool
	removeBuf []int32    // pre ranks pending removal in the current revision
	imgBuf    []uint64   // bulk-kernel support bitset of the current revision
	viewT     pinDom     // reusable support-test views (target and support
	viewS     pinDom     // side of the current revision)
	ex        *exclState // Scratch.Exclude's state, made by the first call
}

// NewPinRun returns a PinRun positioned at the unpinned snapshot.
func NewPinRun(b *PinBase) *PinRun { return &PinRun{b: b} }

// PinRunFor is NewPinRun backed by Scratch-owned buffers: the result is
// valid until the next PinRunFor call on sc.
func (sc *Scratch) PinRunFor(b *PinBase) *PinRun {
	sc.pinRun.b = b
	sc.pinRun.depth = 0
	return &sc.pinRun
}

// Depth returns the number of pins currently pushed.
func (r *PinRun) Depth() int { return r.depth }

// words returns the current bitsets of variable x at stack depth d (d pins
// applied).
func (r *PinRun) words(d int, x cq.Var) domWords {
	if d == 0 {
		return r.b.words[x]
	}
	return r.levels[d-1].cur[x]
}

func (r *PinRun) countAt(d int, x cq.Var) int32 {
	if d == 0 {
		return r.b.counts[x]
	}
	return r.levels[d-1].count[x]
}

// level returns the recycled level at stack depth d, sized for the base.
func (r *PinRun) level(d int) *pinLevel {
	for len(r.levels) <= d {
		r.levels = append(r.levels, pinLevel{})
	}
	lv := &r.levels[d]
	lv.ensure(r.b.nv)
	return lv
}

// ownVar makes the level's bitsets for x private by copying the aliased words
// into the level-owned buffers. No-op if already owned.
func (lv *pinLevel) ownVar(x cq.Var) {
	if lv.owned[x] {
		return
	}
	lv.own[x].copyFrom(lv.cur[x])
	lv.cur[x] = lv.own[x]
	lv.owned[x] = true
}

// Push restricts x's domain to {v} on top of the current state and
// propagates arc consistency. It returns true and commits one stack level
// if the pinned state remains arc-consistent (i.e. some answer extends the
// current pin prefix with x = v); otherwise it returns false and leaves
// the stack unchanged.
func (r *PinRun) Push(x cq.Var, v tree.NodeID) bool {
	b := r.b
	d := r.depth
	lv := r.level(d)
	for y := 0; y < b.nv; y++ {
		lv.cur[y] = r.words(d, cq.Var(y))
		lv.owned[y] = false
		lv.count[y] = r.countAt(d, cq.Var(y))
	}
	if !bitset.Test(lv.cur[x].pre, b.t.Pre(v)) {
		return false // v already pruned from x's domain
	}
	// Pin: x's bitsets become the singleton {v}.
	lv.own[x].reset(b)
	lv.own[x].add(b.ix, v)
	lv.cur[x], lv.owned[x], lv.count[x] = lv.own[x], true, 1
	if _, ok := r.propagate(lv, b.atomsOf[x]); !ok {
		return false
	}
	r.depth = d + 1
	return true
}

// Pop undoes the most recent successful Push.
func (r *PinRun) Pop() {
	if r.depth == 0 {
		panic("consistency: PinRun.Pop on empty pin stack")
	}
	r.depth--
}

// propagate runs the AC-3-style worklist on lv, seeded with the given
// atoms: every atom for a full FastAC run, the pinned variable's atoms for
// Push (from an arc-consistent state only those can be violated). It
// reports the run's work counters and false if some domain empties.
func (r *PinRun) propagate(lv *pinLevel, seed []int32) (Stats, bool) {
	var st Stats
	b := r.b
	na := len(b.q.Atoms)
	if cap(r.inQueue) < na {
		r.inQueue = make([]bool, na)
	}
	inQueue := r.inQueue[:na]
	for i := range inQueue {
		inQueue[i] = false
	}
	queue := r.queue[:0]
	for _, ai := range seed {
		queue = append(queue, ai)
		inQueue[ai] = true
	}
	// enqueueTouching re-queues the atoms of a pruned variable, except the
	// atom being revised: for a two-variable atom one forward+backward
	// pass leaves it fully arc-consistent (pruned values are unsupported,
	// so they support nothing on the opposite side), and re-revising it
	// immediately would find no work. Self-loop atoms R(x,x) MUST re-queue
	// themselves (except = -1): there the two sides share one domain, so a
	// removal can strip the remaining values' own supports.
	enqueueTouching := func(x cq.Var, except int32) {
		for _, ai := range b.atomsOf[x] {
			if ai != except && !inQueue[ai] {
				inQueue[ai] = true
				queue = append(queue, ai)
				st.Enqueues++
			}
		}
	}
	consistent := true
	for pop := 0; consistent && pop < len(queue); pop++ {
		ai := queue[pop]
		inQueue[ai] = false
		st.Revisions++
		at := b.q.Atoms[ai]
		except := ai
		if at.X == at.Y {
			except = -1 // self-loop: must re-revise itself to a fixpoint
		}
		// Forward (prune x), then backward (prune y).
		for side, x := range [2]cq.Var{at.X, at.Y} {
			removed := r.revise(lv, at, side == 0)
			if removed == 0 {
				continue
			}
			st.Removals += removed
			if lv.count[x] == 0 {
				consistent = false
				break
			}
			enqueueTouching(x, except)
		}
	}
	r.queue = queue[:0]
	return st, consistent
}

// revise prunes the candidates of one side of atom at — x when fwd, y
// otherwise — that lack support in the other side's current domain, and
// returns the number removed. Dense domains revise through the bulk kernel
// (support = preimage/image of the other side's alive set, one pass over
// the words); sparse ones probe per alive candidate. Both paths compute
// the identical removal set; reviseWithKernel documents the break-even.
// A kernel revise of a domain that keeps pre words alone is the word AND
// dom &= support (andPre); otherwise the removed pre ranks are listed in
// r.removeBuf and cleared from every ordering the domain keeps.
func (r *PinRun) revise(lv *pinLevel, at cq.AxisAtom, fwd bool) int {
	b := r.b
	tgt, sup := at.X, at.Y
	if !fwd {
		tgt, sup = at.Y, at.X
	}
	r.viewT.b, r.viewT.domWords = b, lv.cur[tgt]
	r.viewS.b, r.viewS.domWords = b, lv.cur[sup]
	r.removeBuf = r.removeBuf[:0]
	if reviseWithKernel(int(lv.count[tgt]), b.n) {
		r.imgBuf = bitset.Resize(r.imgBuf, b.nw)
		if fwd {
			preimage(at.Axis, b.ix, r.viewS.pre, r.imgBuf)
		} else {
			image(at.Axis, b.ix, r.viewS.pre, r.imgBuf)
		}
		if b.sibNW == 0 && b.preEndNW == 0 {
			return lv.andPre(tgt, r.imgBuf)
		}
		r.removeBuf = appendUnsupported(r.removeBuf, r.viewT.pre, r.imgBuf)
	} else {
		bitset.ForEach(r.viewT.pre, func(pr int32) bool {
			v := b.t.ByPre(pr)
			var ok bool
			if fwd {
				ok = supportedFwd(&b.sctx, at.Axis, v, &r.viewS)
			} else {
				ok = supportedBwd(&b.sctx, at.Axis, v, &r.viewS)
			}
			if !ok {
				r.removeBuf = append(r.removeBuf, pr)
			}
			return true
		})
	}
	if len(r.removeBuf) > 0 {
		lv.ownVar(tgt)
		for _, pr := range r.removeBuf {
			lv.cur[tgt].remove(b.ix, pr)
		}
		lv.count[tgt] -= int32(len(r.removeBuf))
	}
	return len(r.removeBuf)
}

// andPre prunes x's domain, which keeps pre words alone, to its members
// in support (dom &= support) and returns the number removed. A domain
// aliasing the level below is copied and pruned in the same pass, into
// the level's own buffer, which the level adopts, cut to its pre words,
// only if the pass removed something.
func (lv *pinLevel) andPre(x cq.Var, support []uint64) int {
	old := lv.count[x]
	var c int
	if lv.owned[x] {
		c = bitset.AndInto(lv.cur[x].pre, support)
	} else {
		own := &lv.own[x]
		own.pre = bitset.Resize(own.pre, len(support))
		if c = bitset.And(own.pre, lv.cur[x].pre, support); int32(c) < old {
			own.sib, own.preEnd = own.sib[:0], own.preEnd[:0]
			lv.cur[x], lv.owned[x] = *own, true
		}
	}
	lv.count[x] = int32(c)
	return int(old) - c
}

// ForEachCurrent calls fn for every node in x's current (post-pin) domain,
// in document (pre) order, stopping early if fn returns false. The domain
// reflects all pins currently pushed; with no pins it is x's maximal
// arc-consistent candidate set.
func (r *PinRun) ForEachCurrent(x cq.Var, fn func(v tree.NodeID) bool) {
	bitset.ForEach(r.words(r.depth, x).pre, func(pr int32) bool { return fn(r.b.t.ByPre(pr)) })
}

// ForEachCurrentDir is ForEachCurrent with an explicit direction and seek
// position, for ordered (and cursor-resumed) enumeration: it iterates x's
// current (post-pin) domain over pre-order ranks — ascending when desc is
// false, descending otherwise — passing each node together with its pre
// rank. A non-negative from seeks in O(1): ascending iteration starts at
// the smallest alive rank >= from, descending at the largest alive rank
// <= from; from < 0 iterates the whole domain from its extreme end. fn
// returns false to stop.
func (r *PinRun) ForEachCurrentDir(x cq.Var, desc bool, from int32, fn func(v tree.NodeID, pr int32) bool) {
	pre := r.words(r.depth, x).pre
	emit := func(pr int32) bool { return fn(r.b.t.ByPre(pr), pr) }
	if desc {
		if from < 0 {
			from = int32(len(pre))*64 - 1
		}
		bitset.ForEachDescFrom(pre, from, emit)
		return
	}
	if from < 0 {
		from = 0
	}
	bitset.ForEachFrom(pre, from, emit)
}

// CurrentLen returns the size of x's current domain.
func (r *PinRun) CurrentLen(x cq.Var) int { return int(r.countAt(r.depth, x)) }
