package consistency

import (
	"repro/internal/axis"
	"repro/internal/bitset"
	"repro/internal/cq"
)

// Removal-driven exclusion: the propagation step of Lemma 3.4's
// enumeration. On an arc-consistent prevaluation over an X-property
// signature the order-minimum of every domain is a satisfaction, so a
// monadic query's answers stream as "emit the head's minimum, exclude it,
// restore arc consistency, repeat" (core's polyForEachNode).
//
// Restoring arc consistency after a removal does not need whole-side
// revises. A value v of a target variable can only lose its support in
// atom R when a value w it relied on leaves the support side, and then
// R relates v and w: v lies in w's axis image. So every removed value
// goes on a worklist, and for each atom of its variable the candidates
// it could have supported — image(w) ∩ dom(target), read off the index
// by ImageIter — are rechecked with the per-node support probe. An
// unsupported candidate is removed and queued in turn. This is how unit
// propagation runs Prop. 3.1's Horn-SAT program: a clause Remove(x, v) ←
// ∧ Remove(y, w) is visited each time one of its body atoms becomes
// true and fires when the last one does, with the support probe standing
// in for the clause's count of body atoms still false.
//
// Two families of axes would make the generic rule pay for whole
// images, and take shortcuts that keep the work near the number of
// values removed:
//
//   - Nested supports. Where the candidates form a chain whose supports
//     nest — the ancestors of w (Child+, Child*) or its earlier or later
//     siblings (the sibling + and * axes) — the candidates are visited
//     nearest first and the visit stops at the first one that keeps a
//     support: every farther candidate's support range contains the nearer
//     one's. The descendants of w (Ancestor+, Ancestor*) lose nothing
//     while w has a live ancestor in the support domain; otherwise one
//     merged scan of w's subtree skips every subtree a live support
//     covers.
//   - Thresholds. A Following, Preceding or DocOrder support is a single
//     extreme of the support domain (its maximum pre rank, minimum pre
//     rank or minimum preEnd). The extreme is recomputed from a bound
//     that only moves one way, and only the range of candidates it newly
//     cuts off is removed.

// removal is a value taken out of a domain by an exclusion, waiting to
// have the values it may have supported rechecked.
type removal struct {
	x  cq.Var
	pr int32
}

// exclState is the reusable state of the exclusions on one loaded level.
// hi, lo and pe are per-variable bounds on the domain's extremes — no
// live value above hi[x] or below lo[x] in pre order, none before
// position pe[x] in the (preEnd, pre) order — which only tighten as
// domains shrink, so each extreme's rescans add up to one pass over its
// words per loaded level. The (preEnd, pre)-position words that pe
// indexes are built for a support variable the first time a recheck asks
// for its minimum preEnd (peWords, peBuilt), and drop keeps them in step;
// no other domain update maintains them. A load only clears the counters
// and marks the bounds stale; the first exclusion resets them, so that
// loads that are never excluded from (the acyclic semijoins) pay nothing
// for them.
type exclState struct {
	work       []removal
	hi, lo, pe []int32
	peWords    [][]uint64
	peBuilt    []bool
	stale      bool
	it         ImageIter
	st         Stats
}

// reset readies the bounds for the exclusions on a level over n nodes.
func (e *exclState) reset(nv, n int) {
	e.hi, e.lo, e.pe = grow(e.hi, nv), grow(e.lo, nv), grow(e.pe, nv)
	for x := 0; x < nv; x++ {
		e.hi[x], e.lo[x], e.pe[x] = int32(n)-1, 0, 0
	}
	e.peWords, e.peBuilt = grow(e.peWords, nv), grow(e.peBuilt, nv)
	clear(e.peBuilt)
	e.stale = false
}

// Exclude removes the node of pre rank pr from x's domain, as left by the
// last FastACPreIx or FastACIx call on sc (and any Exclude since), and
// restores the maximal arc-consistent prevaluation below the result. It
// reports false when some domain empties: no arc-consistent prevaluation
// avoids the excluded values, and the domains are then unspecified.
// Excluding a value the domain no longer holds changes nothing. Exclude
// updates the pre-rank words DomainPre returns, not the NodeSets FastACIx
// returned.
func (sc *Scratch) Exclude(x cq.Var, pr int32) bool {
	r := &sc.acRun
	return r.exclude(&r.levels[0], x, pr)
}

// ExclusionStats returns the work counters of the Exclude calls since the
// last domain load on sc: the values removed (excluded ones included) and
// the support probes made.
func (sc *Scratch) ExclusionStats() Stats {
	if sc.acRun.ex == nil {
		return Stats{}
	}
	return sc.acRun.ex.st
}

// exclude is Exclude on level lv, which must own every domain (a loaded
// level): the worklist mutates the words in place.
func (r *PinRun) exclude(lv *pinLevel, x cq.Var, pr int32) bool {
	if !bitset.Test(lv.cur[x].pre, pr) {
		return true
	}
	if r.ex == nil {
		r.ex = &exclState{stale: true}
	}
	e := r.ex
	if e.stale {
		e.reset(r.b.nv, r.b.n)
	}
	e.work = e.work[:0]
	if !r.drop(lv, x, pr) {
		return false
	}
	for len(e.work) > 0 {
		rm := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		for _, ai := range r.b.atomsOf[rm.x] {
			at := r.b.q.Atoms[ai]
			if at.Y == rm.x && !r.recheck(lv, at, true, rm.pr) {
				return false
			}
			if at.X == rm.x && !r.recheck(lv, at, false, rm.pr) {
				return false
			}
		}
	}
	return true
}

// drop removes pre rank pr from x's domain and queues it; it reports
// false when the domain empties.
func (r *PinRun) drop(lv *pinLevel, x cq.Var, pr int32) bool {
	ix, e := r.b.ix, r.ex
	lv.cur[x].remove(ix, pr)
	if e.peBuilt[x] {
		bitset.Clear(e.peWords[x], ix.preEndPos[ix.t.ByPre(pr)])
	}
	lv.count[x]--
	e.st.Removals++
	e.work = append(e.work, removal{x, pr})
	return lv.count[x] > 0
}

// recheck restores the support of atom at's target side — x when fwd, y
// otherwise — after pre rank w left the other (support) side: it removes
// the target values that w may have supported and that no longer have a
// support. It reports false when the target domain empties.
func (r *PinRun) recheck(lv *pinLevel, at cq.AxisAtom, fwd bool, w int32) bool {
	b := r.b
	tgt, sup := at.X, at.Y
	if !fwd {
		tgt, sup = at.Y, at.X
	}
	// rel is the relation a target value v has to its supports w:
	// rel(v, w) holds iff at relates them. DocOrder's inverse has no axis
	// name; invDoc marks it.
	rel, invDoc := at.Axis, false
	if !fwd {
		if inv, ok := rel.TryInverse(); ok {
			rel = inv
		} else {
			invDoc = rel == axis.DocOrder
		}
	}
	switch {
	case invDoc:
		// Supports lie before v: v needs the minimum below it.
		if m := r.minPre(lv, sup); m > w {
			return r.dropRange(lv, tgt, w+1, m)
		}
		return true
	case rel == axis.DocOrder:
		// Supports lie after v: v needs the maximum above it.
		if M := r.maxPre(lv, sup); M < w {
			return r.dropRange(lv, tgt, M, w-1)
		}
		return true
	case rel == axis.Following:
		return r.recheckFollowing(lv, tgt, sup, w)
	case rel == axis.Preceding:
		// v needs a support whose subtree ends before it: the minimum
		// preEnd below pre(v). Candidates of w start after w's subtree.
		if m := r.minPreEnd(lv, sup); m > b.ix.subtreeEnd[w] {
			return r.dropRange(lv, tgt, b.ix.subtreeEnd[w]+1, m)
		}
		return true
	case rel == axis.ChildPlus, rel == axis.ChildStar:
		return r.recheckAncestors(lv, tgt, sup, w, rel == axis.ChildStar)
	case rel == axis.AncestorPlus, rel == axis.AncestorStar:
		return r.recheckDescendants(lv, tgt, sup, w, rel == axis.AncestorStar)
	}

	// The generic rule over w's image, nearest w first (earlier siblings
	// descending). On a sibling chain the candidates' supports nest, so
	// the first supported candidate ends the visit; every other image
	// left here is one node, or w's children under Parent, which have all
	// lost their one support.
	desc := rel == axis.NextSiblingPlus || rel == axis.NextSiblingStar
	r.viewS.set(b, lv.cur[sup])
	it := &r.ex.it
	it.Start(b.ix, at.Axis, !fwd, w, lv.cur[tgt].pre, desc)
	for c := it.Next(); c >= 0; c = it.Next() {
		r.ex.st.Probes++
		v := b.t.ByPre(c)
		var ok bool
		if fwd {
			ok = supportedFwd(&b.sctx, at.Axis, v, &r.viewS)
		} else {
			ok = supportedBwd(&b.sctx, at.Axis, v, &r.viewS)
		}
		if ok {
			return true
		}
		if !r.drop(lv, tgt, c) {
			return false
		}
	}
	return true
}

// recheckAncestors is recheck for rel = Child+ (star false) or Child*
// (star true): a target value v needs a live support among its proper
// descendants (or v itself, when star). w's candidates are its proper
// ancestors (and w, when star), and their support ranges nest, so the
// walk up from w scans each range only where it extends the previous
// one. The first live support after w ends the walk: every ancestor
// whose range reaches it keeps that support. Below it, a candidate keeps
// a support only before w, and the first one that does ends the walk too.
func (r *PinRun) recheckAncestors(lv *pinLevel, tgt, sup cq.Var, w int32, star bool) bool {
	ix := r.b.ix
	dom, sdom := lv.cur[tgt].pre, lv.cur[sup].pre
	elo, ehi := w, w // the support-free range scanned so far
	v := w
	if !star {
		v = ix.parentPre[w]
	}
	for ; v >= 0; v = ix.parentPre[v] {
		r.ex.st.Probes++
		if hi := ix.subtreeEnd[v]; hi > ehi {
			if bitset.NextIn(sdom, ehi+1, hi) >= 0 {
				return true
			}
			ehi = hi
		}
		if !bitset.Test(dom, v) {
			continue
		}
		lo := v + 1
		if star {
			lo = v
		}
		if bitset.PrevIn(sdom, lo, elo-1) >= 0 {
			return true
		}
		elo = lo
		if !r.drop(lv, tgt, v) {
			return false
		}
	}
	return true
}

// recheckFollowing is recheck for rel = Following: a target value v needs
// a support starting after its subtree, i.e. the support domain's maximum
// pre rank M above preEnd(v). w's candidates end before w, so when M < w
// the values losing their support are those whose subtree ends in
// [M, w): the target values ranked in [M, w) that are not ancestors of
// w, and the ancestors of M's node that end before w.
func (r *PinRun) recheckFollowing(lv *pinLevel, tgt, sup cq.Var, w int32) bool {
	ix := r.b.ix
	M := r.maxPre(lv, sup)
	if M > w {
		return true
	}
	dom := lv.cur[tgt].pre
	for c := bitset.NextIn(dom, M, w-1); c >= 0; c = bitset.NextIn(dom, c+1, w-1) {
		r.ex.st.Probes++
		if ix.subtreeEnd[c] < w && !r.drop(lv, tgt, c) {
			return false
		}
	}
	for p := ix.parentPre[M]; p >= 0 && ix.subtreeEnd[p] < w; p = ix.parentPre[p] {
		if bitset.Test(dom, p) {
			r.ex.st.Probes++
			if !r.drop(lv, tgt, p) {
				return false
			}
		}
	}
	return true
}

// recheckDescendants is recheck for rel = Ancestor+ (star false) or
// Ancestor* (star true): a target value v needs a live support among its
// proper ancestors (or v itself, when star). w's candidates are its
// descendants (and w, when star). If w has a live proper ancestor in the
// support domain, that ancestor supports all of them. Otherwise one
// ascending scan of w's subtree removes each candidate met before the
// next live support, and jumps over each live support's subtree: it
// covers every candidate below it (and itself, when star).
func (r *PinRun) recheckDescendants(lv *pinLevel, tgt, sup cq.Var, w int32, star bool) bool {
	ix := r.b.ix
	dom, sdom := lv.cur[tgt].pre, lv.cur[sup].pre
	lo, hi := w+1, ix.subtreeEnd[w]
	if star {
		lo = w
	}
	if bitset.NextIn(dom, lo, hi) < 0 {
		return true // no candidates
	}
	for p := ix.parentPre[w]; p >= 0; p = ix.parentPre[p] {
		r.ex.st.Probes++
		if bitset.Test(sdom, p) {
			return true
		}
	}
	for lo <= hi {
		c := bitset.NextIn(dom, lo, hi)
		if c < 0 {
			return true
		}
		r.ex.st.Probes++
		s := bitset.NextIn(sdom, lo, c)
		if s < 0 || (s == c && !star) {
			if !r.drop(lv, tgt, c) {
				return false
			}
		}
		if s < 0 {
			lo = c + 1
		} else {
			lo = ix.subtreeEnd[s] + 1
		}
	}
	return true
}

// dropRange removes every target value ranked in [lo, hi].
func (r *PinRun) dropRange(lv *pinLevel, tgt cq.Var, lo, hi int32) bool {
	dom := lv.cur[tgt].pre
	for c := bitset.NextIn(dom, lo, hi); c >= 0; c = bitset.NextIn(dom, c+1, hi) {
		r.ex.st.Probes++
		if !r.drop(lv, tgt, c) {
			return false
		}
	}
	return true
}

// maxPre returns the largest pre rank in x's domain, or -1 when empty.
func (r *PinRun) maxPre(lv *pinLevel, x cq.Var) int32 {
	r.ex.hi[x] = bitset.PrevIn(lv.cur[x].pre, 0, r.ex.hi[x])
	return r.ex.hi[x]
}

// minPre returns the smallest pre rank in x's domain, or n when empty.
func (r *PinRun) minPre(lv *pinLevel, x cq.Var) int32 {
	m := bitset.NextIn(lv.cur[x].pre, r.ex.lo[x], int32(r.b.n)-1)
	if m < 0 {
		m = int32(r.b.n)
	}
	r.ex.lo[x] = m
	return m
}

// minPreEnd returns the smallest preEnd in x's domain, or n when empty.
// The first call after a load builds x's (preEnd, pre)-position words
// from its pre words; every call then resumes the scan at the bound
// pe[x]. Probes counts one per member scattered, one per call and one
// per position the bound moves past.
func (r *PinRun) minPreEnd(lv *pinLevel, x cq.Var) int32 {
	e, ix, n := r.ex, r.b.ix, int32(r.b.n)
	if !e.peBuilt[x] {
		w := bitset.Grow(e.peWords[x], r.b.nw)
		bitset.ForEach(lv.cur[x].pre, func(pr int32) bool {
			bitset.Set(w, ix.preEndPos[ix.t.ByPre(pr)])
			e.st.Probes++
			return true
		})
		e.peWords[x], e.peBuilt[x] = w, true
	}
	pos := bitset.NextIn(e.peWords[x], e.pe[x], n-1)
	if pos < 0 {
		pos = n
	}
	e.st.Probes += 1 + int(pos-e.pe[x])
	e.pe[x] = pos
	if pos == n {
		return n
	}
	return ix.preEndVal[pos]
}
