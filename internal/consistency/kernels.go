package consistency

// Word-parallel axis image kernels: the bulk form of the semijoin revise.
//
// Every tractable case of the paper (acyclic queries via Yannakakis,
// X-property signatures via Theorem 3.5) reduces evaluation to repeated
// axis semijoins — "keep v ∈ dom(x) iff some w ∈ dom(y) with Axis(v, w)".
// The probe engines (supportedFwd/supportedBwd in fastac.go) answer that
// per element. The kernels below instead compute the axis image of a WHOLE
// domain as a bitset over pre-order ranks, 64 nodes per machine word,
// exploiting that every axis in the paper's vocabulary is an interval or
// shift relation in the (pre, preEnd, sibling) orderings a TreeIndex
// already materializes:
//
//   - Child+/Child* images are unions of subtree intervals — nested or
//     disjoint by the interval property of pre-order, so one ascending
//     merge sweep emits O(domain) word-parallel fills.
//   - Ancestor+/Ancestor* images come from a single descending sweep that
//     tracks the nearest alive rank to the right: u is an ancestor of an
//     alive node iff that rank lands inside u's subtree interval.
//   - Following/Preceding/DocOrder images are one suffix or prefix fill
//     from an extremal alive rank (min preEnd, max pre, min pre) —
//     Preceding additionally clears the O(depth) ancestors of the extremal
//     node.
//   - Child/Parent/NextSibling/PrevSibling images are rank-array gathers
//     and scatters over the parent/first-child/sibling tables of the
//     TreeIndex; NextSibling+/* and PrevSibling+/* are segment prefix-OR
//     sweeps over the sibling-consecutive numbering.
//
// A revise step then becomes "dom &= image(...)": the per-axis work is a
// few linear passes instead of |dom| successor probes, which is the
// winning trade on dense domains. On a domain that keeps pre words alone
// the AND is literally that, fused with the copy-on-write copy and
// counted by its popcount (pinLevel.andPre); a domain that also keeps
// sibling or preEnd words lists the removed ranks (appendUnsupported)
// and clears each in every ordering. See reviseWithKernel for the density
// heuristic and KernelPolicy for the test override. The package has one
// revise step, PinRun.revise, and both tractable cases run it: the FastAC
// worklist and the pinned propagation for X-property signatures, and a
// fixed Yannakakis schedule of steps (Scratch.SemijoinIx) for acyclic
// queries. Only the exclusions of exclude.go, which remove one value at a
// time, recheck single candidates instead of revising whole sides.

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/axis"
	"repro/internal/bitset"
)

// image computes the forward axis image of src under a:
//
//	dst = {u : ∃w ∈ src, a(w, u)}
//
// Both src and dst are bitsets over PRE-ORDER RANKS of ix's tree (use
// bitset.Words(n) words for an n-node tree; bits at or beyond n must be
// clear in src). dst is overwritten entirely and must not alias src.
//
// The backward revise of atom R(x, y) keeps w ∈ dom(y) iff w ∈
// image(a, dom(x)); the forward revise keeps v ∈ dom(x) iff v ∈
// preimage(a, dom(y)).
func image(a axis.Axis, ix *TreeIndex, src, dst []uint64) {
	bitset.ZeroAll(dst)
	n := int32(len(ix.subtreeEnd))
	if n == 0 {
		return
	}
	switch a {
	case axis.Self:
		copy(dst, src)

	case axis.Child:
		// Children of the alive set: first-child/next-sibling chains.
		bitset.ForEach(src, func(r int32) bool {
			for c := ix.firstChildPre[r]; c >= 0; c = ix.nextSibPre[c] {
				bitset.Set(dst, c)
			}
			return true
		})

	case axis.Parent:
		bitset.ForEach(src, func(r int32) bool {
			if p := ix.parentPre[r]; p >= 0 {
				bitset.Set(dst, p)
			}
			return true
		})

	case axis.NextSibling:
		bitset.ForEach(src, func(r int32) bool {
			if s := ix.nextSibPre[r]; s >= 0 {
				bitset.Set(dst, s)
			}
			return true
		})

	case axis.PrevSibling:
		bitset.ForEach(src, func(r int32) bool {
			if s := ix.prevSibPre[r]; s >= 0 {
				bitset.Set(dst, s)
			}
			return true
		})

	case axis.ChildPlus:
		// Union of subtree intervals [r+1, preEnd(r)]. An alive rank inside
		// a filled interval is a descendant of the interval's node, so its
		// own interval is subsumed — after each fill, jump straight to the
		// first alive rank beyond it: O(maximal intervals), not O(|src|).
		for r := bitset.First(src); r >= 0; {
			hi := ix.subtreeEnd[r]
			if hi > r {
				bitset.FillRange(dst, r+1, hi)
			}
			r = bitset.NextAt(src, hi+1)
		}

	case axis.ChildStar:
		// As ChildPlus with the node itself included in its interval.
		for r := bitset.First(src); r >= 0; {
			hi := ix.subtreeEnd[r]
			bitset.FillRange(dst, r, hi)
			r = bitset.NextAt(src, hi+1)
		}

	case axis.AncestorPlus:
		// Union of the proper-ancestor chains of the alive set, marked
		// output-sensitively per "window": u qualifies in the window of
		// its minimal alive proper descendant m, and then pa <= pre(u) < m
		// for the previous alive rank pa — an ancestor strictly below pa
		// would contain pa, contradicting m's minimality, while u == pa
		// happens when the previous alive node is itself an ancestor of m.
		//
		// Word-parallel split: for an alive m whose predecessor m-1 is
		// also alive (the interior of an alive run), the window is the
		// single rank m-1, which qualifies iff it is m's parent — i.e.
		// iff m-1 is internal (a node's first child in pre-order is
		// always rank+1). Whole runs therefore mark ((run << 1-interior)
		// >> 1) & internal with three word ops; only each run's FIRST bit
		// pays a parent-chain walk down to pa (inclusive).
		pa := int32(-1) // last alive rank seen so far
		var carry uint64
		for wi, x := range src {
			if x == 0 {
				carry = 0
				continue
			}
			base := int32(wi) * 64
			shifted := x<<1 | carry
			both := x & shifted // alive bits with an alive predecessor
			dst[wi] |= (both >> 1) & ix.internalPre[wi]
			if both&1 != 0 { // predecessor sits in the previous word
				dst[wi-1] |= ix.internalPre[wi-1] & (1 << 63)
			}
			for s := x &^ shifted; s != 0; s &= s - 1 { // run starts
				m := base + int32(bits.TrailingZeros64(s))
				if low := x & (1<<uint(m-base) - 1); low != 0 {
					pa = base + int32(bits.Len64(low)) - 1
				}
				for r := ix.parentPre[m]; r >= 0 && r >= pa; r = ix.parentPre[r] {
					bitset.Set(dst, r)
				}
			}
			pa = base + int32(bits.Len64(x)) - 1
			carry = x >> 63
		}

	case axis.AncestorStar:
		// As AncestorPlus with each chain started at the alive node itself;
		// windows are then strictly (pa, m] — an ancestor-or-self at or
		// below pa would be ancestor-or-self of pa and is marked in an
		// earlier window — so a run-interior alive m contributes exactly
		// itself, and whole runs mark word-parallel.
		pa := int32(-1)
		var carry uint64
		for wi, x := range src {
			if x == 0 {
				carry = 0
				continue
			}
			base := int32(wi) * 64
			shifted := x<<1 | carry
			dst[wi] |= x & shifted                      // run interiors mark themselves
			for s := x &^ shifted; s != 0; s &= s - 1 { // run starts
				m := base + int32(bits.TrailingZeros64(s))
				if low := x & (1<<uint(m-base) - 1); low != 0 {
					pa = base + int32(bits.Len64(low)) - 1
				}
				for r := m; r > pa; r = ix.parentPre[r] {
					bitset.Set(dst, r)
				}
			}
			pa = base + int32(bits.Len64(x)) - 1
			carry = x >> 63
		}

	case axis.NextSiblingPlus, axis.NextSiblingStar:
		// Output-sensitive sibling-chain scatter: each alive node marks its
		// later siblings, stopping at the first already-marked one — a
		// marked sibling's suffix is covered by the chain that marked it
		// (for Star, by the owner of the pre-seeded alive bit continuing
		// from there), so every mark is made at most once: O(|src| + |dst|).
		if a == axis.NextSiblingStar {
			copy(dst, src) // reflexive: every alive node reaches itself
		}
		for wi, x := range src {
			for x != 0 {
				r := int32(wi*64 + bits.TrailingZeros64(x))
				x &= x - 1
				for c := ix.nextSibPre[r]; c >= 0; c = ix.nextSibPre[c] {
					w, b := c>>6, uint64(1)<<(uint(c)&63)
					if dst[w]&b != 0 {
						break
					}
					dst[w] |= b
				}
			}
		}

	case axis.PrevSiblingPlus, axis.PrevSiblingStar:
		// Mirror of the NextSibling chains, walking left.
		if a == axis.PrevSiblingStar {
			copy(dst, src)
		}
		for wi, x := range src {
			for x != 0 {
				r := int32(wi*64 + bits.TrailingZeros64(x))
				x &= x - 1
				for c := ix.prevSibPre[r]; c >= 0; c = ix.prevSibPre[c] {
					w, b := c>>6, uint64(1)<<(uint(c)&63)
					if dst[w]&b != 0 {
						break
					}
					dst[w] |= b
				}
			}
		}

	case axis.Following:
		// Following(w, u) ⇔ pre(u) > preEnd(w): one suffix fill from the
		// minimal alive preEnd.
		if m := minAlivePreEnd(ix, src, n); m < n {
			bitset.FillRange(dst, m+1, n-1)
		}

	case axis.Preceding:
		// Preceding(w, u) ⇔ pre(w) > preEnd(u): u qualifies iff
		// preEnd(u) < M for the maximal alive rank M. Those are exactly the
		// ranks below M minus the ancestors of ByPre(M) (the nodes whose
		// subtree interval still covers M): prefix fill, then clear the
		// O(depth) ancestor chain.
		if M := bitset.Last(src); M > 0 {
			bitset.FillRange(dst, 0, M-1)
			for p := ix.parentPre[M]; p >= 0; p = ix.parentPre[p] {
				bitset.Clear(dst, p)
			}
		}

	case axis.DocOrder:
		// pre(u) > min alive rank: suffix fill.
		if f := bitset.First(src); f >= 0 {
			bitset.FillRange(dst, f+1, n-1)
		}

	case axis.DocOrderSucc:
		bitset.ShiftUpOne(dst, src)
		clearTail(dst, n)

	default:
		panic(fmt.Sprintf("consistency: image of invalid axis %d", int(a)))
	}
}

// preimage computes the backward axis image of src under a:
//
//	dst = {v : ∃w ∈ src, a(v, w)}
//
// i.e. the support set of a forward revise. Same bitset contract as image.
// For invertible axes this is image under the inverse axis; the order
// extensions DocOrder and DocOrderSucc (no named inverse) are computed
// directly.
func preimage(a axis.Axis, ix *TreeIndex, src, dst []uint64) {
	if inv, ok := a.TryInverse(); ok {
		image(inv, ix, src, dst)
		return
	}
	bitset.ZeroAll(dst)
	n := int32(len(ix.subtreeEnd))
	if n == 0 {
		return
	}
	switch a {
	case axis.DocOrder:
		// pre(v) < max alive rank: prefix fill.
		if M := bitset.Last(src); M > 0 {
			bitset.FillRange(dst, 0, M-1)
		}
	case axis.DocOrderSucc:
		bitset.ShiftDownOne(dst, src)
	default:
		panic(fmt.Sprintf("consistency: preimage of invalid axis %d", int(a)))
	}
}

// minAlivePreEnd returns the minimal preEnd over the alive ranks of src, or
// n when src is empty. Since preEnd(r) >= r, ranks beyond the running
// minimum cannot lower it — the scan stops within the first alive subtree.
func minAlivePreEnd(ix *TreeIndex, src []uint64, n int32) int32 {
	m := n
	bitset.ForEach(src, func(r int32) bool {
		if r >= m {
			return false
		}
		if e := ix.subtreeEnd[r]; e < m {
			m = e
		}
		return true
	})
	return m
}

// clearTail clears every bit at index >= n (the shift kernels can carry a
// bit past the universe inside the last word).
func clearTail(w []uint64, n int32) {
	if rem := uint(n) & 63; rem != 0 && len(w) > 0 {
		w[n>>6] &= (uint64(1) << rem) - 1
	}
}

// appendUnsupported appends to buf, ascending, every index set in cur but
// not in support (cur &^ support) — the removal set of a kernel revise.
func appendUnsupported(buf []int32, cur, support []uint64) []int32 {
	for wi, cw := range cur {
		rem := cw &^ support[wi]
		for rem != 0 {
			b := bits.TrailingZeros64(rem)
			buf = append(buf, int32(wi*64+b))
			rem &^= 1 << uint(b)
		}
	}
	return buf
}

// KernelPolicy selects how revise steps choose between the per-node probe
// loop (bitset membership and range probes) and the bulk image kernels.
type KernelPolicy int32

// Policies. KernelAuto is the production setting; KernelAlways and
// KernelNever pin one path — used by the parity tests to prove the two
// paths compute byte-identical results, and by the revise benchmarks to
// measure each in isolation.
const (
	KernelAuto KernelPolicy = iota
	KernelAlways
	KernelNever
)

// kernelPolicy is read on every revise; atomic so tests can flip it while
// pooled scratches from earlier (sequential) evaluations still exist.
var kernelPolicy atomic.Int32

// SetKernelPolicy overrides the revise-path choice process-wide
// (test/benchmark instrumentation). Not meant to be switched concurrently
// with evaluation: in-flight revises pick whichever policy they observe.
func SetKernelPolicy(p KernelPolicy) { kernelPolicy.Store(int32(p)) }

// reviseWithKernel is the density heuristic of the revise step: use the
// bulk kernel when the domain being revised holds at least one alive
// candidate per machine word of the universe (alive*64 >= n). Below that,
// the kernel's fixed cost — touching every word of the universe, O(n/64)
// word ops plus the per-axis sweep — exceeds the probe loop's support
// probes, one per alive candidate (a bit test or walk, or a
// first-alive-bit scan that stops at the nearest supporter).
func reviseWithKernel(alive, n int) bool {
	switch KernelPolicy(kernelPolicy.Load()) {
	case KernelAlways:
		return true
	case KernelNever:
		return false
	}
	return alive*64 >= n
}
