// Package bitset provides the word-level helpers shared by every bit-vector
// in the evaluation engines: NodeSets (consistency.NodeSet), the
// copy-on-write pin domains of incremental enumeration, and the bulk axis
// image kernels of the revise step. A bit vector is a plain []uint64 whose
// bit i (i>>6 word, i&63 bit) represents element i of a dense universe; the
// universe size is owned by the caller, and every helper treats bits beyond
// the last addressed index as absent.
//
// The helpers come in two families: point operations (Test/Set/Clear) and
// word-parallel sweeps (AnyIn, FillRange, AndInto, the shifts) that touch 64
// elements per machine word. The sweeps are what make the bulk semijoin
// revise of the consistency package's image kernels profitable: a whole
// domain's axis image is a handful of fills and gathers instead of a
// per-node probe loop.
package bitset

import "math/bits"

// Words returns the number of 64-bit words needed to address n bits.
func Words(n int) int { return (n + 63) / 64 }

// Test reports whether bit i is set.
func Test(w []uint64, i int32) bool { return w[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func Set(w []uint64, i int32) { w[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func Clear(w []uint64, i int32) { w[i>>6] &^= 1 << (uint(i) & 63) }

// AnyIn reports whether some bit with index in [lo, hi] is set. Tolerates
// empty and out-of-range intervals.
func AnyIn(w []uint64, lo, hi int32) bool {
	if lo < 0 {
		lo = 0
	}
	if max := int32(len(w)) * 64; hi >= max {
		hi = max - 1
	}
	if hi < lo {
		return false
	}
	loW, hiW := lo>>6, hi>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi) & 63))
	if loW == hiW {
		return w[loW]&loMask&hiMask != 0
	}
	if w[loW]&loMask != 0 {
		return true
	}
	for i := loW + 1; i < hiW; i++ {
		if w[i] != 0 {
			return true
		}
	}
	return w[hiW]&hiMask != 0
}

// First returns the index of the lowest set bit, or -1.
func First(w []uint64) int32 {
	for wi, x := range w {
		if x != 0 {
			return int32(wi*64 + bits.TrailingZeros64(x))
		}
	}
	return -1
}

// NextAt returns the smallest set bit index >= i, or -1. Negative i is
// treated as 0.
func NextAt(w []uint64, i int32) int32 {
	if i < 0 {
		i = 0
	}
	wi := int(i >> 6)
	if wi >= len(w) {
		return -1
	}
	x := w[wi] &^ ((1 << (uint(i) & 63)) - 1)
	for {
		if x != 0 {
			return int32(wi*64 + bits.TrailingZeros64(x))
		}
		wi++
		if wi >= len(w) {
			return -1
		}
		x = w[wi]
	}
}

// NextIn returns the smallest set bit index in [i, hi], or -1. Unlike
// NextAt it reads no word past hi's, so walking a short interval of a
// sparse set costs the interval's words, not the distance to the next set
// bit. Tolerates empty and out-of-range intervals.
func NextIn(w []uint64, i, hi int32) int32 {
	if i < 0 {
		i = 0
	}
	if max := int32(len(w)) * 64; hi >= max {
		hi = max - 1
	}
	if hi < i {
		return -1
	}
	wi, hiW := i>>6, hi>>6
	x := w[wi] &^ ((1 << (uint(i) & 63)) - 1)
	for x == 0 {
		if wi == hiW {
			return -1
		}
		wi++
		x = w[wi]
	}
	if r := wi*64 + int32(bits.TrailingZeros64(x)); r <= hi {
		return r
	}
	return -1
}

// PrevIn returns the largest set bit index in [lo, i], or -1: NextIn
// walking down. It reads no word below lo's. Tolerates empty and
// out-of-range intervals.
func PrevIn(w []uint64, lo, i int32) int32 {
	if lo < 0 {
		lo = 0
	}
	if max := int32(len(w)) * 64; i >= max {
		i = max - 1
	}
	for i >= lo {
		if x := w[i>>6] & (^uint64(0) >> (63 - uint(i)&63)); x != 0 {
			if r := i&^63 + 63 - int32(bits.LeadingZeros64(x)); r >= lo {
				return r
			}
			return -1
		}
		i = i&^63 - 1
	}
	return -1
}

// Last returns the index of the highest set bit, or -1.
func Last(w []uint64) int32 {
	for wi := len(w) - 1; wi >= 0; wi-- {
		if x := w[wi]; x != 0 {
			return int32(wi*64 + 63 - bits.LeadingZeros64(x))
		}
	}
	return -1
}

// ForEach calls fn on every set bit in ascending index order; stops early
// (returning false) if fn returns false.
func ForEach(w []uint64, fn func(i int32) bool) bool {
	for wi, x := range w {
		for x != 0 {
			b := bits.TrailingZeros64(x)
			if !fn(int32(wi*64 + b)) {
				return false
			}
			x &^= 1 << uint(b)
		}
	}
	return true
}

// ForEachFrom calls fn on every set bit with index >= from, in ascending
// index order; stops early (returning false) if fn returns false. from <= 0
// is equivalent to ForEach.
func ForEachFrom(w []uint64, from int32, fn func(i int32) bool) bool {
	if from < 0 {
		from = 0
	}
	wi := int(from >> 6)
	if wi >= len(w) {
		return true
	}
	x := w[wi] &^ ((1 << (uint(from) & 63)) - 1)
	for {
		for x != 0 {
			b := bits.TrailingZeros64(x)
			if !fn(int32(wi*64 + b)) {
				return false
			}
			x &^= 1 << uint(b)
		}
		wi++
		if wi >= len(w) {
			return true
		}
		x = w[wi]
	}
}

// ForEachDescFrom calls fn on every set bit with index <= from, in
// descending index order; stops early (returning false) if fn returns
// false. from beyond the addressable range clamps to the last bit, so
// passing the universe size (or larger) iterates the whole set backwards;
// from < 0 visits nothing.
func ForEachDescFrom(w []uint64, from int32, fn func(i int32) bool) bool {
	if from < 0 {
		return true
	}
	if max := int32(len(w))*64 - 1; from > max {
		from = max
	}
	if from < 0 { // empty word slice
		return true
	}
	wi := int(from >> 6)
	x := w[wi]
	if shift := 63 - (uint(from) & 63); shift > 0 {
		x &= ^uint64(0) >> shift
	}
	for {
		for x != 0 {
			b := 63 - bits.LeadingZeros64(x)
			if !fn(int32(wi*64 + b)) {
				return false
			}
			x &^= 1 << uint(b)
		}
		wi--
		if wi < 0 {
			return true
		}
		x = w[wi]
	}
}

// Count returns the number of set bits.
func Count(w []uint64) int {
	c := 0
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
}

// AndInto intersects src into dst (dst &= src, element-wise over equal
// lengths) and returns the resulting set-bit count.
func AndInto(dst, src []uint64) int {
	c := 0
	for i := range dst {
		dst[i] &= src[i]
		c += bits.OnesCount64(dst[i])
	}
	return c
}

// ZeroAll clears every word.
func ZeroAll(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

// FillRange sets every bit with index in [lo, hi]. Tolerates empty and
// out-of-range intervals (they are clamped to the addressable words).
func FillRange(w []uint64, lo, hi int32) {
	if lo < 0 {
		lo = 0
	}
	if max := int32(len(w)) * 64; hi >= max {
		hi = max - 1
	}
	if hi < lo {
		return
	}
	loW, hiW := lo>>6, hi>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi) & 63))
	if loW == hiW {
		w[loW] |= loMask & hiMask
		return
	}
	w[loW] |= loMask
	for i := loW + 1; i < hiW; i++ {
		w[i] = ^uint64(0)
	}
	w[hiW] |= hiMask
}

// ShiftUpOne writes src shifted up by one position into dst (bit i of src
// becomes bit i+1 of dst; bit 0 clears; the carry out of the last word is
// dropped). dst and src must have equal length and must not alias.
func ShiftUpOne(dst, src []uint64) {
	var carry uint64
	for i := range src {
		dst[i] = src[i]<<1 | carry
		carry = src[i] >> 63
	}
}

// ShiftDownOne writes src shifted down by one position into dst (bit i+1 of
// src becomes bit i of dst; the highest bit of the last word clears). dst
// and src must have equal length and must not alias.
func ShiftDownOne(dst, src []uint64) {
	for i := range src {
		dst[i] = src[i] >> 1
		if i+1 < len(src) {
			dst[i] |= src[i+1] << 63
		}
	}
}

// Grow returns s resized to nw words, zeroed, reusing the backing array
// when it is large enough.
func Grow(s []uint64, nw int) []uint64 {
	if cap(s) < nw {
		return make([]uint64, nw)
	}
	s = s[:nw]
	ZeroAll(s)
	return s
}

// Resize returns s resized to nw words, reusing the backing array when it
// is large enough. Unlike Grow the word contents are unspecified — for
// buffers whose next use overwrites them entirely (e.g. kernel image
// destinations, which zero themselves).
func Resize(s []uint64, nw int) []uint64 {
	if cap(s) < nw {
		return make([]uint64, nw)
	}
	return s[:nw]
}
