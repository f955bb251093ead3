package bitset

import (
	"math/rand"
	"testing"
)

// refSet mirrors a word vector as a bool slice — the oracle for the
// randomized checks below.
type refSet []bool

func (r refSet) anyIn(lo, hi int32) bool {
	if lo < 0 {
		lo = 0
	}
	if hi >= int32(len(r)) {
		hi = int32(len(r)) - 1
	}
	for i := lo; i <= hi; i++ {
		if r[i] {
			return true
		}
	}
	return false
}

func TestPointOpsAndScans(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(1))
	w := make([]uint64, Words(n))
	ref := make(refSet, n)
	for step := 0; step < 2000; step++ {
		i := int32(rng.Intn(n))
		if rng.Intn(2) == 0 {
			Set(w, i)
			ref[i] = true
		} else {
			Clear(w, i)
			ref[i] = false
		}
		if got := Test(w, i); got != ref[i] {
			t.Fatalf("Test(%d) = %v, want %v", i, got, ref[i])
		}
	}
	count := 0
	first, last := int32(-1), int32(-1)
	for i, b := range ref {
		if b {
			count++
			if first < 0 {
				first = int32(i)
			}
			last = int32(i)
		}
	}
	if got := Count(w); got != count {
		t.Fatalf("Count = %d, want %d", got, count)
	}
	if got := First(w); got != first {
		t.Fatalf("First = %d, want %d", got, first)
	}
	if got := Last(w); got != last {
		t.Fatalf("Last = %d, want %d", got, last)
	}
	for probe := int32(-3); probe < n+5; probe++ {
		want := int32(-1)
		for i := probe; i < n; i++ {
			if i >= 0 && ref[i] {
				want = i
				break
			}
		}
		if got := NextAt(w, probe); got != want {
			t.Fatalf("NextAt(%d) = %d, want %d", probe, got, want)
		}
		for _, hi := range []int32{probe - 1, probe, probe + 1, probe + 63, probe + 64, probe + 130, n + 10} {
			wantIn := want
			if want > hi {
				wantIn = -1
			}
			if got := NextIn(w, probe, hi); got != wantIn {
				t.Fatalf("NextIn(%d, %d) = %d, want %d", probe, hi, got, wantIn)
			}
		}
		wantPrev := int32(-1)
		for i := min(probe, n-1); i >= 0; i-- {
			if ref[i] {
				wantPrev = i
				break
			}
		}
		for _, lo := range []int32{probe + 1, probe, probe - 1, probe - 63, probe - 64, probe - 130, -10} {
			wantIn := wantPrev
			if wantPrev < lo {
				wantIn = -1
			}
			if got := PrevIn(w, lo, probe); got != wantIn {
				t.Fatalf("PrevIn(%d, %d) = %d, want %d", lo, probe, got, wantIn)
			}
		}
	}
	var seen []int32
	ForEach(w, func(i int32) bool { seen = append(seen, i); return true })
	if len(seen) != count {
		t.Fatalf("ForEach visited %d bits, want %d", len(seen), count)
	}
	for k := 1; k < len(seen); k++ {
		if seen[k-1] >= seen[k] {
			t.Fatalf("ForEach out of order at %d: %v", k, seen[k-1:k+1])
		}
	}
	// Early stop.
	visits := 0
	ForEach(w, func(int32) bool { visits++; return visits < 3 })
	if count >= 3 && visits != 3 {
		t.Fatalf("ForEach early stop visited %d", visits)
	}
}

func TestAnyInAndFillRange(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		w := make([]uint64, Words(n))
		ref := make(refSet, n)
		for k := 0; k < 15; k++ {
			i := int32(rng.Intn(n))
			Set(w, i)
			ref[i] = true
		}
		lo := int32(rng.Intn(n+20)) - 10
		hi := int32(rng.Intn(n+20)) - 10
		if got, want := AnyIn(w, lo, hi), ref.anyIn(lo, hi); got != want {
			t.Fatalf("AnyIn(%d, %d) = %v, want %v", lo, hi, got, want)
		}
		FillRange(w, lo, hi)
		for i := int32(0); i < n; i++ {
			want := ref[i] || (i >= lo && i <= hi)
			if Test(w, i) != want {
				t.Fatalf("after FillRange(%d, %d): bit %d = %v, want %v", lo, hi, i, Test(w, i), want)
			}
		}
	}
}

func TestAndIntoZeroGrow(t *testing.T) {
	a := make([]uint64, Words(100))
	b := make([]uint64, Words(100))
	FillRange(a, 0, 99)
	Set(b, 3)
	Set(b, 64)
	dst := make([]uint64, len(a))
	if got := And(dst, a, b); got != 2 || !Test(dst, 3) || !Test(dst, 64) || Test(dst, 4) || Count(a) != 100 {
		t.Fatalf("And count = %d, bits %x; want 2 bits, a untouched", got, dst)
	}
	if got := AndInto(a, b); got != 2 {
		t.Fatalf("AndInto count = %d, want 2", got)
	}
	if !Test(a, 3) || !Test(a, 64) || Test(a, 4) {
		t.Fatalf("AndInto produced wrong bits")
	}
	ZeroAll(a)
	if Count(a) != 0 {
		t.Fatalf("ZeroAll left bits")
	}
	g := Grow(a[:1], Words(100))
	if len(g) != Words(100) || Count(g) != 0 {
		t.Fatalf("Grow: len %d count %d", len(g), Count(g))
	}
	// Grow reusing capacity must zero the slice.
	Set(g, 99)
	g = Grow(g, Words(100))
	if Count(g) != 0 {
		t.Fatalf("Grow reuse did not zero")
	}
}

func TestShifts(t *testing.T) {
	const n = 190
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		src := make([]uint64, Words(n))
		for k := 0; k < 20; k++ {
			Set(src, int32(rng.Intn(n)))
		}
		up := make([]uint64, Words(n))
		down := make([]uint64, Words(n))
		ShiftUpOne(up, src)
		ShiftDownOne(down, src)
		for i := int32(0); i < int32(Words(n))*64; i++ {
			wantUp := i > 0 && Test(src, i-1)
			if Test(up, i) != wantUp {
				t.Fatalf("ShiftUpOne bit %d = %v, want %v", i, Test(up, i), wantUp)
			}
			wantDown := i+1 < int32(Words(n))*64 && Test(src, i+1)
			if Test(down, i) != wantDown {
				t.Fatalf("ShiftDownOne bit %d = %v, want %v", i, Test(down, i), wantDown)
			}
		}
	}
}

// TestForEachFromDirections: the seekable scans agree with a bool-slice
// oracle for every start point, in both directions, including starts
// before, inside, and past the populated range — and early exit stops
// exactly where the callback says.
func TestForEachFromDirections(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(8))
	w := make([]uint64, Words(n))
	ref := make(refSet, n)
	for i := int32(0); i < n; i++ {
		if rng.Intn(3) == 0 {
			Set(w, i)
			ref[i] = true
		}
	}
	collectAsc := func(from int32) []int32 {
		var got []int32
		ForEachFrom(w, from, func(i int32) bool { got = append(got, i); return true })
		return got
	}
	collectDesc := func(from int32) []int32 {
		var got []int32
		ForEachDescFrom(w, from, func(i int32) bool { got = append(got, i); return true })
		return got
	}
	for _, from := range []int32{-5, -1, 0, 1, 63, 64, 65, 127, 128, n / 2, n - 1, n, n + 100} {
		var wantAsc, wantDesc []int32
		for i := int32(0); i < n; i++ {
			if ref[i] && i >= from {
				wantAsc = append(wantAsc, i)
			}
		}
		hi := from
		if hi >= n {
			hi = n - 1
		}
		if from < 0 {
			hi = -1 // ForEachDescFrom with negative from visits nothing
		}
		for i := hi; i >= 0; i-- {
			if ref[i] && i <= hi {
				wantDesc = append(wantDesc, i)
			}
		}
		gotAsc := collectAsc(from)
		if len(gotAsc) != len(wantAsc) {
			t.Fatalf("ForEachFrom(%d): %v want %v", from, gotAsc, wantAsc)
		}
		for k := range gotAsc {
			if gotAsc[k] != wantAsc[k] {
				t.Fatalf("ForEachFrom(%d): %v want %v", from, gotAsc, wantAsc)
			}
		}
		gotDesc := collectDesc(from)
		if len(gotDesc) != len(wantDesc) {
			t.Fatalf("ForEachDescFrom(%d): %v want %v", from, gotDesc, wantDesc)
		}
		for k := range gotDesc {
			if gotDesc[k] != wantDesc[k] {
				t.Fatalf("ForEachDescFrom(%d): %v want %v", from, gotDesc, wantDesc)
			}
		}
	}
	// Early exit: stop after 3 visits, confirm both the count and the
	// false return.
	calls := 0
	if ForEachFrom(w, 0, func(int32) bool { calls++; return calls < 3 }) {
		t.Fatal("ForEachFrom: early exit reported full scan")
	}
	if calls != 3 {
		t.Fatalf("ForEachFrom early exit ran %d callbacks", calls)
	}
	calls = 0
	if ForEachDescFrom(w, n-1, func(int32) bool { calls++; return calls < 3 }) {
		t.Fatal("ForEachDescFrom: early exit reported full scan")
	}
	if calls != 3 {
		t.Fatalf("ForEachDescFrom early exit ran %d callbacks", calls)
	}
}
