package consistency

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/tree"
)

// runDomains collects the PinRun's current domain of every variable as
// NodeSets (NodeID-indexed), for comparison against a Prevaluation.
func runDomains(r *PinRun, nv, n int) []*NodeSet {
	out := make([]*NodeSet, nv)
	for x := 0; x < nv; x++ {
		s := NewNodeSet(n)
		r.ForEachCurrent(cq.Var(x), func(v tree.NodeID) bool {
			s.Add(v)
			return true
		})
		out[x] = s
	}
	return out
}

// pinnedFastAC is a from-scratch pinned FastAC run: fresh buffers and a
// freshly built index on every call.
func pinnedFastAC(t *tree.Tree, q *cq.Query, vars []cq.Var, nodes []tree.NodeID) (*Prevaluation, bool) {
	return NewScratch().PinnedFastACIx(NewTreeIndex(t), q, vars, nodes)
}

// TestPinRunMatchesPinnedAC: an incremental Push from the maximal
// arc-consistent snapshot must agree — consistency verdict AND resulting
// domains — with a from-scratch pinned FastAC run, for every (variable, node)
// pin, across random trees and queries over the full axis set. This is the
// soundness core of output-sensitive enumeration (pinned maximal AC is
// contained in unpinned maximal AC).
func TestPinRunMatchesPinnedAC(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	alphabet := []string{"A", "B", "C"}
	trials, pinsChecked := 0, 0
	for trial := 0; trial < 160; trial++ {
		n := 1 + rng.Intn(14)
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: n, MaxChildren: 3, Alphabet: alphabet,
			MultiLabelProb: 0.1, UnlabeledProb: 0.1,
		})
		q := randomQuery(rng, allTestAxes, alphabet, 1+rng.Intn(4), rng.Intn(5), rng.Intn(3))
		p, ok := FastAC(tr, q)
		if !ok || q.NumVars() == 0 {
			continue
		}
		trials++
		base := NewPinBase(tr, q, p)
		run := NewPinRun(base)
		for x := 0; x < q.NumVars(); x++ {
			for v := 0; v < tr.Len(); v++ {
				want, wantOK := pinnedFastAC(tr, q, []cq.Var{cq.Var(x)}, []tree.NodeID{tree.NodeID(v)})
				gotOK := run.Push(cq.Var(x), tree.NodeID(v))
				if gotOK != wantOK {
					t.Fatalf("trial %d: pin %d=%d: incremental %v, from-scratch %v\nquery %s\ntree %s",
						trial, x, v, gotOK, wantOK, q, tr)
				}
				pinsChecked++
				if !gotOK {
					continue
				}
				doms := runDomains(run, q.NumVars(), tr.Len())
				for y := 0; y < q.NumVars(); y++ {
					if !doms[y].Equal(want.Sets[y]) {
						t.Fatalf("trial %d: pin %d=%d: domain of var %d: incremental %v, from-scratch %v\nquery %s\ntree %s",
							trial, x, v, y, doms[y].Members(), want.Sets[y].Members(), q, tr)
					}
				}
				run.Pop()
				if run.Depth() != 0 {
					t.Fatalf("depth %d after pop", run.Depth())
				}
			}
		}
	}
	if trials < 30 || pinsChecked < 500 {
		t.Fatalf("too few satisfiable trials (%d) / pins (%d) — generator drifted", trials, pinsChecked)
	}
}

// TestPinRunStackedPins: pushing two pins must agree with a from-scratch
// pinned FastAC run with both pins, and popping must restore the one-pin state
// exactly (copy-on-write levels must not leak mutations downward).
func TestPinRunStackedPins(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []string{"A", "B"}
	checked := 0
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(10)
		tr := tree.Random(rng, tree.RandomConfig{Nodes: n, MaxChildren: 3, Alphabet: alphabet})
		q := randomQuery(rng, allTestAxes, alphabet, 2+rng.Intn(3), 1+rng.Intn(4), rng.Intn(2))
		p, ok := FastAC(tr, q)
		if !ok {
			continue
		}
		base := NewPinBase(tr, q, p)
		run := NewPinRun(base)
		nv := q.NumVars()
		x1 := cq.Var(rng.Intn(nv))
		x2 := cq.Var(rng.Intn(nv))
		for v1 := 0; v1 < tr.Len(); v1++ {
			if !run.Push(x1, tree.NodeID(v1)) {
				continue
			}
			oneDoms := runDomains(run, nv, tr.Len())
			for v2 := 0; v2 < tr.Len(); v2++ {
				want, wantOK := pinnedFastAC(tr, q,
					[]cq.Var{x1, x2}, []tree.NodeID{tree.NodeID(v1), tree.NodeID(v2)})
				gotOK := run.Push(x2, tree.NodeID(v2))
				if gotOK != wantOK {
					t.Fatalf("trial %d: pins %d=%d,%d=%d: incremental %v, from-scratch %v\nquery %s\ntree %s",
						trial, x1, v1, x2, v2, gotOK, wantOK, q, tr)
				}
				checked++
				if gotOK {
					doms := runDomains(run, nv, tr.Len())
					for y := 0; y < nv; y++ {
						if !doms[y].Equal(want.Sets[y]) {
							t.Fatalf("trial %d: pins %d=%d,%d=%d: var %d: incremental %v, from-scratch %v\nquery %s\ntree %s",
								trial, x1, v1, x2, v2, y, doms[y].Members(), want.Sets[y].Members(), q, tr)
						}
					}
					run.Pop()
				}
				// The one-pin state must be untouched by the deeper push.
				after := runDomains(run, nv, tr.Len())
				for y := 0; y < nv; y++ {
					if !after[y].Equal(oneDoms[y]) {
						t.Fatalf("trial %d: pop leaked: var %d: %v != %v", trial, y, after[y].Members(), oneDoms[y].Members())
					}
				}
			}
			run.Pop()
		}
	}
	if checked < 300 {
		t.Fatalf("too few stacked pins checked (%d)", checked)
	}
}

// TestPinBaseScratchReuse: rebinding a Scratch-owned PinBase/PinRun across
// different trees and queries must not leak state between enumerations.
func TestPinBaseScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	alphabet := []string{"A", "B", "C"}
	sc := NewScratch()
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(12)
		tr := tree.Random(rng, tree.RandomConfig{Nodes: n, MaxChildren: 4, Alphabet: alphabet})
		q := randomQuery(rng, allTestAxes, alphabet, 1+rng.Intn(4), rng.Intn(4), rng.Intn(3))
		ix := NewTreeIndex(tr)
		if !sc.FastACPreIx(ix, q) || q.NumVars() == 0 {
			continue
		}
		base := sc.PinBaseAC()
		run := sc.PinRunFor(base)
		x := cq.Var(rng.Intn(q.NumVars()))
		for v := 0; v < tr.Len(); v++ {
			want, wantOK := pinnedFastAC(tr, q, []cq.Var{x}, []tree.NodeID{tree.NodeID(v)})
			if got := run.Push(x, tree.NodeID(v)); got != wantOK {
				t.Fatalf("trial %d: pin %d=%d: scratch-backed incremental %v, from-scratch %v\nquery %s\ntree %s",
					trial, x, v, got, wantOK, q, tr)
			} else if got {
				doms := runDomains(run, q.NumVars(), tr.Len())
				for y := 0; y < q.NumVars(); y++ {
					if !doms[y].Equal(want.Sets[y]) {
						t.Fatalf("trial %d: pin %d=%d: var %d mismatch", trial, x, v, y)
					}
				}
				run.Pop()
			}
		}
	}
}

// The word-level helper tests formerly here (TestAnyBitIn) moved with the
// helpers to internal/bitset.

// TestOrderingsOnlyWhereProbed: a domain keeps sibling-order words only
// for a variable of a sibling-+/* atom, whose probe reads them. After a
// load of the benchmark corpus's ac_bool, x holds pre words only and y
// and z keep sibling words equal to their pre words' members; every
// variable of bt_bool holds pre words only. A kernel revise of a pre-only
// target is the word AND (andPre), which lists no removals, and such
// revises do remove values here.
func TestOrderingsOnlyWhereProbed(t *testing.T) {
	defer SetKernelPolicy(KernelAuto)
	SetKernelPolicy(KernelAlways)
	tr := tree.Random(rand.New(rand.NewSource(1)), tree.DefaultRandomConfig(4000))
	ix := NewTreeIndex(tr)
	for _, c := range []struct {
		src string
		sib []string
	}{
		{"Q() <- A(x), Child(x, y), B(y), NextSibling+(y, z), C(z)", []string{"y", "z"}},
		{"Q() <- D(x), Child(x, y), E(y), Child+(x, z), A(z), Following(y, z)", nil},
	} {
		q := cq.MustParse(c.src)
		sc := NewScratch()
		lv, ok := sc.loadLevel(ix, q)
		if !ok {
			t.Fatalf("%s: a domain is empty after the load", c.src)
		}
		keeps := make([]bool, q.NumVars())
		for x := range keeps {
			keeps[x] = slices.Contains(c.sib, q.VarName(cq.Var(x)))
			w := lv.cur[x]
			if got := len(w.sib) > 0; got != keeps[x] {
				t.Fatalf("%s: %s keeps sibling words: %v, want %v", c.src, q.VarName(cq.Var(x)), got, keeps[x])
			}
			if keeps[x] && bitset.Count(w.sib) != bitset.Count(w.pre) {
				t.Fatalf("%s: %s: %d sibling-order members, %d pre-order", c.src, q.VarName(cq.Var(x)), bitset.Count(w.sib), bitset.Count(w.pre))
			}
		}
		r, anded := &sc.acRun, 0
		for _, at := range q.Atoms {
			for _, fwd := range []bool{true, false} {
				tgt := at.X
				if !fwd {
					tgt = at.Y
				}
				removed := r.revise(lv, at, fwd)
				switch {
				case !keeps[tgt] && len(r.removeBuf) != 0:
					t.Fatalf("%s: the kernel revise of pre-only %s listed %d removals", c.src, q.VarName(tgt), len(r.removeBuf))
				case !keeps[tgt]:
					anded += removed
				case len(r.removeBuf) != removed:
					t.Fatalf("%s: the revise of %s removed %d values and listed %d", c.src, q.VarName(tgt), removed, len(r.removeBuf))
				}
				if lv.count[tgt] == 0 {
					break
				}
			}
		}
		if anded == 0 {
			t.Fatalf("%s: no pre-only revise removed anything", c.src)
		}
	}
}
