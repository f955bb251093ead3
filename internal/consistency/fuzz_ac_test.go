package consistency_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/axis"
	"repro/internal/bitset"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/tree"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// acCase is one decoded fuzz input: a tree of at most 40 nodes whose extra
// labels D0, D1, ... mark the random initial domain of each variable, the
// query q over all 17 axes, and qd = q plus the atoms Dx(x). The maximal
// arc-consistent prevaluation of q below the domains is by construction
// that of qd from its label-filtered start, so HornAC(t, qd) is its oracle.
// rest is the input left over, which drives the exclusion sequences.
type acCase struct {
	t     *tree.Tree
	q, qd *cq.Query
	doms  []*consistency.NodeSet
	rest  fuzzBytes
}

func decodeACCase(data []byte) acCase {
	in := fuzzBytes(data)
	n := 1 + in.next()%40
	nv := 1 + in.next()%4
	labels := []string{"A", "B", "C"}
	axes := axis.All()

	// Parents are drawn from all earlier nodes, so NodeIDs are not in
	// document order.
	b := tree.NewBuilder(n)
	doms := make([]*consistency.NodeSet, nv)
	for x := range doms {
		doms[x] = consistency.NewNodeSet(n)
	}
	// Per variable: 0 = every node, else keep a node when its byte is below
	// a variable-specific density.
	density := make([]int, nv)
	for x := range density {
		density[x] = in.next()
	}
	for v := 0; v < n; v++ {
		var ls []string
		bits := in.next()
		for i, l := range labels {
			if bits&(1<<i) != 0 {
				ls = append(ls, l)
			}
		}
		for x := range doms {
			if density[x]%4 == 0 || in.next() < density[x] {
				doms[x].Add(tree.NodeID(v))
				ls = append(ls, fmt.Sprintf("D%d", x))
			}
		}
		parent := tree.NilNode
		if v > 0 {
			parent = tree.NodeID(in.next() % v)
		}
		b.AddNode(parent, ls...)
	}

	q := cq.New()
	for x := 0; x < nv; x++ {
		q.AddVar(string(rune('a' + x)))
	}
	for i, na := 0, in.next()%7; i < na; i++ {
		q.AddAtom(axes[in.next()%len(axes)], cq.Var(in.next()%nv), cq.Var(in.next()%nv))
	}
	for i, nl := 0, in.next()%3; i < nl; i++ {
		q.AddLabel(labels[in.next()%len(labels)], cq.Var(in.next()%nv))
	}
	q.SetHead()
	for x, nh := 0, in.next()%(nv+1); x < nh; x++ {
		q.Head = append(q.Head, cq.Var(x))
	}
	qd := q.Clone()
	for x := 0; x < nv; x++ {
		qd.AddLabel(fmt.Sprintf("D%d", x), cq.Var(x))
	}
	return acCase{t: b.Build(), q: q, qd: qd, doms: doms, rest: in}
}

func sameAC(p *consistency.Prevaluation, ok bool, want *consistency.Prevaluation, wantOK bool) bool {
	if ok != wantOK {
		return false
	}
	return !ok || p.Equal(want)
}

// FuzzArcConsistency checks the bitset worklist against the paper-exact
// Horn-SAT reduction (Prop. 3.1) on trees of at most 40 nodes:
//
//   - FastACFrom from random initial domains equals HornAC's maximal
//     prevaluation under every kernel policy (run one after another: the
//     policy is process-wide);
//   - every PinRun.Push(x, v) over that result agrees, verdict and
//     domains, with HornACPinned;
//   - after each Scratch.Exclude of a fuzz-derived exclusion sequence on
//     top of that result, the verdict and every domain equal
//     HornACExcluding's with the values excluded so far (checkExclusions);
//   - the MAC backtracking engine returns exactly the brute-force
//     reference answers (when the reference search stays small).
func FuzzArcConsistency(f *testing.F) {
	f.Add([]byte{12, 2, 0, 0, 1, 2, 4, 3, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 4, 1, 0, 1, 6, 1, 0, 14, 0, 0, 1, 0, 1, 1})
	f.Add([]byte{39, 3, 7, 130, 255, 1, 200, 2, 9, 4, 17, 33, 65, 3, 5, 0, 1, 2, 3, 4, 5, 6, 5, 0, 1, 2, 13, 2, 0, 2, 1, 2, 2})
	f.Add([]byte{7, 0, 0, 6, 0, 1, 0, 2, 1, 3, 2, 6, 14, 0, 0, 16, 0, 0, 15, 0, 0, 1, 2, 0, 1})
	f.Add([]byte{25, 1, 64, 128, 5, 9, 200, 3, 7, 11, 100, 2, 1, 3, 0, 1, 1, 8, 1, 0, 13, 0, 1, 6, 1, 0, 1, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeACCase(data)
		n, nv := c.t.Len(), c.q.NumVars()
		want, wantOK := consistency.HornAC(c.t, c.qd)

		// Pinned Horn runs, once per (x, v), shared by the three policies.
		type pinned struct {
			p  *consistency.Prevaluation
			ok bool
		}
		var pins [][]pinned
		if wantOK {
			pins = make([][]pinned, nv)
			for x := range pins {
				pins[x] = make([]pinned, n)
				for v := range pins[x] {
					p, ok := consistency.HornACPinned(c.t, c.qd, []cq.Var{cq.Var(x)}, []tree.NodeID{tree.NodeID(v)})
					pins[x][v] = pinned{p, ok}
				}
			}
		}

		defer consistency.SetKernelPolicy(consistency.KernelAuto)
		for _, pol := range []consistency.KernelPolicy{consistency.KernelAuto, consistency.KernelAlways, consistency.KernelNever} {
			consistency.SetKernelPolicy(pol)
			init := consistency.NewPrevaluation(c.t, c.q)
			for x, s := range init.Sets {
				s.IntersectWith(c.doms[x])
			}
			got, ok := consistency.FastACFrom(c.t, c.q, init)
			if !sameAC(got, ok, want, wantOK) {
				t.Fatalf("policy %d: FastACFrom ok=%v, HornAC ok=%v\nquery %s\ntree %s", pol, ok, wantOK, c.qd, c.t)
			}
			if !ok {
				continue
			}
			for x := range init.Sets {
				if got.Sets[x] != init.Sets[x] {
					t.Fatalf("policy %d: FastACFrom result does not alias init's sets", pol)
				}
			}
			run := consistency.NewPinRun(consistency.NewPinBase(c.t, c.q, got))
			for x := 0; x < nv; x++ {
				for v := 0; v < n; v++ {
					pushed := run.Push(cq.Var(x), tree.NodeID(v))
					w := pins[x][v]
					if pushed != w.ok {
						t.Fatalf("policy %d: Push(%d, %d) = %v, Horn pinned %v\nquery %s\ntree %s", pol, x, v, pushed, w.ok, c.qd, c.t)
					}
					if !pushed {
						continue
					}
					for y := 0; y < nv; y++ {
						if l := run.CurrentLen(cq.Var(y)); l != w.p.Sets[y].Len() {
							t.Fatalf("policy %d: Push(%d, %d): var %d has %d candidates, Horn %d", pol, x, v, y, l, w.p.Sets[y].Len())
						}
						run.ForEachCurrent(cq.Var(y), func(u tree.NodeID) bool {
							if !w.p.Sets[y].Has(u) {
								t.Fatalf("policy %d: Push(%d, %d): var %d keeps node %d, Horn drops it", pol, x, v, y, u)
							}
							return true
						})
					}
					run.Pop()
				}
			}
			checkExclusions(t, pol, c, got)
		}

		// The brute-force reference tries n^nv valuations.
		space := 1
		for x := 0; x < nv; x++ {
			space *= n
		}
		if space > 1<<16 {
			return
		}
		ref := core.ReferenceEvalAll(c.t, c.qd)
		slices.SortFunc(ref, slices.Compare)
		mac := core.NewBacktrackEngine().EvalAll(c.t, c.qd)
		if fmt.Sprint(ref) != fmt.Sprint(mac) {
			t.Fatalf("MAC answers %v, reference %v\nquery %s\ntree %s", mac, ref, c.qd, c.t)
		}
	})
}

// checkExclusions runs up to eight Scratch.Exclude calls on top of the
// maximal arc-consistent prevaluation ac, with the kernel policy already
// set, and checks each against HornACExcluding on the label-filtered start
// with every value excluded so far removed. A step picks a variable and
// then, by one byte k, the (k/2)-th live value of its domain counted in pre
// order from the minimum (k even) or from the maximum (k odd), or (k >=
// 240) any node, possibly one the domain no longer holds. All zero bytes
// therefore run Lemma 3.4's min-delete loop on variable a. The
// exclusions' removal counter must equal the values the domains lost.
func checkExclusions(t *testing.T, pol consistency.KernelPolicy, c acCase, ac *consistency.Prevaluation) {
	t.Helper()
	init := consistency.NewPrevaluation(c.t, c.q)
	for x, s := range init.Sets {
		s.IntersectWith(c.doms[x])
	}
	sc := consistency.NewScratch()
	if _, _, ok := sc.FastACFromStats(c.t, c.q, init); !ok {
		t.Fatalf("policy %d: Scratch.FastACFromStats fails where FastACFrom succeeds", pol)
	}
	n, nv := c.t.Len(), c.q.NumVars()
	in := c.rest
	var xs []cq.Var
	var vs []tree.NodeID
	for step, steps := 0, 8-in.next()%8; step < steps; step++ {
		x := cq.Var(in.next() % nv)
		dom := sc.DomainPre(x)
		var pr int32
		switch k := in.next(); {
		case k >= 240:
			pr = c.t.Pre(tree.NodeID(k % n))
		case k%2 == 0:
			pr = bitset.First(dom)
			for k = k / 2 % bitset.Count(dom); k > 0; k-- {
				pr = bitset.NextAt(dom, pr+1)
			}
		default:
			pr = bitset.Last(dom)
			for k = k / 2 % bitset.Count(dom); k > 0; k-- {
				pr = bitset.PrevIn(dom, 0, pr-1)
			}
		}
		xs, vs = append(xs, x), append(vs, c.t.ByPre(pr))
		ok := sc.Exclude(x, pr)
		want, wantOK := consistency.HornACExcluding(c.t, c.qd, xs, vs)
		if ok != wantOK {
			t.Fatalf("policy %d: Exclude #%d (%d, %d) = %v, Horn %v\nexcluded %v %v\nquery %s\ntree %s", pol, step, x, vs[step], ok, wantOK, xs, vs, c.qd, c.t)
		}
		if !ok {
			return
		}
		lost := 0
		for y := 0; y < nv; y++ {
			dom := sc.DomainPre(cq.Var(y))
			for u := 0; u < n; u++ {
				if has := bitset.Test(dom, c.t.Pre(tree.NodeID(u))); has != want.Sets[y].Has(tree.NodeID(u)) {
					t.Fatalf("policy %d: after Exclude #%d (%d, %d): var %d holds node %d = %v, Horn %v\nexcluded %v %v\nquery %s\ntree %s", pol, step, x, vs[step], y, u, has, !has, xs, vs, c.qd, c.t)
				}
			}
			lost += ac.Sets[y].Len() - want.Sets[y].Len()
		}
		if st := sc.ExclusionStats(); st.Removals != lost {
			t.Fatalf("policy %d: %d exclusion removals, the domains lost %d", pol, st.Removals, lost)
		}
	}
}
