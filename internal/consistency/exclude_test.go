package consistency

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/tree"
)

// TestExcludeMatchesHornAC runs exclusion sequences on the maximal
// arc-consistent prevaluation of random queries, each holding the atom
// a(x, y) for one of the 17 axes (plus random others), and checks every
// step against HornACExcluding. A step excludes the minimum, the maximum
// or a random live value of a random variable, so the threshold axes see
// their extremes move in both directions, or a random node, which the
// domain may no longer hold (then nothing changes).
func TestExcludeMatchesHornAC(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	alphabet := []string{"A", "B"}
	for _, a := range allTestAxes {
		for trial := 0; trial < 200; trial++ {
			tr := tree.Random(rng, tree.RandomConfig{Nodes: 2 + rng.Intn(11), MaxChildren: 3, Alphabet: alphabet})
			nv := 2 + rng.Intn(2)
			q := randomQuery(rng, allTestAxes, alphabet, nv, rng.Intn(3), rng.Intn(2))
			q.AddAtom(a, cq.Var(rng.Intn(nv)), cq.Var(rng.Intn(nv)))
			sc := NewScratch()
			ac, _, ok := sc.FastACFromStats(tr, q, NewPrevaluation(tr, q))
			if !ok {
				continue
			}
			var xs []cq.Var
			var vs []tree.NodeID
			for step := 0; ; step++ {
				x := cq.Var(rng.Intn(nv))
				dom := sc.DomainPre(x)
				pr := bitset.First(dom)
				switch rng.Intn(4) {
				case 1:
					pr = bitset.Last(dom)
				case 2:
					for k := rng.Intn(bitset.Count(dom)); k > 0; k-- {
						pr = bitset.NextAt(dom, pr+1)
					}
				case 3:
					pr = int32(rng.Intn(tr.Len()))
				}
				xs, vs = append(xs, x), append(vs, tr.ByPre(pr))
				ok := sc.Exclude(x, pr)
				want, wantOK := HornACExcluding(tr, q, xs, vs)
				if ok != wantOK {
					t.Fatalf("%v: Exclude #%d = %v, Horn %v\nexcluded %v %v\nquery %s\ntree %s", a, step, ok, wantOK, xs, vs, q, tr)
				}
				if !ok {
					break
				}
				removed := 0
				for y := 0; y < nv; y++ {
					got := NewNodeSet(tr.Len())
					bitset.ForEach(sc.DomainPre(cq.Var(y)), func(pr int32) bool {
						got.Add(tr.ByPre(pr))
						return true
					})
					if !got.Equal(want.Sets[y]) {
						t.Fatalf("%v: after Exclude #%d var %d is %v, Horn %v\nexcluded %v %v\nquery %s\ntree %s", a, step, y, got.Members(), want.Sets[y].Members(), xs, vs, q, tr)
					}
					removed += ac.Sets[y].Len() - got.Len()
				}
				if st := sc.ExclusionStats(); st.Removals != removed {
					t.Fatalf("%v: %d removals counted, %d made", a, st.Removals, removed)
				}
			}
		}
	}
}
