package consistency

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/axis"
	"repro/internal/cq"
	"repro/internal/tree"
)

// refMaximalAC computes the subset-maximal arc-consistent prevaluation by
// naive fixpoint iteration directly from the §3 definition — the oracle
// both engines are checked against.
func refMaximalAC(t *tree.Tree, q *cq.Query) (*Prevaluation, bool) {
	p := NewPrevaluation(t, q)
	changed := true
	for changed {
		changed = false
		for _, at := range q.Atoms {
			sx, sy := p.Sets[at.X], p.Sets[at.Y]
			var del []tree.NodeID
			sx.ForEach(func(v tree.NodeID) bool {
				ok := false
				sy.ForEach(func(w tree.NodeID) bool {
					if axis.Holds(t, at.Axis, v, w) {
						ok = true
						return false
					}
					return true
				})
				if !ok {
					del = append(del, v)
				}
				return true
			})
			for _, v := range del {
				sx.Remove(v)
				changed = true
			}
			del = del[:0]
			sy.ForEach(func(w tree.NodeID) bool {
				ok := false
				sx.ForEach(func(v tree.NodeID) bool {
					if axis.Holds(t, at.Axis, v, w) {
						ok = true
						return false
					}
					return true
				})
				if !ok {
					del = append(del, w)
				}
				return true
			})
			for _, w := range del {
				sy.Remove(w)
				changed = true
			}
		}
	}
	if p.Empty() {
		return nil, false
	}
	return p, true
}

// randomQuery builds a random CQ over the given axes with nv variables and
// na binary atoms, labels drawn from alphabet.
func randomQuery(rng *rand.Rand, axes []axis.Axis, alphabet []string, nv, na, nl int) *cq.Query {
	q := cq.New()
	vars := make([]cq.Var, nv)
	for i := range vars {
		vars[i] = q.AddVar(string(rune('a' + i)))
	}
	for i := 0; i < na; i++ {
		a := axes[rng.Intn(len(axes))]
		x := vars[rng.Intn(nv)]
		y := vars[rng.Intn(nv)]
		q.AddAtom(a, x, y)
	}
	for i := 0; i < nl; i++ {
		q.AddLabel(alphabet[rng.Intn(len(alphabet))], vars[rng.Intn(nv)])
	}
	return q
}

var testAxes = []axis.Axis{
	axis.Child, axis.ChildPlus, axis.ChildStar,
	axis.NextSibling, axis.NextSiblingPlus, axis.NextSiblingStar,
	axis.Following,
}

var allTestAxes = append(append([]axis.Axis{}, testAxes...),
	axis.Parent, axis.AncestorPlus, axis.AncestorStar,
	axis.PrevSibling, axis.PrevSiblingPlus, axis.PrevSiblingStar,
	axis.Preceding, axis.Self, axis.DocOrder, axis.DocOrderSucc)

func TestEnginesAgreeWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []string{"A", "B", "C"}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(18)
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: n, MaxChildren: 3, Alphabet: alphabet,
			MultiLabelProb: 0.1, UnlabeledProb: 0.1,
		})
		q := randomQuery(rng, allTestAxes, alphabet, 1+rng.Intn(4), rng.Intn(5), rng.Intn(3))

		want, wantOK := refMaximalAC(tr, q)
		gotF, okF := FastAC(tr, q)
		gotH, okH := HornAC(tr, q)
		if okF != wantOK || okH != wantOK {
			t.Fatalf("trial %d: ok mismatch: oracle %v fast %v horn %v\nquery %s\ntree %s",
				trial, wantOK, okF, okH, q, tr)
		}
		if !wantOK {
			continue
		}
		if !gotF.Equal(want) {
			t.Fatalf("trial %d: FastAC differs from oracle\nquery %s\ntree %s", trial, q, tr)
		}
		if !gotH.Equal(want) {
			t.Fatalf("trial %d: HornAC differs from oracle\nquery %s\ntree %s", trial, q, tr)
		}
	}
}

func TestACResultIsArcConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := []string{"A", "B"}
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: 1 + rng.Intn(15), MaxChildren: 3, Alphabet: alphabet,
		})
		q := randomQuery(rng, testAxes, alphabet, 1+rng.Intn(3), rng.Intn(4), rng.Intn(2))
		p, ok := FastAC(tr, q)
		if !ok {
			return true
		}
		return p.IsArcConsistent(tr, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMinimumValuationConsistentOnXStructures(t *testing.T) {
	// Lemma 3.4: on structures with the X-property w.r.t. an order, the
	// minimum valuation of an arc-consistent prevaluation is consistent.
	// Exercise all three tractable signatures with their orders.
	type sigCase struct {
		axes  []axis.Axis
		order axis.Order
	}
	cases := []sigCase{
		{[]axis.Axis{axis.ChildPlus, axis.ChildStar}, axis.PreOrder},
		{[]axis.Axis{axis.Following}, axis.PostOrder},
		{[]axis.Axis{axis.Child, axis.NextSibling, axis.NextSiblingPlus, axis.NextSiblingStar}, axis.BFLROrder},
	}
	rng := rand.New(rand.NewSource(17))
	alphabet := []string{"A", "B", "C"}
	for _, sc := range cases {
		for trial := 0; trial < 150; trial++ {
			tr := tree.Random(rng, tree.RandomConfig{
				Nodes: 1 + rng.Intn(25), MaxChildren: 3, Alphabet: alphabet,
				UnlabeledProb: 0.1,
			})
			q := randomQuery(rng, sc.axes, alphabet, 1+rng.Intn(4), rng.Intn(6), rng.Intn(3))
			p, ok := FastAC(tr, q)
			if !ok {
				continue
			}
			theta := p.MinimumValuation(tr, sc.order)
			if !Consistent(tr, q, theta) {
				t.Fatalf("minimum valuation inconsistent for %v w.r.t. %v\nquery %s\ntree %s",
					sc.axes, sc.order, q, tr)
			}
		}
	}
}

func TestPinnedACMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alphabet := []string{"A", "B"}
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(12)
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: n, MaxChildren: 3, Alphabet: alphabet,
		})
		q := randomQuery(rng, testAxes, alphabet, 1+rng.Intn(3), rng.Intn(4), rng.Intn(2))
		x := cq.Var(rng.Intn(q.NumVars()))
		node := tree.NodeID(rng.Intn(n))
		pf, okF := pinnedFastAC(tr, q, []cq.Var{x}, []tree.NodeID{node})
		ph, okH := HornACPinned(tr, q, []cq.Var{x}, []tree.NodeID{node})
		if okF != okH {
			t.Fatalf("trial %d: pinned engines disagree: fast %v horn %v", trial, okF, okH)
		}
		if okF && !pf.Equal(ph) {
			t.Fatalf("trial %d: pinned prevaluations differ", trial)
		}
		if okF {
			if pf.Sets[x].Len() != 1 || !pf.Sets[x].Has(node) {
				t.Fatalf("trial %d: pinned set not the singleton", trial)
			}
			if !pf.IsArcConsistent(tr, q) {
				t.Fatalf("trial %d: pinned result not arc-consistent", trial)
			}
		}
	}
}

func TestEmptyAndDegenerateCases(t *testing.T) {
	q := cq.MustParse("Q() <- true")
	empty := tree.NewBuilder(0).Build()
	if _, ok := FastAC(empty, q); !ok {
		t.Errorf("no-var query on empty tree should hold")
	}
	q2 := cq.MustParse("Q() <- A(x)")
	if _, ok := FastAC(empty, q2); ok {
		t.Errorf("query with vars on empty tree should fail")
	}
	one := tree.MustParseTerm("A")
	if _, ok := FastAC(one, q2); !ok {
		t.Errorf("A(x) on single-A tree should hold")
	}
	q3 := cq.MustParse("Q() <- B(x)")
	if _, ok := FastAC(one, q3); ok {
		t.Errorf("B(x) on single-A tree should fail")
	}
}

func TestUnsatisfiableLabelConjunction(t *testing.T) {
	tr := tree.MustParseTerm("A(B)")
	q := cq.MustParse("Q() <- A(x), B(x)")
	if _, ok := FastAC(tr, q); ok {
		t.Errorf("no node carries both A and B")
	}
	multi := tree.MustParseTerm("A|B(C)")
	if _, ok := FastAC(multi, q); !ok {
		t.Errorf("multi-labeled node should satisfy A(x), B(x)")
	}
}

func TestConsistentValuationCheck(t *testing.T) {
	tr := tree.MustParseTerm("A(B,C)")
	q := cq.MustParse("Q() <- A(x), Child(x, y), B(y)")
	x, _ := q.VarByName("x")
	y, _ := q.VarByName("y")
	theta := make(Valuation, q.NumVars())
	theta[x] = 0 // A
	theta[y] = 1 // B
	if !Consistent(tr, q, theta) {
		t.Errorf("valid valuation rejected")
	}
	theta[y] = 2 // C: label B fails
	if Consistent(tr, q, theta) {
		t.Errorf("invalid valuation accepted")
	}
}

func TestNodeSetOps(t *testing.T) {
	s := NewNodeSet(100)
	s.Add(3)
	s.Add(70)
	s.Add(3)
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if !s.Has(3) || !s.Has(70) || s.Has(4) {
		t.Errorf("membership wrong")
	}
	s.Remove(3)
	s.Remove(3)
	if s.Len() != 1 || s.Has(3) {
		t.Errorf("remove wrong")
	}
	full := FullNodeSet(10)
	if full.Len() != 10 {
		t.Errorf("FullNodeSet Len = %d", full.Len())
	}
	o := NewNodeSet(10)
	o.Add(2)
	o.Add(5)
	full.IntersectWith(o)
	if !full.Equal(o) {
		t.Errorf("intersection wrong: %v", full.Members())
	}
	members := o.Members()
	if len(members) != 2 || members[0] != 2 || members[1] != 5 {
		t.Errorf("Members = %v", members)
	}
}

func TestFastACStats(t *testing.T) {
	tr := tree.MustParseTerm("A(B,C(B),D)")
	// y is unlabeled, so arc consistency itself must prune it down to
	// nodes between an A and a B.
	q := cq.MustParse("Q() <- A(x), Child+(x, y), Child+(y, z), B(z)")
	p, stats, ok := FastACFromStats(tr, q, NewPrevaluation(tr, q))
	if !ok {
		t.Fatal("query should be satisfiable")
	}
	if stats.Revisions == 0 {
		t.Errorf("expected at least one revision")
	}
	if stats.Removals == 0 {
		t.Errorf("expected removals, got %+v", stats)
	}
	y, _ := q.VarByName("y")
	if p.Sets[y].Len() != 1 { // only the C node lies strictly between A and a B
		t.Errorf("Π(y) = %v, want exactly the C node", p.Sets[y].Members())
	}
	// A trivially-true query does no pruning.
	q2 := cq.MustParse("Q() <- Child*(x, y)")
	_, stats2, ok := FastACFromStats(tr, q2, NewPrevaluation(tr, q2))
	if !ok {
		t.Fatal("Child* query should hold")
	}
	if stats2.Removals != 0 {
		t.Errorf("no pruning expected: %+v", stats2)
	}
}

// TestPreEndOrder: the index's (preEnd, pre) order — preEndPos and its
// value table preEndVal — is the nodes sorted by preEnd, ties by pre.
func TestPreEndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tr := tree.Random(rng, tree.DefaultRandomConfig(1+rng.Intn(300)))
		ix := NewTreeIndex(tr)
		n := tr.Len()
		want := make([]tree.NodeID, n)
		for v := range want {
			want[v] = tree.NodeID(v)
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if tr.PreEnd(a) != tr.PreEnd(b) {
				return tr.PreEnd(a) < tr.PreEnd(b)
			}
			return tr.Pre(a) < tr.Pre(b)
		})
		for pos, v := range want {
			if ix.preEndPos[v] != int32(pos) || ix.preEndVal[pos] != tr.PreEnd(v) {
				t.Fatalf("trial %d: node %d at position %d (value %d), want %d (value %d)",
					trial, v, ix.preEndPos[v], ix.preEndVal[pos], pos, tr.PreEnd(v))
			}
		}
	}
}
