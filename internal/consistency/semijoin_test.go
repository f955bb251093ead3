package consistency

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/tree"
)

// randomForestQuery builds a random query whose shadow is a forest: each
// variable after the first links to an earlier one (in a random
// direction) by one atom over the full axis vocabulary, except that about
// one variable in five starts a new component.
func randomForestQuery(rng *rand.Rand, alphabet []string, nv, nl int) *cq.Query {
	q := cq.New()
	vars := make([]cq.Var, nv)
	for i := range vars {
		vars[i] = q.AddVar(string(rune('a' + i)))
	}
	for i := 1; i < nv; i++ {
		if rng.Intn(5) == 0 {
			continue
		}
		x, y := vars[rng.Intn(i)], vars[i]
		if rng.Intn(2) == 0 {
			x, y = y, x
		}
		q.AddAtom(allTestAxes[rng.Intn(len(allTestAxes))], x, y)
	}
	for i := 0; i < nl; i++ {
		q.AddLabel(alphabet[rng.Intn(len(alphabet))], vars[rng.Intn(nv)])
	}
	return q
}

// forestSchedule is Yannakakis' semijoin schedule for a forest-shaped
// query, derived here by a breadth-first walk of each component: every
// linking atom revises the parent against the child in reverse discovery
// order (children before parents), then the child against the parent in
// discovery order.
func forestSchedule(t *testing.T, q *cq.Query) []Semijoin {
	if !cq.NewGraph(q).IsForest() {
		t.Fatalf("query is not a forest: %s", q)
	}
	type link struct {
		atom      int32
		parentIsX bool
	}
	var links []link
	seen := make([]bool, q.NumVars())
	for root := range seen {
		if seen[root] {
			continue
		}
		seen[root] = true
		queue := []cq.Var{cq.Var(root)}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for i, at := range q.Atoms {
				var y cq.Var
				switch {
				case at.X == x && !seen[at.Y]:
					y = at.Y
				case at.Y == x && !seen[at.X]:
					y = at.X
				default:
					continue
				}
				links = append(links, link{int32(i), at.X == x})
				seen[y] = true
				queue = append(queue, y)
			}
		}
	}
	var steps []Semijoin
	for i := len(links) - 1; i >= 0; i-- {
		steps = append(steps, Semijoin{Atom: links[i].atom, Fwd: links[i].parentIsX})
	}
	for _, l := range links {
		steps = append(steps, Semijoin{Atom: l.atom, Fwd: !l.parentIsX})
	}
	return steps
}

// TestSemijoinScheduleMatchesFastAC: on forest-shaped queries the two
// Yannakakis passes reach the maximal arc-consistent prevaluation
// (Freuder), so SemijoinIx over the schedule must return FastACIx's
// verdict and, when satisfiable, leave every variable's reduced pre-rank
// words (DomainPre) equal to FastACIx's set — under every kernel policy,
// on trees small enough for the probe path and large enough for the
// kernel path.
func TestSemijoinScheduleMatchesFastAC(t *testing.T) {
	defer SetKernelPolicy(KernelAuto)
	rng := rand.New(rand.NewSource(26))
	alphabet := []string{"A", "B", "C"}
	sat := 0
	for trial := 0; trial < 300; trial++ {
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: 1 + rng.Intn(150), MaxChildren: 1 + rng.Intn(4), Alphabet: alphabet,
			MultiLabelProb: 0.1, UnlabeledProb: 0.1,
		})
		ix := NewTreeIndex(tr)
		q := randomForestQuery(rng, alphabet, 1+rng.Intn(6), rng.Intn(4))
		steps := forestSchedule(t, q)
		for _, pol := range []KernelPolicy{KernelNever, KernelAlways, KernelAuto} {
			SetKernelPolicy(pol)
			want, wantOK := NewScratch().FastACIx(ix, q)
			sc := NewScratch()
			ok := sc.SemijoinIx(ix, q, steps)
			if ok != wantOK {
				t.Fatalf("trial %d policy %d: SemijoinIx ok = %v, FastACIx %v\nquery %s\ntree %s",
					trial, pol, ok, wantOK, q, tr)
			}
			if !ok {
				continue
			}
			sat++
			for x, s := range want.Sets {
				if !slices.Equal(sc.DomainPre(cq.Var(x)), preWordsOf(tr, s)) {
					t.Fatalf("trial %d policy %d: SemijoinIx domain of %d is wrong\nquery %s\ntree %s",
						trial, pol, x, q, tr)
				}
			}
		}
	}
	if sat < 150 {
		t.Fatalf("only %d satisfiable runs: the trials barely exercise the passes", sat)
	}
}

// TestSemijoinIxDegenerate: an empty query is satisfied with no steps, and
// a label no node carries fails before any step runs.
func TestSemijoinIxDegenerate(t *testing.T) {
	tr := tree.MustParseTerm("A(B,C)")
	ix := NewTreeIndex(tr)
	if !NewScratch().SemijoinIx(ix, cq.New(), nil) {
		t.Fatal("empty query: ok = false")
	}
	q := cq.MustParse("Q() <- A(x), Child(x, y), D(y)")
	if NewScratch().SemijoinIx(ix, q, forestSchedule(t, q)) {
		t.Fatal("query over an absent label: ok = true")
	}
}
