package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/backtrack_search.golden from the current search")

// btGoldenQueries are the backtracking-strategy queries of the repository
// benchmark (perfbench/workload.go), over 4000-node trees.
var btGoldenQueries = []struct{ name, src string }{
	{"bt_nodes", "Q(y) <- A(x), Child(x, y), B(y), NextSibling+(y, z), C(z), Child+(x, z)"},
	{"bt_bool", "Q() <- D(x), Child(x, y), E(y), Child+(x, z), A(z), Following(y, z)"},
	{"bt_bool2", "Q() <- A(x), Child(x, y), B(y), Child+(x, z), C(z), Following(y, z)"},
	{"bt_rare", "Q() <- A(x), Child(x, y), A(y), Child(y, z), A(z), Child(z, u), A(u), Child(u, v), A(v), Child+(x, w), B(w), Following(v, w)"},
}

// goldenSearchAxes is the signature of the generated cyclic queries: the
// paper's seven axes plus three inverses, NP-complete as a set.
var goldenSearchAxes = []axis.Axis{
	axis.Child, axis.ChildPlus, axis.ChildStar,
	axis.NextSibling, axis.NextSiblingPlus, axis.NextSiblingStar,
	axis.Following, axis.Parent, axis.AncestorPlus, axis.PrevSiblingPlus,
}

// searchTrace renders one MAC search: its step count and every tuple in
// discovery order.
func searchTrace(tr *tree.Tree, q *cq.Query) string {
	e := NewBacktrackEngine()
	var b strings.Builder
	e.forEachTuple(NewDocument(tr), q, nil, func(tuple []tree.NodeID) bool {
		fmt.Fprint(&b, " ", tuple)
		return true
	})
	return fmt.Sprintf("steps=%d tuples:%s", e.Steps(), b.String())
}

// goldenSearchCases lists every (name, tree, query) the golden file pins.
func goldenSearchCases() (names []string, trees []*tree.Tree, queries []*cq.Query) {
	for seed := int64(1); seed <= 12; seed++ {
		tr := tree.Random(rand.New(rand.NewSource(seed)), tree.DefaultRandomConfig(4000))
		for _, bq := range btGoldenQueries {
			names = append(names, fmt.Sprintf("%s/seed=%d", bq.name, seed))
			trees = append(trees, tr)
			queries = append(queries, cq.MustParse(bq.src))
		}
	}
	rng := rand.New(rand.NewSource(21))
	alphabet := []string{"A", "B", "C"}
	var small []*tree.Tree
	for i := 0; i < 6; i++ {
		small = append(small, tree.Random(rng, tree.RandomConfig{
			Nodes: 10 + rng.Intn(15), MaxChildren: 3, Alphabet: alphabet,
			MultiLabelProb: 0.1, UnlabeledProb: 0.1,
		}))
	}
	for qi := 0; len(names) < 48+60*len(small); qi++ {
		nv := 3 + rng.Intn(2)
		q := randomQuery(rng, goldenSearchAxes, alphabet, nv, nv+rng.Intn(3), rng.Intn(3))
		if cq.NewGraph(q).IsForest() || !consistentOnSome(small, q, 3) {
			continue // cyclic queries that reach the search
		}
		switch rng.Intn(3) {
		case 0:
			q.SetHead(cq.Var(0))
		case 1:
			q.SetHead(cq.Var(0), cq.Var(1))
		}
		for ti, tr := range small {
			names = append(names, fmt.Sprintf("cyclic/q=%d/tree=%d %s", qi, ti, q))
			trees = append(trees, tr)
			queries = append(queries, q)
		}
	}
	return names, trees, queries
}

// consistentOnSome reports whether q has a maximal arc-consistent
// prevaluation on at least k of the trees, so that its search gets past
// the initial propagation there.
func consistentOnSome(trees []*tree.Tree, q *cq.Query, k int) bool {
	for _, tr := range trees {
		if _, ok := consistency.FastAC(tr, q); ok {
			if k--; k == 0 {
				return true
			}
		}
	}
	return false
}

// TestBacktrackSearchGolden pins the MAC search itself, not just its
// answers: Steps() and the ForEachTuple discovery order of every case must
// match the recorded trace byte for byte. The search may get cheaper per
// step; it must not branch differently. Regenerate (only for an intended
// change of the search) with go test ./internal/core -run
// TestBacktrackSearchGolden -update.
func TestBacktrackSearchGolden(t *testing.T) {
	names, trees, queries := goldenSearchCases()
	var got strings.Builder
	for i := range names {
		fmt.Fprintf(&got, "%s: %s\n", names[i], searchTrace(trees[i], queries[i]))
	}
	path := filepath.Join("testdata", "backtrack_search.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d trace lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("search trace differs:\n got: %s\nwant: %s", gotLines[i], wantLines[i])
		}
	}
}
