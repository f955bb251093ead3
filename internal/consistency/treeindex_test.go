package consistency

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/tree"
)

// TestLabelWordsPreRank: a label's words hold exactly the pre ranks of
// the nodes carrying it, on trees whose NodeIDs are not in pre order
// (tree.Random, a breadth-first Builder) as well as on a parsed one; every
// unknown label resolves to the one shared empty slice; and after
// MaterializeLabels SizeBytes is its formula — nine int32 tables, the
// internal-node words, and per label its name, labelEntryBytes and its
// words, plus the empty words once — and stays put under unknown labels.
func TestLabelWordsPreRank(t *testing.T) {
	alphabet := []string{"A", "B", "C", "D"}
	random := tree.Random(rand.New(rand.NewSource(5)), tree.RandomConfig{
		Nodes: 300, MaxChildren: 5, Alphabet: alphabet, MultiLabelProb: 0.3, UnlabeledProb: 0.1,
	})
	trees := map[string]*tree.Tree{
		"random":        random,
		"breadth-first": breadthFirstTree(rand.New(rand.NewSource(6)), 250, alphabet),
		"parsed":        tree.MustParseTerm(random.String()),
	}
	for name, tr := range trees {
		t.Run(name, func(t *testing.T) {
			n := tr.Len()
			outOfOrder := false
			for v := 0; v < n; v++ {
				outOfOrder = outOfOrder || tr.Pre(tree.NodeID(v)) != int32(v)
			}
			if outOfOrder != (name != "parsed") {
				t.Fatalf("NodeIDs out of pre order = %v; the case does not test what it says", outOfOrder)
			}
			ix := NewTreeIndex(tr)
			for _, l := range tr.Alphabet() {
				want := make([]uint64, bitset.Words(n))
				for _, v := range tr.NodesWithLabel(l) {
					bitset.Set(want, tr.Pre(v))
				}
				if got := ix.labelWords(l); !slices.Equal(got, want) {
					t.Fatalf("label %s: words %x, want the pre ranks %x", l, got, want)
				}
			}
			e1, e2 := ix.labelWords("absent"), ix.labelWords("also-absent")
			if len(e1) != bitset.Words(n) || bitset.Count(e1) != 0 || &e1[0] != &e2[0] {
				t.Fatalf("unknown labels: %d words, %d bits, shared %v; want %d empty shared words",
					len(e1), bitset.Count(e1), &e1[0] == &e2[0], bitset.Words(n))
			}

			ix.MaterializeLabels()
			w := int64(bitset.Words(n))
			want := 9*4*int64(n) + 8*w + 8*w // tables, internal-node words, empty words
			for _, l := range tr.Alphabet() {
				want += int64(len(l)) + labelEntryBytes + 8*w
			}
			if got := ix.SizeBytes(); got != want {
				t.Fatalf("SizeBytes = %d, want %d", got, want)
			}
			ix.labelWords("absent-after-materialize")
			if got := ix.SizeBytes(); got != want {
				t.Fatalf("SizeBytes moved to %d on an unknown label, want %d", got, want)
			}
		})
	}
}

// breadthFirstTree builds an n-node tree level by level, so that each
// node's NodeID follows every NodeID of the level above it.
func breadthFirstTree(rng *rand.Rand, n int, alphabet []string) *tree.Tree {
	b := tree.NewBuilder(n)
	queue := []tree.NodeID{b.AddNode(tree.NilNode, alphabet[0])}
	for b.Len() < n {
		p := queue[0]
		queue = queue[1:]
		for k := 1 + rng.Intn(3); k > 0 && b.Len() < n; k-- {
			queue = append(queue, b.AddNode(p, alphabet[rng.Intn(len(alphabet))]))
		}
	}
	return b.Build()
}

// TestLoadLevelMatchesInitialPrevaluation: the domains a load builds from
// the label words — a copy for a variable's first label atom, an AND for
// each further one, a fill for an unlabelled variable — are the initial
// prevaluation NewPrevaluation builds from the tree's label index. An
// empty schedule leaves them unrevised in DomainPre. The trees carry
// multi-labels and the queries up to four label atoms on two variables,
// so variables with two or three labels and nonempty intersections occur.
func TestLoadLevelMatchesInitialPrevaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	alphabet := []string{"A", "B", "C"}
	multi := 0
	for trial := 0; trial < 300; trial++ {
		tr := tree.Random(rng, tree.RandomConfig{
			Nodes: 1 + rng.Intn(200), MaxChildren: 4, Alphabet: alphabet, MultiLabelProb: 0.6,
		})
		q := randomQuery(rng, testAxes, alphabet, 3, 0, 0)
		for i := rng.Intn(5); i > 0; i-- {
			q.AddLabel(alphabet[rng.Intn(len(alphabet))], cq.Var(rng.Intn(2)))
		}
		want := NewPrevaluation(tr, q)
		sc := NewScratch()
		ok := sc.SemijoinIx(NewTreeIndex(tr), q, nil)
		if empty := slices.ContainsFunc(want.Sets, (*NodeSet).Empty); ok == empty {
			t.Fatalf("trial %d: load ok = %v with an empty initial set = %v\nquery %s", trial, ok, empty, q)
		}
		if !ok {
			continue
		}
		for x, s := range want.Sets {
			if !slices.Equal(sc.DomainPre(cq.Var(x)), preWordsOf(tr, s)) {
				t.Fatalf("trial %d: loaded domain of %d differs from the initial set\nquery %s\ntree %s", trial, x, q, tr)
			}
		}
		if labelsOn(q, 0) > 1 && want.Sets[0].Len() > 0 {
			multi++
		}
	}
	if multi < 20 {
		t.Fatalf("only %d trials load a nonempty multi-label domain; the test checks too little", multi)
	}
}

func labelsOn(q *cq.Query, x cq.Var) int {
	c := 0
	for _, la := range q.Labels {
		if la.X == x {
			c++
		}
	}
	return c
}
