package core

import (
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/tree"
)

// TestWarmEvalAllocs pins the allocations of a warm evaluation on a
// 4000-node parsed document, for the benchmark corpus's Boolean queries of
// each strategy and its monadic acyclic query: after one warm call the
// pooled scratch holds every buffer, so the acyclic and X-property plans
// allocate nothing, and the backtracker only its search frames. The race
// detector makes sync.Pool drop items at random, so the exact bounds hold
// only in a non-race build.
func TestWarmEvalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	src := tree.Random(rand.New(rand.NewSource(1)), tree.DefaultRandomConfig(4000)).String()
	d := NewDocument(tree.MustParseTerm(src))
	cases := []struct {
		name, src string
		max       float64
	}{
		{"ac_bool", "Q() <- A(x), Child(x, y), B(y), NextSibling+(y, z), C(z)", 0},
		{"ac_nodes", "Q(y) <- A(x), Child+(x, y), B(y)", 0},
		{"xp_bool", "Q() <- A(x), Child+(x, y), B(y), Child*(y, z), C(z), Child+(x, z)", 0},
		{"bt_bool", "Q() <- D(x), Child(x, y), E(y), Child+(x, z), A(z), Following(y, z)", 20},
	}
	for _, c := range cases {
		p := MustPrepare(cq.MustParse(c.src))
		warmAnswers = 0
		// countWarmAnswer captures nothing, so the callback itself
		// allocates nothing and the count is the engine's alone.
		eval := func() {
			if len(p.Query().Head) == 0 {
				if sat, _ := p.BoolDoc(d, EnumOptions{}); sat {
					warmAnswers++
				}
				return
			}
			p.ForEachNodeDoc(d, EnumOptions{}, countWarmAnswer)
		}
		eval()
		if warmAnswers == 0 {
			t.Fatalf("%s: no answer on the test document; the case exercises no enumeration", c.name)
		}
		got := testing.AllocsPerRun(50, eval)
		t.Logf("%s: %v allocations per warm evaluation", c.name, got)
		if got > c.max {
			t.Errorf("%s: %v allocations per warm evaluation, want at most %v", c.name, got, c.max)
		}
	}
}

var warmAnswers int

func countWarmAnswer(tree.NodeID) bool {
	warmAnswers++
	return true
}
