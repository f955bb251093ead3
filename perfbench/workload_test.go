package main

import (
	"bytes"
	"testing"
	"time"
)

// version is a stand-in for the server's document versions, which setup
// assigns in PUT order.
func version(d int) uint64 { return uint64(d + 1) }

func encoded(t *testing.T, w workload, seed int64) *inputs {
	t.Helper()
	in := generate(w, seed)
	ex, err := expect(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := encodePages(in, ex, version); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSameSeedSameSequence(t *testing.T) {
	w := workloads["eval_cold"]
	a, b := encoded(t, w, 7), encoded(t, w, 7)
	if a.seqHash() != b.seqHash() {
		t.Fatalf("same seed, different sequence hashes %s and %s", a.seqHash(), b.seqHash())
	}
	for i, ri := range a.seq {
		if ri != b.seq[i] || !bytes.Equal(a.reqs[ri].body, b.reqs[b.seq[i]].body) {
			t.Fatalf("op %d differs between two generations from one seed", i)
		}
	}
}

func TestDifferentSeedDifferentSequence(t *testing.T) {
	for _, name := range workloadOrder {
		w := workloads[name]
		if generate(w, 7).seqHash() == generate(w, 8).seqHash() {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", name)
		}
	}
}

func TestRoundsCarryTheMix(t *testing.T) {
	for _, name := range workloadOrder {
		w := workloads[name]
		in := generate(w, 7)
		for start := 0; start+roundOps <= len(in.seq); start += roundOps {
			var n [numClasses]int
			for _, ri := range in.seq[start : start+roundOps] {
				n[in.reqs[ri].cls]++
			}
			for _, s := range w.mix {
				if n[s.cls] != s.weight {
					t.Fatalf("%s: round at %d has %d %s ops, want %d", name, start, n[s.cls], s.cls, s.weight)
				}
			}
		}
	}
}

// TestHotReadsCoverEveryKey checks eval_hot's grouped reads: each names
// readDocs documents, and over the request table every (query, document)
// pair is asked, so the warm-up fills the whole key working set.
func TestHotReadsCoverEveryKey(t *testing.T) {
	w := workloads["eval_hot"]
	in := generate(w, 7)
	keys := map[[2]int]bool{}
	queries := map[int]bool{}
	for _, r := range in.reqs {
		if len(r.docs) != w.readDocs {
			t.Fatalf("request names %d documents, want %d", len(r.docs), w.readDocs)
		}
		queries[r.query] = true
		for _, d := range r.docs {
			keys[[2]int{r.query, d}] = true
		}
	}
	if want := len(queries) * numDocs; len(keys) != want {
		t.Fatalf("requests cover %d (query, document) keys, want %d", len(keys), want)
	}
}

// TestExactCountsRepeat drives doc_churn, the stateful workload, twice
// from one seed; every exact count must come out the same.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the server twice")
	}
	t.Chdir(t.TempDir())
	w := workloads["doc_churn"]
	var prev *phase
	for i := 0; i < 2; i++ {
		in := generate(w, 7)
		ex, err := expect(in)
		if err != nil {
			t.Fatal(err)
		}
		dir, err := scratchDir("churn-")
		if err != nil {
			t.Fatal(err)
		}
		inst, _, err := setup(in, serverConfig(w, 10<<20, dir))
		if err != nil {
			t.Fatal(err)
		}
		ph, err := drive(inst, in, newChecker(in, ex), time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if ph.failed != 0 {
			t.Fatalf("run %d: %d failed ops", i, ph.failed)
		}
		if ph.exact.m["cqtrees_corpus_hydrations_total"] == 0 || ph.exactPuts == 0 {
			t.Fatalf("run %d: doc_churn did not hydrate or put: %v", i, ph.exact.m)
		}
		if prev != nil {
			for _, k := range exactFamilies {
				if ph.exact.m[k] != prev.exact.m[k] {
					t.Errorf("%s: %v then %v", k, prev.exact.m[k], ph.exact.m[k])
				}
			}
			if ph.exact.indexBuilds != prev.exact.indexBuilds || ph.exact.indexLoads != prev.exact.indexLoads ||
				ph.exactBytes != prev.exactBytes {
				t.Errorf("index builds %d/%d, loads %d/%d, response bytes %d/%d",
					prev.exact.indexBuilds, ph.exact.indexBuilds, prev.exact.indexLoads, ph.exact.indexLoads,
					prev.exactBytes, ph.exactBytes)
			}
		}
		prev = ph
	}
}
