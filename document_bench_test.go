package cqtrees

// BenchmarkDocumentReuse: the index-once/query-many contract. Each
// iteration plays a server handling one fresh document with N distinct
// prepared queries: it calls Index once and evaluates every query against
// the shared *Document. The benchmark asserts the exact index-build count
// via the consistency package's instrumentation counter (b.Fatalf on
// mismatch), so the CI smoke run also guards the reuse guarantee.
//
// The kernel rank tables (parent/first-child/sibling pre-rank arrays and
// the internal-node words behind the consistency image kernels) are part of
// the same TreeIndex construction, so these assertions also prove the
// bulk-revise kernels add zero extra index builds: the counts below are
// unchanged from before the tables existed.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/consistency"
	"repro/internal/tree"
)

var docReuseQueries = []string{
	"Q(y) <- A(x), Child+(x, y), B(y)",
	"Q(y) <- A(x), Child+(x, y), B(y), Child+(y, z), C(z), Child+(x, z)",
	"Q(y) <- B(y), Child(y, z), C(z)",
	"Q(y) <- C(y), Following(x, y), A(x)",
}

func BenchmarkDocumentReuse(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tr := tree.Random(rng, tree.RandomConfig{Nodes: 4000, MaxChildren: 3, Alphabet: []string{"A", "B", "C"}})
	// Expected answer counts, for self-checking the benchmark.
	want := make([]int, len(docReuseQueries))
	doc := Index(tr)
	for i, src := range docReuseQueries {
		want[i] = len(nodesOf(b, MustCompile(src), doc))
	}

	b.Run(fmt.Sprintf("document/queries=%d", len(docReuseQueries)), func(b *testing.B) {
		b.ReportAllocs()
		start := consistency.IndexBuildCount()
		for i := 0; i < b.N; i++ {
			doc := Index(tr)
			for j, src := range docReuseQueries {
				pq := MustCompile(src)
				nodes, err := pq.NodesErr(doc)
				if err != nil || len(nodes) != want[j] {
					b.Fatalf("query %d: %d nodes (err %v), want %d", j, len(nodes), err, want[j])
				}
			}
		}
		if builds := consistency.IndexBuildCount() - start; builds != int64(b.N) {
			b.Fatalf("document path built tree indexes %d times over %d iterations, want exactly %d (one per document)",
				builds, b.N, b.N)
		}
	})
}
