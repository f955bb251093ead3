package cqtrees

// BenchmarkPaginate: the cursor's resume (one reduction of the document,
// then O(depth + page)) versus the offset's O(skipped + page) scan,
// fetching the same page from the middle of a B-chain answer relation
// (~depth²/2 tuples). The scan leg's cost grows with the total answer
// count; the resume leg's does not — it re-descends directly to the
// recorded pin prefix — so page-k cost under cursors is independent of
// how deep into the result set k lies. The two legs are parity-checked
// before timing: both must return byte-identical pages, or the benchmark
// aborts.
//
//	…/scan    Paginate with WithOffset(total/2)
//	…/resume  Paginate with a cursor minted at total/2
//
// scripts/bench.sh pairs …/scan with …/resume into a speedup row;
// perfgate.sh enforces a floor on it in CI.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// chainDoc builds A over a B-chain of depth nodes — the cqload seed shape,
// giving depth·(depth−1)/2 answers for the chain query.
func chainDoc(depth int) *Document {
	var b strings.Builder
	b.Grow(depth*2 + 8)
	b.WriteString("A(")
	for i := 0; i < depth-1; i++ {
		b.WriteString("B(")
	}
	b.WriteString("B")
	b.WriteString(strings.Repeat(")", depth))
	return Index(MustParseTree(b.String()))
}

func BenchmarkPaginate(b *testing.B) {
	pq := MustCompile("Q(x, y) <- B(x), Child+(x, y), B(y)")
	const page = 100
	for _, depth := range []int{200, 800} {
		doc := chainDoc(depth)
		total := depth * (depth - 1) / 2
		mid := total / 2

		// Mint the resume cursor once, outside the timer, and check both
		// legs fetch the identical page before trusting the numbers.
		minted, err := pq.Paginate(doc, WithLimit(mid))
		if err != nil || minted.Next == "" {
			b.Fatalf("minting cursor at %d: next=%q err=%v", mid, minted.Next, err)
		}
		scanPage, err := pq.Paginate(doc, WithOffset(mid), WithLimit(page))
		if err != nil {
			b.Fatal(err)
		}
		resumePage, err := pq.Paginate(doc, WithCursor(minted.Next), WithLimit(page))
		if err != nil {
			b.Fatal(err)
		}
		if !reflect.DeepEqual(scanPage.Tuples, resumePage.Tuples) || len(scanPage.Tuples) != page {
			b.Fatalf("depth %d: scan/resume parity broken: %d vs %d tuples",
				depth, len(scanPage.Tuples), len(resumePage.Tuples))
		}

		b.Run(fmt.Sprintf("depth=%d/scan", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := pq.Paginate(doc, WithOffset(mid), WithLimit(page))
				if err != nil || len(p.Tuples) != page {
					b.Fatalf("scan: %d tuples, %v", len(p.Tuples), err)
				}
			}
		})
		b.Run(fmt.Sprintf("depth=%d/resume", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := pq.Paginate(doc, WithCursor(minted.Next), WithLimit(page))
				if err != nil || len(p.Tuples) != page {
					b.Fatalf("resume: %d tuples, %v", len(p.Tuples), err)
				}
			}
		})
	}
}
