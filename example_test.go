package cqtrees_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	cqtrees "repro"
)

// The canonical server pattern: prepare each distinct query once, index
// each distinct document once, and execute through the range-over-func
// iterators. Both artifacts are immutable and safe to share across
// goroutines.
func Example_documents() {
	doc := cqtrees.Index(cqtrees.MustParseTree("A(B,C(B))"))
	pq := cqtrees.MustCompile("Q(y) <- A(x), Child+(x, y), B(y)")

	for tuple := range pq.Tuples(doc) {
		fmt.Println(tuple)
	}
	// Output:
	// [1]
	// [3]
}

// NodeSeq streams the answer nodes of a monadic query; breaking out of
// the loop stops the underlying engine immediately.
func ExamplePreparedQuery_NodeSeq() {
	doc := cqtrees.Index(cqtrees.MustParseTree("A(B,C(B),B)"))
	pq := cqtrees.MustCompile("Q(y) <- A(x), Child+(x, y), B(y)")

	for v := range pq.NodeSeq(doc) {
		fmt.Println("first answer:", v)
		break
	}
	// Output:
	// first answer: 1
}

// WithOrder streams answers in lexicographic document order over the
// head tuple — here the first position descending, the second ascending —
// with no sort and no buffering under the tractable strategies, and
// WithLimit stops the engine inside its descent after the page is full.
func ExamplePreparedQuery_order() {
	doc := cqtrees.Index(cqtrees.MustParseTree("A(B,A(B,B),B)"))
	pq := cqtrees.MustCompile("Q(x, y) <- A(x), Child+(x, y), B(y)")

	tuples, err := pq.AllErr(doc, cqtrees.WithOrder(cqtrees.Desc, cqtrees.Asc), cqtrees.WithLimit(3))
	fmt.Println(tuples, err)
	// Output:
	// [[2 3] [2 4] [0 1]] <nil>
}

// Corpus.Page fetches one page of a query's answers and a resumable
// cursor: an opaque token that a later call resumes from without
// re-enumerating earlier pages, bound to the document's content version —
// if the document is swapped, the stale cursor is rejected instead of
// silently returning answers from the wrong tree.
func ExampleCorpus_paginate() {
	c := cqtrees.NewCorpus()
	if err := c.Add("doc", cqtrees.Index(cqtrees.MustParseTree("A(B,A(B,B),B)"))); err != nil {
		panic(err)
	}
	pq := cqtrees.MustCompile("Q(x, y) <- A(x), Child+(x, y), B(y)")

	page, err := c.Page(pq, "doc", cqtrees.WithLimit(2))
	fmt.Println(page.Tuples, page.Next != "", err)

	rest, err := c.Page(pq, "doc", cqtrees.WithCursor(page.Next))
	fmt.Println(rest.Tuples, rest.Next != "", err)

	// Swapping the document invalidates outstanding cursors.
	if _, err := c.Swap("doc", cqtrees.Index(cqtrees.MustParseTree("A(B)"))); err != nil {
		panic(err)
	}
	_, err = c.Page(pq, "doc", cqtrees.WithCursor(page.Next))
	fmt.Println(errors.Is(err, cqtrees.ErrCursorStale))
	// Output:
	// [[0 1] [0 3]] true <nil>
	// [[0 4] [0 5] [2 3] [2 4]] false <nil>
	// true
}

// The error-returning tier reports a typed ErrNotMonadic instead of
// panicking, and accepts a context whose cancellation is checked during
// enumeration.
func ExamplePreparedQuery_NodesErr() {
	doc := cqtrees.Index(cqtrees.MustParseTree("A(B,C(B))"))
	binary := cqtrees.MustCompile("Q(x, y) <- A(x), Child+(x, y), B(y)")

	_, err := binary.NodesErr(doc)
	fmt.Println(errors.Is(err, cqtrees.ErrNotMonadic))

	monadic := cqtrees.MustCompile("Q(y) <- A(x), Child+(x, y), B(y)")
	nodes, err := monadic.NodesErr(doc, cqtrees.WithContext(context.Background()))
	fmt.Println(nodes, err)
	// Output:
	// true
	// [1 3] <nil>
}

// Snapshots round-trip a Document through disk without re-parsing or
// re-indexing: SaveDocumentFile writes the zero-copy format and
// LoadDocumentFile maps it straight back into an evaluable Document.
func ExampleLoadDocumentFile() {
	path := filepath.Join(os.TempDir(), "example-doc.cqsnap")
	defer os.Remove(path)

	doc := cqtrees.Index(cqtrees.MustParseTree("A(B,C(B))"))
	if err := cqtrees.SaveDocumentFile(path, doc); err != nil {
		panic(err)
	}
	loaded, err := cqtrees.LoadDocumentFile(path)
	if err != nil {
		panic(err)
	}

	pq := cqtrees.MustCompile("Q(y) <- A(x), Child+(x, y), B(y)")
	nodes, err := pq.NodesErr(loaded)
	fmt.Println(nodes, err)
	// Output:
	// [1 3] <nil>
}

// A Corpus is the serving-tier document registry: named, byte-budgeted,
// LRU-evicting, with batch evaluation across the fleet.
func ExampleNewCorpus() {
	c := cqtrees.NewCorpus(cqtrees.WithMaxBytes(64 << 20))
	for name, term := range map[string]string{"a": "A(B)", "b": "A(B,C(B))"} {
		if err := c.Add(name, cqtrees.Index(cqtrees.MustParseTree(term))); err != nil {
			panic(err)
		}
	}

	// Rows stream in completion order; sort them for a stable listing.
	pq := cqtrees.MustCompile("Q(y) <- A(x), Child+(x, y), B(y)")
	var rows []cqtrees.NodesResult
	for r := range c.Nodes(pq) {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Doc < rows[j].Doc })
	for _, r := range rows {
		fmt.Println(r.Doc, r.Nodes, r.Err)
	}
	// Output:
	// a [1] <nil>
	// b [1 3] <nil>
}
