package cqtrees

import (
	"repro/internal/core"
)

// Document is a tree paired with every tree-derived index evaluation
// needs, built exactly once by Index and shared by all evaluation
// strategies: the sibling and (preEnd, pre) orderings behind the FastAC
// support tests, the full-node-set words, and the per-label candidate
// bitsets. It is the data-side counterpart of a PreparedQuery — the
// paper's cost model splits query-only from per-tree work, and the API
// mirrors it symmetrically:
//
//	prepare the query:    pq := cqtrees.MustCompile("Q(y) <- A(x), Child+(x, y), B(y)")
//	prepare the document: doc := cqtrees.Index(t)
//	execute:              for v := range pq.NodeSeq(doc) { ... }
//
// A Document is immutable and safe for concurrent use: a server indexes
// each document once and evaluates any number of prepared queries against
// it from any number of goroutines. Every PreparedQuery method takes a
// *Document; the one-shot helpers (Evaluate, EvaluateAll, EvaluateNodes)
// take a *Tree and index it on every call, so callers that evaluate
// against the same tree more than once should hold a Document.
type Document = core.Document

// Index builds the Document for t: every tree-derived structure is
// computed once, up front. The tree must not be mutated afterwards
// (Tree is immutable by contract after construction).
func Index(t *Tree) *Document { return core.NewDocument(t) }

// ErrNotMonadic is reported when a monadic entry point is used on a query
// whose head is not unary: NodesErr returns it (wrapped — match with
// errors.Is), and NodeSeq panics with such a wrapped error.
var ErrNotMonadic = core.ErrNotMonadic
