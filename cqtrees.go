// Package cqtrees is the public API of this reproduction of "Conjunctive
// Queries over Trees" (Gottlob, Koch, Schulz; PODS 2004 / JACM 53(2),
// 2006). It re-exports the substrate types and wires the paper's results
// into a small, documented surface:
//
//   - Trees: parse (term syntax or XML), build, or generate unranked
//     labeled trees (ParseTree, ParseXML, NewTreeBuilder, ...).
//   - Queries: parse datalog-style conjunctive queries over the axes
//     Child, Child+, Child*, NextSibling, NextSibling+, NextSibling*,
//     Following (ParseQuery).
//   - Evaluation: Evaluate/EvaluateAll dispatch per the paper's
//     dichotomy — Yannakakis for acyclic queries, the Theorem 3.5
//     X-property algorithm for tractable signatures, MAC backtracking
//     otherwise. Classify exposes the Theorem 1.1 / Table I dichotomy.
//     These one-shot helpers prepare the query and index the tree on
//     every call.
//   - Prepared queries: Prepare compiles a query once (classification,
//     acyclicity analysis, planning) into a concurrency-safe PreparedQuery
//     that evaluates repeatedly without re-planning or re-allocating
//     evaluation state — the paper's query-only cost, paid once.
//   - Documents: Index builds every tree-derived structure (orderings,
//     label bitsets, full-node-set words) once into an immutable,
//     concurrency-safe Document shared by all strategies — the per-tree
//     cost, paid once. Together Prepare and Index make the paper's cost
//     split fully symmetric: prepare the query, prepare the data, execute.
//   - Execution: every PreparedQuery method takes a *Document —
//     range-over-func iterators (Tuples, NodeSeq), error-returning
//     evaluation (BoolErr, AllErr, NodesErr — typed ErrNotMonadic instead
//     of panics, context cancellation via WithContext), and ordered,
//     cursor-resumable pages (Paginate).
//   - Corpora: NewCorpus manages a fleet of named Documents (add, remove,
//     swap, memory accounting with optional LRU eviction) and fans
//     prepared queries across all or a subset of them with a bounded
//     worker pool, streaming per-document results (Corpus.Bool/Nodes/
//     Tuples and the *Set variants). cmd/cqserve exposes the same engine
//     over HTTP.
//   - Expressiveness: ToAPQ translates any conjunctive query into an
//     equivalent acyclic positive query (Theorem 6.10); ToXPath renders
//     monadic APQs as Core-XPath expressions (Remark 6.1).
//
// Example (index once, query many):
//
//	doc := cqtrees.Index(cqtrees.MustParseTree("A(B,C(B))"))
//	pq := cqtrees.MustCompile("Q(y) <- A(x), Child+(x, y), B(y)")
//	for tuple := range pq.Tuples(doc) {
//		fmt.Println(tuple) // both B nodes
//	}
package cqtrees

import (
	"io"

	"repro/internal/axis"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/rewrite"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// Re-exported core types. Methods on these types are documented in the
// internal packages; the aliases keep one import path for users.
type (
	// Tree is an unranked labeled tree (§2).
	Tree = tree.Tree
	// NodeID identifies a tree node.
	NodeID = tree.NodeID
	// TreeBuilder constructs trees top-down.
	TreeBuilder = tree.Builder
	// Query is a conjunctive query over trees (§2).
	Query = cq.Query
	// Var is a query variable.
	Var = cq.Var
	// Axis is a binary structure relation (Child, Child+, ..., Following).
	Axis = axis.Axis
	// APQ is an acyclic positive query: a union of acyclic CQs (§6).
	APQ = rewrite.APQ
	// Classification is a Theorem 1.1 dichotomy verdict.
	Classification = core.Classification
	// Plan describes the evaluation strategy chosen for a query.
	Plan = core.Plan
	// XPathExpr is a positive Core-XPath expression (Remark 6.1).
	XPathExpr = xpath.Expr
)

// NilNode is the "no node" sentinel.
const NilNode = tree.NilNode

// Axes of the paper's set Ax.
const (
	Child           = axis.Child
	ChildPlus       = axis.ChildPlus // Descendant
	ChildStar       = axis.ChildStar // Descendant-or-self
	NextSibling     = axis.NextSibling
	NextSiblingPlus = axis.NextSiblingPlus // Following-sibling
	NextSiblingStar = axis.NextSiblingStar
	Following       = axis.Following
)

// ParseTree parses the term syntax for trees, e.g. "A(B,C(D|E))".
func ParseTree(src string) (*Tree, error) { return tree.ParseTerm(src) }

// MustParseTree panics on parse errors; for tests and examples.
func MustParseTree(src string) *Tree { return tree.MustParseTerm(src) }

// ParseXML reads an XML document as a tree (element names become labels).
func ParseXML(r io.Reader) (*Tree, error) { return tree.ParseXML(r) }

// NewTreeBuilder returns a builder with a size hint.
func NewTreeBuilder(hint int) *TreeBuilder { return tree.NewBuilder(hint) }

// ParseQuery parses the datalog-style rule notation, e.g.
//
//	Q(z) <- A(x), Child(x, y), B(y), Following(x, z), C(z).
func ParseQuery(src string) (*Query, error) { return cq.Parse(src) }

// MustParseQuery panics on parse errors.
func MustParseQuery(src string) *Query { return cq.MustParse(src) }

// Evaluate decides Boolean satisfaction of q on t using the best
// applicable algorithm (see PlanFor). Like every one-shot helper it
// prepares q and indexes t on each call; callers that reuse a query or a
// tree should hold a PreparedQuery (Prepare) and a Document (Index).
func Evaluate(t *Tree, q *Query) bool {
	sat, _ := MustPrepare(q).BoolErr(Index(t))
	return sat
}

// EvaluateAll enumerates the distinct answer tuples of q on t in
// lexicographic NodeID order.
func EvaluateAll(t *Tree, q *Query) [][]NodeID {
	out, _ := MustPrepare(q).AllErr(Index(t))
	return out
}

// EvaluateNodes answers a monadic (unary) query with its sorted answer
// node set; it panics with an error wrapping ErrNotMonadic if q is not
// monadic.
func EvaluateNodes(t *Tree, q *Query) []NodeID {
	out, err := MustPrepare(q).NodesErr(Index(t))
	if err != nil {
		panic(err)
	}
	return out
}

// PlanFor explains which algorithm Evaluate would use for q and why.
func PlanFor(q *Query) Plan { return MustPrepare(q).Plan() }

// Classify reports the complexity side of the signature per Theorem 1.1:
// polynomial time iff all axes share an X-property order, NP-complete
// otherwise, with the witnessing order or the relevant paper theorem.
func Classify(axes []Axis) Classification { return core.Classify(axes) }

// ClassifyQuery classifies the signature used by q.
func ClassifyQuery(q *Query) Classification { return core.ClassifyQuery(q) }

// TableI renders the paper's Table I (complexities of all one- and
// two-axis signatures) as text.
func TableI() string { return core.FormatTableI() }

// ToAPQ translates q into an equivalent acyclic positive query over the
// axes extended with Child+ and NextSibling+ (Theorem 6.10). The result
// can be exponentially larger (Theorem 7.1 shows this is unavoidable).
func ToAPQ(q *Query) (*APQ, error) {
	return rewrite.TranslateCQ(q, rewrite.Options{})
}

// ToXPath renders a monadic conjunctive query as a union of positive
// Core-XPath expressions via the APQ translation (Remark 6.1).
func ToXPath(q *Query) ([]XPathExpr, error) {
	apq, err := ToAPQ(q)
	if err != nil {
		return nil, err
	}
	return xpath.FromAPQ(apq)
}

// ParseXPath parses a Core-XPath expression, e.g.
// "//A[child::B]/following::C".
func ParseXPath(src string) (XPathExpr, error) { return xpath.Parse(src) }

// EvaluateXPath evaluates an XPath expression from the root.
func EvaluateXPath(t *Tree, e XPathExpr) []NodeID { return xpath.EvalFromRoot(t, e) }
