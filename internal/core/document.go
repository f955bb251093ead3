package core

import (
	"repro/internal/consistency"
	"repro/internal/tree"
)

// Document is a tree paired with every tree-derived structure evaluation
// needs — the sibling and (preEnd, pre) orderings, the full-node-set
// words, and the per-label candidate bitsets — built exactly once and
// shared by all strategies. It is the data-side counterpart of a compiled
// query: where Prepare pays the query-only cost once, NewDocument pays the
// per-tree cost once, and any number of Prepared queries evaluate against
// the same *Document from any number of goroutines.
//
// A Document is immutable after construction and safe for concurrent use.
type Document struct {
	t  *tree.Tree
	ix *consistency.TreeIndex
}

// NewDocument indexes t for repeated evaluation. The tree must not be
// mutated afterwards (Tree is immutable by contract after construction).
func NewDocument(t *tree.Tree) *Document {
	if t == nil {
		panic("core: NewDocument of nil tree")
	}
	return &Document{t: t, ix: consistency.NewTreeIndex(t)}
}

// Tree returns the underlying tree.
func (d *Document) Tree() *tree.Tree { return d.t }

// Len returns the number of tree nodes.
func (d *Document) Len() int { return d.t.Len() }

// SizeBytes returns the approximate heap footprint of the document in
// bytes: the tree's backing arrays plus the tree index (orderings, rank
// tables, node-set words, and the label bitsets materialized so far).
// Corpus memory accounting and eviction use this figure; label bitsets
// are built lazily, so it converges once the query mix has been seen.
func (d *Document) SizeBytes() int64 { return d.t.SizeBytes() + d.ix.SizeBytes() }
