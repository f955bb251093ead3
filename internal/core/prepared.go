package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

// ErrNotMonadic is returned by the monadic entry points (MonadicDoc,
// ForEachNodeDoc) when the compiled query's head is not unary; match it
// with errors.Is.
var ErrNotMonadic = errors.New("query is not monadic")

// evalScratch bundles the per-call mutable state of one evaluation: the
// arc-consistency buffers (which also run the acyclic engine's semijoin
// schedule) and a private backtracking engine (which carries search
// counters). One evalScratch serves one evaluation at a time; concurrent
// calls each borrow their own from scratchPool.
type evalScratch struct {
	ac *consistency.Scratch
	bt *BacktrackEngine
	// The acyclic walk's per-step image iterators and assigned pre ranks.
	iters []consistency.ImageIter
	at    []int32
	// The X-property node stream's candidate order ranks.
	ranks []int32
}

func newEvalScratch() *evalScratch {
	return &evalScratch{ac: consistency.NewScratch()}
}

// scratchPool is shared by every Prepared. An evalScratch keeps no query
// state between evaluations — each run rebinds the AC buffers to its query
// and document, the walk restarts its iterators, the backtracker resets
// its step count — so a query compiled for a single request (an inline
// /eval source) borrows buffers that earlier queries already grew.
var scratchPool = sync.Pool{New: func() any { return newEvalScratch() }}

func getScratch() *evalScratch { return scratchPool.Get().(*evalScratch) }

// backtracker returns the scratch's private MAC engine, sharing the
// scratch's arc-consistency buffers.
func (s *evalScratch) backtracker() *BacktrackEngine {
	if s.bt == nil {
		s.bt = &BacktrackEngine{Propagate: true, sc: s.ac}
	}
	return s.bt
}

// Prepared is a compiled conjunctive query: parsed, classified per the
// Theorem 1.1 dichotomy, and planned exactly once. The expensive query-only
// work (acyclicity analysis, the shadow-forest decomposition, the common
// X-property order search) happens in Prepare; evaluating the Prepared
// against a Document only pays the per-call cost, reusing pooled scratch
// buffers so repeated evaluation stops re-allocating domain tables.
//
// Evaluation is Document-centric: every method takes a shared *Document
// (tree indexes built once, by NewDocument).
//
// A Prepared is immutable after Prepare and safe for concurrent use: each
// evaluation borrows a private scratch from a package-wide pool.
type Prepared struct {
	q        *cq.Query // private clone; never mutated
	plan     Plan
	planText string // plan.String(), rendered once

	forest *shadowForest // StrategyAcyclic
	order  axis.Order    // StrategyXProperty
}

// Prepare compiles q: it classifies the signature (Theorem 1.1), analyzes
// acyclicity, picks the evaluation strategy, and precomputes the
// strategy's query-only structures. The query is cloned, so later mutation
// of q does not affect the Prepared.
func Prepare(q *cq.Query) (*Prepared, error) {
	if q == nil {
		return nil, fmt.Errorf("core: Prepare of nil query")
	}
	c := q.Clone()
	return prepareAs(c, planFor(c))
}

// prepareAs builds the Prepared of compiled query c under plan pl: the
// plan's text and the chosen strategy's query-only structures.
func prepareAs(c *cq.Query, pl Plan) (*Prepared, error) {
	p := &Prepared{q: c, plan: pl, planText: pl.String()}
	switch p.plan.Strategy {
	case StrategyAcyclic:
		f, err := buildShadowForest(c)
		if err != nil {
			return nil, err
		}
		p.forest = f
	case StrategyXProperty:
		p.order = p.plan.Classification.Order
	}
	return p, nil
}

// MustPrepare is Prepare that panics on error (the only error source is a
// malformed query).
func MustPrepare(q *cq.Query) *Prepared {
	p, err := Prepare(q)
	if err != nil {
		panic(err)
	}
	return p
}

// Plan reports the compiled evaluation strategy and classification.
func (p *Prepared) Plan() Plan { return p.plan }

// PlanText returns Plan().String(), rendered once at Prepare: serving the
// plan with every response costs no formatting.
func (p *Prepared) PlanText() string { return p.planText }

// Query returns the compiled query (a private clone; treat as read-only).
func (p *Prepared) Query() *cq.Query { return p.q }

// OrderDir is one head position's enumeration direction over pre-order
// ranks (document order); see EnumOptions.Order.
type OrderDir int8

const (
	// OrderAsc enumerates the position in increasing document order.
	OrderAsc OrderDir = iota
	// OrderDesc enumerates the position in decreasing document order.
	OrderDesc
)

// EnumOptions tunes answer evaluation and enumeration.
type EnumOptions struct {
	// Ctx, when non-nil, cancels evaluation: cancellation is checked once
	// per outer-candidate-loop iteration and once per search-node
	// expansion under the backtracking strategy, so enumeration stops
	// within one outer iteration of the cancel. The error-returning entry
	// points report ctx.Err(); streaming entry points just stop.
	Ctx context.Context
	// Order, when non-nil, requests ordered enumeration: answer tuples
	// stream in lexicographic document order — head position i ascending
	// or descending over pre-order ranks per Order[i]. It must hold
	// exactly one direction per head variable (callers validate arity; a
	// mismatch panics). Ordered enumeration streams with no sort or
	// buffering under the acyclic and X-property strategies, and
	// materializes + sorts under backtracking.
	// AllDoc returns the requested order instead of lexicographic NodeID
	// order. Ignored for queries with an empty head.
	Order []OrderDir
	// Limit > 0 stops enumeration after that many answers have been
	// delivered to fn (after Offset skipping); the engine does no further
	// descent work past the limit.
	Limit int
	// Offset > 0 skips the first n answers of the stream before any are
	// delivered. The skipped answers are still enumerated (cost O(Offset));
	// cursor resume (After) is the O(depth) restart.
	Offset int
	// After, when non-nil, resumes ordered enumeration strictly after the
	// answer whose head nodes have these pre-order ranks (one per head
	// position, under the same Order). The engine seeks each position
	// directly to its recorded rank — an O(depth) restart, no
	// re-enumeration of skipped answers. Ranks outside the tree are
	// allowed. Requires Order to be set; under the backtracking strategy
	// the restart is by replay (O(answers)).
	After []int32
}

// ordered reports whether the options request the ordered enumeration
// path for a query with the given head arity.
func (o EnumOptions) ordered(arity int) bool {
	return o.Order != nil && arity > 0
}

// validateOrdered panics on internal misuse: the public tiers validate
// order/cursor shapes and return typed errors before reaching core.
func (o EnumOptions) validateOrdered(arity int) {
	if len(o.Order) != arity {
		panic(fmt.Sprintf("core: %d order directions for %d-ary query", len(o.Order), arity))
	}
	if o.After != nil && len(o.After) != arity {
		panic(fmt.Sprintf("core: %d resume ranks for %d-ary query", len(o.After), arity))
	}
}

// limitWrap applies o's Offset/Limit to a stream of answers (tuples or
// nodes) by wrapping its sink: the first Offset answers are dropped,
// delivery stops the moment the Limit-th answer has been passed to fn.
func limitWrap[T any](o EnumOptions, fn func(T) bool) func(T) bool {
	if o.Limit <= 0 && o.Offset <= 0 {
		return fn
	}
	skip, taken := o.Offset, 0
	return func(answer T) bool {
		if skip > 0 {
			skip--
			return true
		}
		taken++
		if !fn(answer) {
			return false
		}
		return o.Limit <= 0 || taken < o.Limit
	}
}

// stop returns the cancellation probe for the options: nil when no
// context is set (so hot loops pay a single nil check), otherwise a
// closure over Ctx.Err.
func (o EnumOptions) stop() func() bool {
	if o.Ctx == nil {
		return nil
	}
	ctx := o.Ctx
	return func() bool { return ctx.Err() != nil }
}

// err returns the options' cancellation error, if any.
func (o EnumOptions) err() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// BoolDoc decides Boolean satisfaction of the compiled query on d. A
// non-nil error is only ever the context's cancellation error.
func (p *Prepared) BoolDoc(d *Document, o EnumOptions) (bool, error) {
	if err := o.err(); err != nil {
		return false, err
	}
	s := getScratch()
	defer scratchPool.Put(s)
	var sat bool
	switch p.plan.Strategy {
	case StrategyAcyclic:
		sat = acyclicBool(d, p.q, p.forest, s)
	case StrategyXProperty:
		sat = s.ac.FastACPreIx(d.ix, p.q) // Theorem 3.5
	case StrategyBacktrack:
		sat = s.backtracker().evalBoolean(d, p.q, o.stop())
	default:
		panic("core: invalid strategy")
	}
	if err := o.err(); err != nil {
		return false, err
	}
	return sat, nil
}

// SatisfactionDoc returns a full consistent valuation on d, or nil if none
// exists (or evaluation was cancelled).
func (p *Prepared) SatisfactionDoc(d *Document, o EnumOptions) consistency.Valuation {
	if o.err() != nil {
		return nil
	}
	s := getScratch()
	defer scratchPool.Put(s)
	switch p.plan.Strategy {
	case StrategyAcyclic:
		return acyclicSatisfaction(d, p.q, p.forest, s)
	case StrategyXProperty:
		return polySatisfaction(d, p.q, p.order, s.ac)
	case StrategyBacktrack:
		return s.backtracker().satisfaction(d, p.q, o.stop())
	default:
		panic("core: invalid strategy")
	}
}

// ForEachTupleDoc streams the distinct answer tuples of the compiled query
// on d: fn is called once per tuple and enumeration stops as soon as fn
// returns false, so prefix-limited and existence queries cost only the
// answers actually consumed. Nothing is materialized; the tuple slice is
// reused between calls — copy it to retain. Tuples arrive in a
// strategy-dependent order (not necessarily lexicographic NodeID order):
// document order under the X-property strategy; under the acyclic one,
// all-ascending head-lexicographic document order when the head is
// walkable in head order (distinct variables, each adjacent in the query
// forest to an earlier one or the first of its component), walk order
// otherwise (the first walked variable in document order, then each
// variable's values for its parent's value in document order); discovery
// order under backtracking. AllDoc sorts.
// For Boolean queries fn is called once with an empty tuple if the query
// is satisfiable. The returned error is the context's cancellation error,
// if any (the stream just stops at the cancel point).
func (p *Prepared) ForEachTupleDoc(d *Document, o EnumOptions, fn func(tuple []tree.NodeID) bool) error {
	if err := o.err(); err != nil {
		return err
	}
	s := getScratch()
	defer scratchPool.Put(s)
	stop := o.stop()
	fn = limitWrap(o, fn)
	arity := len(p.q.Head)
	if o.ordered(arity) {
		o.validateOrdered(arity)
		p.orderedForEachTuple(d, s, o, stop, fn)
		return o.err()
	}
	switch p.plan.Strategy {
	case StrategyAcyclic:
		acyclicForEachTuple(d, p.q, p.forest, s, nil, nil, stop, fn)
	case StrategyXProperty:
		if arity > 0 {
			// Unordered streams run the ordered descent in document order.
			p.orderedForEachTuple(d, s, EnumOptions{Order: make([]OrderDir, arity)}, stop, fn)
		} else if s.ac.FastACPreIx(d.ix, p.q) {
			fn(nil)
		}
	case StrategyBacktrack:
		s.backtracker().forEachTuple(d, p.q, stop, fn)
	default:
		panic("core: invalid strategy")
	}
	return o.err()
}

// ForEachNodeDoc streams the answer nodes of a monadic compiled query
// without building per-node tuple wrappers; it returns ErrNotMonadic if
// the query is not monadic. Under the acyclic strategy nodes arrive in
// document order (NodeID order on a parsed or hydrated document, whose
// NodeIDs are pre ranks); under the X-property strategy in the X-order
// of the query's signature (document order for signatures within
// {Child+, Child*}; see polyForEachNode); under backtracking in discovery
// order. fn returns false to stop early. A non-nil error is ErrNotMonadic
// or the context's cancellation error.
func (p *Prepared) ForEachNodeDoc(d *Document, o EnumOptions, fn func(v tree.NodeID) bool) error {
	if len(p.q.Head) != 1 {
		return fmt.Errorf("core: ForEachNode on %d-ary query: %w", len(p.q.Head), ErrNotMonadic)
	}
	if err := o.err(); err != nil {
		return err
	}
	s := getScratch()
	defer scratchPool.Put(s)
	stop := o.stop()
	fn = limitWrap(o, fn)
	if o.ordered(1) {
		o.validateOrdered(1)
		p.orderedForEachTuple(d, s, o, stop, func(tuple []tree.NodeID) bool { return fn(tuple[0]) })
		return o.err()
	}
	switch p.plan.Strategy {
	case StrategyAcyclic:
		acyclicForEachNode(d, p.q, p.forest, s, stop, fn)
	case StrategyXProperty:
		polyForEachNode(d, p.q, p.order, s, stop, fn)
	case StrategyBacktrack:
		tuple1 := func(tuple []tree.NodeID) bool { return fn(tuple[0]) }
		s.backtracker().forEachTuple(d, p.q, stop, tuple1)
	default:
		panic("core: invalid strategy")
	}
	return o.err()
}

// AllDoc enumerates the distinct answer tuples of the compiled query on d
// in lexicographic NodeID order (for Boolean queries: one empty tuple if
// satisfiable). Ordered enumeration keeps the requested order instead; a
// Limit/Offset prefix of an unordered stream is sorted among itself. On
// cancellation the partial result is discarded and the context's error
// returned.
func (p *Prepared) AllDoc(d *Document, o EnumOptions) ([][]tree.NodeID, error) {
	if err := o.err(); err != nil {
		return nil, err
	}
	var out [][]tree.NodeID
	p.ForEachTupleDoc(d, o, func(tuple []tree.NodeID) bool {
		out = append(out, copyTuple(tuple))
		return true
	})
	if !o.ordered(len(p.q.Head)) {
		slices.SortFunc(out, slices.Compare[[]tree.NodeID])
	}
	if err := o.err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MonadicDoc returns the sorted node set answering a unary compiled query
// on d; it returns ErrNotMonadic if the query is not monadic, and the
// context's error on cancellation (discarding the partial result).
func (p *Prepared) MonadicDoc(d *Document, o EnumOptions) ([]tree.NodeID, error) {
	if len(p.q.Head) != 1 {
		return nil, fmt.Errorf("core: Monadic on %d-ary query: %w", len(p.q.Head), ErrNotMonadic)
	}
	if err := o.err(); err != nil {
		return nil, err
	}
	out := []tree.NodeID{}
	p.ForEachNodeDoc(d, o, func(v tree.NodeID) bool {
		out = append(out, v)
		return true
	})
	if !o.ordered(1) {
		// Acyclic emission is already sorted; X-property emission follows
		// the signature's X-order and backtracking is discovery-ordered.
		// Sorting unconditionally keeps the contract simple and costs
		// O(answer log answer). Ordered enumeration keeps the requested
		// document order instead.
		slices.Sort(out)
	}
	if err := o.err(); err != nil {
		return nil, err
	}
	return out, nil
}
