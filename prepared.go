package cqtrees

import (
	"context"
	"fmt"
	"iter"

	"repro/internal/core"
)

// PreparedQuery is a conjunctive query compiled for repeated evaluation:
// parsing, acyclicity analysis, signature classification (Theorem 1.1) and
// strategy planning happen once, in Prepare; the resulting object
// evaluates against any number of documents paying only the per-call cost.
//
// This operationalizes the paper's cost split: classification and planning
// depend only on the query, evaluation is the per-tree hot path — and the
// per-tree indexing cost has its own once-only artifact, the Document (see
// Index). A server answering many requests should Prepare each distinct
// query once and Index each distinct document once; all methods are safe
// for concurrent use, and per-call scratch state (domain tables, semijoin
// buffers, valuation maps) is pooled internally rather than re-allocated.
//
// Every method evaluates against a shared *Document:
//
//   - Iterators: Tuples and NodeSeq return Go range-over-func iterators;
//     breaking out of the loop stops the underlying streaming engine
//     immediately.
//   - Error-returning: BoolErr, AllErr and NodesErr report ErrNotMonadic,
//     context cancellation and invalid order/cursor options as errors
//     instead of panicking.
//   - Pagination: Paginate returns one ordered page and a resume cursor.
type PreparedQuery struct {
	p *core.Prepared
}

// Prepare compiles q for repeated evaluation. The query is cloned
// internally, so the caller may keep mutating q afterwards without
// affecting the PreparedQuery.
func Prepare(q *Query) (*PreparedQuery, error) {
	p, err := core.Prepare(q)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{p: p}, nil
}

// MustPrepare is Prepare that panics on error; for tests and examples.
func MustPrepare(q *Query) *PreparedQuery {
	pq, err := Prepare(q)
	if err != nil {
		panic(err)
	}
	return pq
}

// Compile parses the rule notation and prepares the query in one step,
// in the spirit of regexp.Compile:
//
//	pq, err := cqtrees.Compile("Q(y) <- A(x), Child+(x, y), B(y)")
//	doc := cqtrees.Index(t)
//	for v := range pq.NodeSeq(doc) {
//		fmt.Println(v)
//	}
func Compile(src string) (*PreparedQuery, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return Prepare(q)
}

// MustCompile is Compile that panics on error.
func MustCompile(src string) *PreparedQuery {
	pq, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return pq
}

// EvalOption tunes one evaluation call of the Document-based tiers
// (Tuples, NodeSeq, BoolErr, AllErr, NodesErr, Paginate).
type EvalOption func(*evalConfig)

type evalConfig struct {
	ctx context.Context
	// order is the WithOrder spec: nil means no order requested; resolve
	// pads it to one direction per head position when ordering is active.
	order      []Dir
	limit      int
	offset     int
	cursorTok  string
	hasCursor  bool
	version    uint64
	hasVersion bool
}

// WithContext attaches a context to the evaluation. Cancellation is
// checked once per outer-candidate-loop iteration (and at every
// search-node expansion under the backtracking strategy), so evaluation
// stops within one outer iteration of the cancel. The error-returning
// methods then report ctx.Err() and discard the partial result; the
// iterator methods simply stop yielding.
func WithContext(ctx context.Context) EvalOption {
	return func(c *evalConfig) { c.ctx = ctx }
}

// WithOrder requests ordered enumeration: answer tuples stream in
// lexicographic document order over the head tuple, position i ascending
// or descending over pre-order ranks per dirs[i]. A spec shorter than the
// query's arity pads with Asc (so WithOrder() alone means "document
// order, all ascending"); a longer spec is an error wrapping
// ErrOrderArity. Ordered enumeration streams with no sort or buffering
// under the acyclic and X-property strategies — each pinned-descent level
// iterates its candidate bitset in the requested direction — and
// materializes + sorts under backtracking (order honored, document-order-
// optimal only).
//
// With an order in force, AllErr returns the requested order instead of
// lexicographic NodeID order, and Tuples/NodeSeq yield it directly.
func WithOrder(dirs ...Dir) EvalOption {
	if dirs == nil {
		dirs = []Dir{}
	}
	return func(c *evalConfig) { c.order = dirs }
}

// WithLimit stops enumeration after n answers have been delivered —
// inside the engine's descent, not by post-filtering — so a page costs
// only the answers on it. n <= 0 means unlimited. Paginate uses it as the
// page size (default DefaultPageSize).
func WithLimit(n int) EvalOption {
	return func(c *evalConfig) { c.limit = n }
}

// WithOffset skips the first n answers of the stream before any are
// delivered. The skipped answers are still enumerated (cost O(n)) —
// cursors are the O(depth) restart; use them for deep pagination.
func WithOffset(n int) EvalOption {
	return func(c *evalConfig) { c.offset = n }
}

// WithCursor resumes enumeration strictly after the answer a previous
// Paginate call recorded in its Page.Next token. The cursor carries its
// own order (an explicit WithOrder must agree or the call fails with
// ErrCursorMismatch), the query's fingerprint hash, and the document
// version it was minted against (checked against WithDocVersion when one
// is in force: ErrCursorStale on mismatch). Malformed tokens fail with
// ErrCursorMalformed. The error-returning tiers report these; the plain
// iterators (Tuples, NodeSeq) end the sequence immediately instead —
// they never panic on a hostile token.
func WithCursor(token string) EvalOption {
	return func(c *evalConfig) { c.cursorTok, c.hasCursor = token, true }
}

// WithDocVersion binds the evaluation to a document content version (see
// Corpus.Version): cursors minted by Paginate embed it, and an incoming
// WithCursor token whose version differs fails with ErrCursorStale.
// Corpus.Page injects the corpus version automatically; without one,
// version 0 is used and the staleness check is vacuous.
func WithDocVersion(v uint64) EvalOption {
	return func(c *evalConfig) { c.version, c.hasVersion = v, true }
}

// resolve folds the handle defaults and per-call options into the core
// enumeration options, validating order and cursor against the compiled
// query. The returned config carries the fully padded direction spec and
// document version for cursor minting.
func (pq *PreparedQuery) resolve(opts []EvalOption) (evalConfig, core.EnumOptions, error) {
	var c evalConfig
	for _, o := range opts {
		o(&c)
	}
	o := core.EnumOptions{Ctx: c.ctx, Limit: c.limit, Offset: c.offset}
	k := pq.arity()
	ordered := c.order != nil || c.hasCursor
	if !ordered {
		return c, o, nil
	}
	if len(c.order) > k {
		return c, o, fmt.Errorf("cqtrees: %d order directions for %d-ary query: %w", len(c.order), k, ErrOrderArity)
	}
	if k > cursorMaxArity {
		return c, o, fmt.Errorf("cqtrees: ordered enumeration supports arity <= %d: %w", cursorMaxArity, ErrOrderArity)
	}
	dirs := make([]Dir, k)
	copy(dirs, c.order)
	if c.hasCursor {
		cur, err := decodeCursor(c.cursorTok)
		if err != nil {
			return c, o, err
		}
		if cur.qhash != fingerprintHash(pq.p.Query().Fingerprint()) {
			return c, o, fmt.Errorf("cqtrees: cursor minted by a different query: %w", ErrCursorMismatch)
		}
		if len(cur.ranks) != k {
			return c, o, fmt.Errorf("cqtrees: cursor arity %d, query arity %d: %w", len(cur.ranks), k, ErrCursorMismatch)
		}
		if c.order != nil {
			for i := range dirs {
				if dirs[i] != cur.dirs[i] {
					return c, o, fmt.Errorf("cqtrees: cursor minted under a different order: %w", ErrCursorMismatch)
				}
			}
		}
		copy(dirs, cur.dirs)
		if c.hasVersion && cur.version != c.version {
			return c, o, fmt.Errorf("cqtrees: cursor version %d, document version %d: %w", cur.version, c.version, ErrCursorStale)
		}
		o.After = cur.ranks
	}
	c.order = dirs
	if k > 0 {
		o.Order = make([]core.OrderDir, k)
		for i, d := range dirs {
			o.Order[i] = core.OrderDir(d)
		}
	}
	return c, o, nil
}

// docOpts folds the handle defaults and per-call options into the core
// enumeration options, reporting invalid order/cursor combinations.
func (pq *PreparedQuery) docOpts(opts []EvalOption) (core.EnumOptions, error) {
	_, o, err := pq.resolve(opts)
	return o, err
}

// arity returns the number of head variables of the compiled query.
func (pq *PreparedQuery) arity() int { return len(pq.p.Query().Head) }

// ---- Document tier: iterators --------------------------------------------

// Tuples returns an iterator over the distinct answer tuples of the
// compiled query on doc, streamed from the underlying engines without
// materializing the answer relation:
//
//	for tuple := range pq.Tuples(doc) {
//		use(tuple)
//		if enough() {
//			break // stops the engine immediately
//		}
//	}
//
// Each yielded tuple is freshly allocated and owned by the consumer (safe
// for slices.Collect and for retaining without a copy). Tuples arrive in
// a strategy-dependent order: document order under the X-property
// strategy; under the acyclic one, all-ascending document order over the
// head tuple when the head variables are distinct and each one after the
// first shares an atom with an earlier one or is the first of its
// connected part of the query, walk order otherwise (AllErr sorts, this
// does not). For Boolean queries one empty tuple is yielded if the query is
// satisfiable. If a WithContext context is cancelled mid-iteration the
// sequence just stops — use AllErr to observe the cancellation error.
// Invalid order/cursor options likewise end the sequence before the first
// element (never a panic); use AllErr or Paginate to observe those errors.
func (pq *PreparedQuery) Tuples(doc *Document, opts ...EvalOption) iter.Seq[[]NodeID] {
	o, err := pq.docOpts(opts)
	return func(yield func([]NodeID) bool) {
		if err != nil {
			return
		}
		pq.p.ForEachTupleDoc(doc, o, func(tuple []NodeID) bool {
			cp := make([]NodeID, len(tuple))
			copy(cp, tuple)
			return yield(cp)
		})
	}
}

// NodeSeq returns an iterator over the answer nodes of a monadic compiled
// query on doc (in document order under the acyclic strategy — NodeID
// order on a parsed or hydrated document — in the X-order of the query's
// signature under the X-property strategy — document order for
// signatures within {Child+, Child*} — and discovery order under
// backtracking; NodesErr sorts); it panics with an error
// wrapping ErrNotMonadic if the query is not monadic — NodesErr is the
// non-panicking variant. Breaking out of the loop stops the engine
// immediately; a cancelled WithContext context stops the sequence
// silently, and so do invalid order/cursor options (observe those through
// NodesErr or Paginate — hostile cursor tokens never panic).
func (pq *PreparedQuery) NodeSeq(doc *Document, opts ...EvalOption) iter.Seq[NodeID] {
	if pq.arity() != 1 {
		panic(fmt.Errorf("cqtrees: NodeSeq on %d-ary query: %w", pq.arity(), ErrNotMonadic))
	}
	o, err := pq.docOpts(opts)
	return func(yield func(NodeID) bool) {
		if err != nil {
			return
		}
		pq.p.ForEachNodeDoc(doc, o, yield)
	}
}

// ---- Document tier: error-returning evaluation ---------------------------

// BoolErr decides Boolean satisfaction of the compiled query on doc. A
// non-nil error is the WithContext context's cancellation error or an
// invalid order/cursor option.
func (pq *PreparedQuery) BoolErr(doc *Document, opts ...EvalOption) (bool, error) {
	o, err := pq.docOpts(opts)
	if err != nil {
		return false, err
	}
	return pq.p.BoolDoc(doc, o)
}

// AllErr enumerates the distinct answer tuples of the compiled query on
// doc in lexicographic NodeID order (for Boolean queries: one empty tuple
// if satisfiable) — or, under WithOrder/WithCursor, in the requested
// document order. On cancellation the partial result is discarded and the
// context's error returned; invalid order/cursor options return their
// typed errors (ErrOrderArity, ErrCursorMalformed/Mismatch/Stale).
func (pq *PreparedQuery) AllErr(doc *Document, opts ...EvalOption) ([][]NodeID, error) {
	o, err := pq.docOpts(opts)
	if err != nil {
		return nil, err
	}
	return pq.p.AllDoc(doc, o)
}

// NodesErr answers a monadic (unary) compiled query on doc with the sorted
// answer node set (or the WithOrder order). It returns an error wrapping
// ErrNotMonadic if the query is not monadic, the context's error on
// cancellation, and the
// typed cursor/order errors for invalid options.
func (pq *PreparedQuery) NodesErr(doc *Document, opts ...EvalOption) ([]NodeID, error) {
	o, err := pq.docOpts(opts)
	if err != nil {
		return nil, err
	}
	return pq.p.MonadicDoc(doc, o)
}

// ---- pagination -----------------------------------------------------------

// DefaultPageSize is Paginate's page size when no WithLimit is given.
const DefaultPageSize = 100

// Page is one page of a paginated enumeration.
type Page struct {
	// Tuples holds up to the page size answer tuples, in the requested
	// order, owned by the caller.
	Tuples [][]NodeID
	// Next is the opaque resume cursor for the following page, or "" when
	// this page ends the result set. Pass it back via WithCursor.
	Next string
}

// Paginate evaluates one page of the compiled query's answers on doc, in
// document order (WithOrder; all-ascending when absent or when resuming —
// the cursor carries its order). The page size is WithLimit (default
// DefaultPageSize); when more answers remain past the page, Page.Next
// holds a cursor that resumes strictly after the page's last tuple in
// O(depth + page) — no re-enumeration of earlier pages. Bind the cursor
// to document content with WithDocVersion (Corpus.Page does this
// automatically); a later call with a cursor from another version fails
// with ErrCursorStale, from another query or order with ErrCursorMismatch,
// and hostile tokens with ErrCursorMalformed — never a panic.
//
// WithOffset composes (applied once, before the page); Boolean queries
// have nothing to order and return an error.
func (pq *PreparedQuery) Paginate(doc *Document, opts ...EvalOption) (Page, error) {
	if pq.arity() == 0 {
		return Page{}, fmt.Errorf("cqtrees: Paginate on 0-ary query %q: %w", pq.p.Query().String(), ErrOrderArity)
	}
	cfg, o, err := pq.resolve(opts)
	if err != nil {
		return Page{}, err
	}
	if cfg.order == nil {
		// No explicit order and no cursor: document order, all ascending.
		cfg, o, err = pq.resolve(append(append([]EvalOption{}, opts...), WithOrder()))
		if err != nil {
			return Page{}, err
		}
	}
	limit := o.Limit
	if limit <= 0 {
		limit = DefaultPageSize
	}
	// Probe one answer past the page: an exactly-full final page is
	// complete, not truncated, and mints no cursor.
	// The rows share one flat array; each is cut with its capacity capped,
	// so appending to a row cannot overwrite the next one.
	o.Limit = limit + 1
	k := pq.arity()
	flat := make([]NodeID, 0, min(limit+1, 1024)*k)
	if err := pq.p.ForEachTupleDoc(doc, o, func(tuple []NodeID) bool {
		flat = append(flat, tuple...)
		return true
	}); err != nil {
		return Page{}, err
	}
	rows := len(flat) / k
	page := Page{Tuples: make([][]NodeID, min(rows, limit))}
	for i := range page.Tuples {
		page.Tuples[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	if rows > limit {
		last := page.Tuples[limit-1]
		t := doc.Tree()
		c := cursor{
			qhash:   fingerprintHash(pq.p.Query().Fingerprint()),
			version: cfg.version,
			dirs:    cfg.order,
			ranks:   make([]int32, len(last)),
		}
		for i, v := range last {
			c.ranks[i] = t.Pre(v)
		}
		page.Next = encodeCursor(c)
	}
	return page, nil
}

// Plan reports the evaluation strategy and Theorem 1.1 classification
// compiled into the query.
func (pq *PreparedQuery) Plan() Plan { return pq.p.Plan() }

// Query returns the compiled query (a private clone; treat as read-only).
func (pq *PreparedQuery) Query() *Query { return pq.p.Query() }

// String renders the compiled query with its plan.
func (pq *PreparedQuery) String() string {
	return pq.p.Query().String() + " [" + pq.p.Plan().String() + "]"
}
