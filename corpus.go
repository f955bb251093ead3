package cqtrees

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// Corpus is a concurrency-safe collection of named, immutable Documents
// plus batch evaluation across it — the fleet-level counterpart of the
// per-pair prepare/index/execute pipeline. A server holds one Corpus,
// indexes each distinct document once (Add/Swap), and fans prepared
// queries across all or a subset of the fleet with a bounded worker pool
// (Bool/Nodes/Tuples and their *Set variants).
//
// Ownership and concurrency contract:
//
//   - All Corpus methods are safe for concurrent use.
//   - Documents are immutable; Remove and eviction only drop the corpus's
//     reference, so an in-flight batch keeps evaluating its snapshot
//     safely even while the corpus mutates.
//   - Batch iterators are single-use and stream results in completion
//     order (submission order when the batch runs on one worker); break
//     out of the loop to cancel the remaining work — the pool always
//     joins before the iterator returns.
//
// Memory accounting is approximate (Document.SizeBytes, charged at
// insertion). With WithMaxBytes set, insertions that push the total over
// the budget evict least-recently-used documents — Get and batch
// snapshots count as uses — and report each eviction to the
// WithEvictionHook callback, outside the corpus lock. The insertion that
// triggered the pass is itself spared, so a single oversized document
// still serves.
type Corpus struct {
	c *corpus.Corpus
}

// ErrCorpusDuplicate is returned by Corpus.Add when the name is taken.
var ErrCorpusDuplicate = corpus.ErrExists

// ErrUnknownDocument is reported (wrapped, per affected result) by batch
// evaluation when WithDocs names a document the corpus does not hold.
var ErrUnknownDocument = fmt.Errorf("unknown document")

// ErrDocumentQuarantined is reported by GetErr and batch evaluation when
// a document's snapshot file failed format validation and was renamed to
// its quarantine name ("<file>.corrupt"): the document cannot be served
// until it is re-persisted (Swap + PersistDoc) or its file replaced.
var ErrDocumentQuarantined = corpus.ErrQuarantined

// ErrDocumentUnavailable is reported by GetErr and batch evaluation when
// a document's snapshot failed to load transiently (an I/O error): the
// corpus retries with exponential backoff and the document may become
// servable again without intervention.
var ErrDocumentUnavailable = corpus.ErrUnavailable

// CorpusOption configures NewCorpus.
type CorpusOption func(*corpusConfig)

type corpusConfig struct {
	maxBytes     int64
	onEvict      func(name string, doc *Document)
	onInvalidate func(name string)
	noFsync      bool
	retryBase    time.Duration
	retryMax     time.Duration
}

// WithMaxBytes sets the corpus's byte budget: insertions beyond it evict
// least-recently-used documents. n <= 0 (the default) disables eviction.
func WithMaxBytes(n int64) CorpusOption {
	return func(c *corpusConfig) { c.maxBytes = n }
}

// WithEvictionHook registers a callback invoked (outside the corpus lock)
// for every document that leaves the corpus with its contents in hand:
// budget eviction and explicit Remove. Swap replacements do not trigger
// it — the caller already receives the previous document from Swap.
func WithEvictionHook(fn func(name string, doc *Document)) CorpusOption {
	return func(c *corpusConfig) { c.onEvict = fn }
}

// WithInvalidationHook registers a callback invoked (outside the corpus
// lock) whenever cached results derived from the named document can no
// longer be trusted or retained: Swap replacement, Remove, budget
// eviction of a memory-only document, and quarantine of a bad snapshot.
// It is the corpus-side feed for result caches — on every departure or
// replacement the hook fires with the document's name, regardless of
// whether the document's bytes were still resident. Dehydration to a
// disk stub and hydration do NOT fire it: they change residency, not
// content, and the document keeps its version across them.
func WithInvalidationHook(fn func(name string)) CorpusOption {
	return func(c *corpusConfig) { c.onInvalidate = fn }
}

// WithNoFsync disables the fsync calls in the persist path. Snapshot
// writes stay atomic with respect to readers — the rename still lands
// last — but lose power-loss durability: a crash shortly after
// PersistDoc may leave the old file, no file, or (on adversarial
// filesystems) a torn temp file that the next LoadDir sweeps. For tests
// and re-runnable bulk imports; production keeps fsync on.
func WithNoFsync() CorpusOption {
	return func(c *corpusConfig) { c.noFsync = true }
}

// WithRetryPolicy configures the hydration retry backoff: after a
// transient snapshot-load failure the document is retried no sooner than
// base, doubling per consecutive failure up to max. Non-positive values
// keep the defaults (250ms base, 30s max).
func WithRetryPolicy(base, max time.Duration) CorpusOption {
	return func(c *corpusConfig) { c.retryBase, c.retryMax = base, max }
}

// NewCorpus returns an empty corpus.
func NewCorpus(opts ...CorpusOption) *Corpus {
	var cfg corpusConfig
	for _, o := range opts {
		o(&cfg)
	}
	c := corpus.New()
	// Document aliases core.Document, so the hook passes through as-is;
	// SetBudget treats maxBytes <= 0 as "no eviction".
	c.SetBudget(cfg.maxBytes, cfg.onEvict)
	if cfg.onInvalidate != nil {
		c.SetInvalidationHook(cfg.onInvalidate)
	}
	if cfg.noFsync {
		c.SetNoSync(true)
	}
	if cfg.retryBase > 0 || cfg.retryMax > 0 {
		c.SetRetryPolicy(cfg.retryBase, cfg.retryMax)
	}
	return &Corpus{c: c}
}

// Add inserts doc under name; it fails with ErrCorpusDuplicate if the
// name is taken (Swap replaces instead) and on the empty name.
func (c *Corpus) Add(name string, doc *Document) error { return c.c.Add(name, doc) }

// AddTree indexes t (see Index) and adds the resulting document under
// name, returning it.
func (c *Corpus) AddTree(name string, t *Tree) (*Document, error) {
	doc := Index(t)
	if err := c.c.Add(name, doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// Swap inserts doc under name, replacing and returning the previous
// document under that name (nil if the name was free).
func (c *Corpus) Swap(name string, doc *Document) (*Document, error) {
	return c.c.Swap(name, doc)
}

// Remove deletes the named document, returning it (nil if absent).
func (c *Corpus) Remove(name string) *Document { return c.c.Remove(name) }

// Get returns the named document, counting as a use for LRU eviction.
func (c *Corpus) Get(name string) (*Document, bool) { return c.c.Get(name) }

// GetErr is Get with the failure reason: nil error on success, an error
// wrapping ErrUnknownDocument for names the corpus does not hold, and an
// error wrapping ErrDocumentQuarantined or ErrDocumentUnavailable for
// dehydrated entries whose snapshot cannot be loaded. A failing entry
// fails fast from tracked state — the bad file is not re-read on every
// call.
func (c *Corpus) GetErr(name string) (*Document, error) {
	doc, err := c.c.GetErr(name)
	if errors.Is(err, corpus.ErrUnknown) {
		return nil, fmt.Errorf("corpus: %q: %w", name, ErrUnknownDocument)
	}
	return doc, err
}

// Peek returns the named document and its accounted size — the
// insertion-time charge budgeting uses, so summing it over Names agrees
// with Bytes — without counting as a use. It is for listings, dashboards,
// and other read paths that must not promote documents in the LRU
// eviction order; only Get and batch evaluation snapshots count as uses.
func (c *Corpus) Peek(name string) (*Document, int64, bool) {
	return c.c.Peek(name)
}

// CorpusStat describes one corpus entry without hydrating it: the tree
// size (known even while the document is dehydrated), the accounted
// resident bytes (0 for a dehydrated entry), residency itself, and the
// entry's content version (see Version).
type CorpusStat = corpus.Stat

// Stat returns the named entry's metadata without touching the LRU clock
// and without hydrating dehydrated entries — the listing path for
// servers fronting a snapshot directory (Peek reports a nil document for
// dehydrated entries).
func (c *Corpus) Stat(name string) (CorpusStat, bool) { return c.c.Stat(name) }

// PersistDir writes every document's snapshot into dir (created if
// needed) — one file per document, the name percent-escaped — and marks
// the entries as disk-backed: from then on, byte-budget pressure
// dehydrates them back to stubs (rehydrated transparently on next use)
// instead of dropping them from the corpus. Returns the number of
// documents persisted. Failures are joined; the rest still persist.
func (c *Corpus) PersistDir(dir string) (int, error) { return c.c.PersistDir(dir) }

// PersistDoc persists the single named document into dir; see PersistDir.
func (c *Corpus) PersistDoc(dir, name string) error { return c.c.PersistDoc(dir, name) }

// Unpersist deletes the named document's snapshot file from dir and
// detaches the entry from it: a resident document becomes memory-only, a
// dehydrated one is removed from the corpus entirely. Removal is
// idempotent — a missing file is not an error.
func (c *Corpus) Unpersist(dir, name string) error { return c.c.Unpersist(dir, name) }

// LoadDir registers every snapshot file in dir as a dehydrated entry:
// only each file's meta header is read up front, and each document
// hydrates — one file read plus zero-copy pointer fixups, no XML parse,
// no index build — on its first Get or batch use, under the byte budget.
// Names already in the corpus are skipped (memory wins over disk).
// Returns the number of entries registered; unreadable snapshot files
// are reported in the joined error while the rest still register.
func (c *Corpus) LoadDir(dir string) (int, error) { return c.c.LoadDir(dir) }

// CorpusLoadReport is the full accounting of a LoadDirReport pass:
// stubs registered, quarantined files skipped (or newly quarantined),
// and stale temp files swept.
type CorpusLoadReport = corpus.LoadReport

// LoadDirReport is LoadDir with the full accounting: besides registering
// stubs it reports how many quarantined ("*.corrupt") files were
// skipped — including files quarantined during this pass because their
// header failed validation — and how many stale ".tmp-*" orphans from a
// crashed atomic write were deleted.
func (c *Corpus) LoadDirReport(dir string) (CorpusLoadReport, error) {
	return c.c.LoadDirReport(dir)
}

// CorpusPersistence summarizes the persistence tier's health: current
// stub / failing / quarantined entry counts plus cumulative hydration
// error, quarantine, and persist error counters.
type CorpusPersistence = corpus.PersistenceStats

// Persistence reports the corpus's persistence health counters.
func (c *Corpus) Persistence() CorpusPersistence { return c.c.PersistenceStats() }

// Version returns the named entry's content version: a corpus-wide
// monotonic counter stamped when the entry's content was established
// (Add, Swap, re-Add after Remove, or stub registration by LoadDir).
// Versions strictly increase across content changes and are STABLE
// across dehydrate/hydrate cycles — residency changes do not create new
// content — so (query fingerprint, name, version) is a sound cache key:
// a result cached under a version can be served until that version
// disappears, and a post-swap lookup can never match a pre-swap entry.
// It does not touch the LRU clock.
func (c *Corpus) Version(name string) (uint64, bool) { return c.c.Version(name) }

// Page evaluates one page of pq's answers on the named document — see
// PreparedQuery.Paginate for the pagination contract — with the cursor
// automatically bound to the entry's content version: Page appends
// WithDocVersion(Version(name)) after the caller's options, so a cursor
// minted here is rejected with ErrCursorStale after the document is
// swapped or re-added, and stays valid across dehydrate/hydrate cycles
// (residency does not change content). Counts as a use for LRU eviction;
// unknown or unloadable documents fail like GetErr.
func (c *Corpus) Page(pq *PreparedQuery, name string, opts ...EvalOption) (Page, error) {
	doc, err := c.GetErr(name)
	if err != nil {
		return Page{}, err
	}
	ver, _ := c.Version(name)
	opts = append(append([]EvalOption{}, opts...), WithDocVersion(ver))
	return pq.Paginate(doc, opts...)
}

// Hydrations returns the cumulative count of stub hydrations — documents
// loaded back from their snapshot files on demand — since construction.
func (c *Corpus) Hydrations() int64 { return c.c.Hydrations() }

// Len returns the number of documents in the corpus.
func (c *Corpus) Len() int { return c.c.Len() }

// Bytes returns the total accounted memory footprint in bytes.
func (c *Corpus) Bytes() int64 { return c.c.Bytes() }

// Names returns the document names in sorted order.
func (c *Corpus) Names() []string { return c.c.Names() }

// ---- batch evaluation -----------------------------------------------------

// BatchOption tunes one batch evaluation call.
type BatchOption func(*batchConfig)

type batchConfig struct {
	ctx     context.Context
	workers int
	names   []string
	filter  func(string) bool
}

// WithBatchContext attaches a context to the batch: in-flight per-document
// evaluations observe cancellation at their next check (see WithContext)
// and report it in their result's Err; documents not yet dispatched when
// the context dies are skipped and the stream ends.
func WithBatchContext(ctx context.Context) BatchOption {
	return func(c *batchConfig) { c.ctx = ctx }
}

// WithBatchWorkers bounds the batch's worker pool. The default (and any
// n <= 0) is GOMAXPROCS; 1 evaluates documents sequentially on the
// consumer's goroutine. This is fan-out across documents; each
// document's evaluation is sequential.
func WithBatchWorkers(n int) BatchOption {
	return func(c *batchConfig) { c.workers = n }
}

// WithDocs restricts the batch to exactly the named documents, evaluated
// in the given order. Names the corpus does not hold yield one result per
// query with Err wrapping ErrUnknownDocument. Zero names select zero
// documents — a dynamically built empty selection evaluates nothing, it
// does not fall back to the whole fleet.
func WithDocs(names ...string) BatchOption {
	return func(c *batchConfig) {
		if names == nil {
			names = []string{}
		}
		c.names = names
	}
}

// WithDocFilter restricts the batch to documents whose name passes the
// filter (applied to all documents, or to the WithDocs selection).
func WithDocFilter(fn func(name string) bool) BatchOption {
	return func(c *batchConfig) { c.filter = fn }
}

// BoolResult is one document's outcome of a Boolean batch.
type BoolResult struct {
	// Doc is the document's corpus name.
	Doc string
	// Query indexes the query set of a *Set batch; 0 for single-query
	// batches.
	Query int
	// Sat reports Boolean satisfaction when Err is nil.
	Sat bool
	// Err is the per-document error: cancellation or ErrUnknownDocument.
	Err error
}

// NodesResult is one document's outcome of a monadic batch.
type NodesResult struct {
	Doc   string
	Query int
	// Nodes is the sorted answer node set when Err is nil.
	Nodes []NodeID
	// Err is the per-document error: cancellation, ErrUnknownDocument, or
	// ErrNotMonadic when the query's head is not unary.
	Err error
}

// TuplesResult is one document's outcome of a tuple-enumeration batch.
type TuplesResult struct {
	Doc   string
	Query int
	// Tuples is the sorted distinct answer relation when Err is nil (for
	// Boolean queries: one empty tuple if satisfiable).
	Tuples [][]NodeID
	Err    error
}

// newBatchConfig folds the options.
func newBatchConfig(opts []BatchOption) batchConfig {
	var cfg batchConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// snapshot resolves the batch's documents and expands the job list; the
// snapshot touches LRU clocks under the corpus lock exactly once.
func (c *Corpus) snapshot(cfg batchConfig, queries int) (jobs []corpus.Job, missing []corpus.Miss) {
	docs, missing := c.c.Snapshot(cfg.names, cfg.filter)
	return corpus.Jobs(docs, queries), missing
}

// missingErr is the per-result error for a WithDocs name the snapshot
// could not resolve: names the corpus does not hold wrap
// ErrUnknownDocument; stubs that failed to hydrate carry their typed
// hydration error (wrapping ErrDocumentQuarantined / ErrDocumentUnavailable).
func missingErr(m corpus.Miss) error {
	if errors.Is(m.Err, corpus.ErrUnknown) {
		return fmt.Errorf("corpus: %q: %w", m.Name, ErrUnknownDocument)
	}
	return m.Err
}

// batchSeq is the shared skeleton behind the *Set methods (methods
// cannot be generic, so each wraps this free function): snapshot the
// document set, report missing WithDocs names as one error row per
// query, fan eval across the jobs with the bounded pool, and wrap each
// raw result into the public row type.
func batchSeq[T, R any](c *Corpus, queries int, opts []BatchOption,
	missingRow func(miss corpus.Miss, query int) R,
	eval func(ctx context.Context, j corpus.Job) (T, error),
	wrap func(corpus.Result[corpus.Job, T]) R,
) iter.Seq[R] {
	cfg := newBatchConfig(opts)
	jobs, missing := c.snapshot(cfg, queries)
	return func(yield func(R) bool) {
		for _, m := range missing {
			for q := 0; q < queries; q++ {
				if !yield(missingRow(m, q)) {
					return
				}
			}
		}
		for r := range corpus.Run(cfg.ctx, cfg.workers, jobs, eval) {
			if !yield(wrap(r)) {
				return
			}
		}
	}
}

// Bool fans the prepared query across the corpus (all documents, or the
// WithDocs/WithDocFilter selection) with a bounded worker pool, streaming
// one BoolResult per document in completion order:
//
//	for r := range c.Bool(pq) {
//		if r.Err == nil && r.Sat { hits = append(hits, r.Doc) }
//	}
//
// Break out of the loop to cancel the remaining documents.
func (c *Corpus) Bool(pq *PreparedQuery, opts ...BatchOption) iter.Seq[BoolResult] {
	return c.BoolSet([]*PreparedQuery{pq}, opts...)
}

// BoolSet is Bool over a set of prepared queries: every (document, query)
// pair is evaluated, and each result's Query field indexes pqs.
func (c *Corpus) BoolSet(pqs []*PreparedQuery, opts ...BatchOption) iter.Seq[BoolResult] {
	return batchSeq(c, len(pqs), opts,
		func(m corpus.Miss, q int) BoolResult {
			return BoolResult{Doc: m.Name, Query: q, Err: missingErr(m)}
		},
		func(ctx context.Context, j corpus.Job) (bool, error) {
			return pqs[j.Query].p.BoolDoc(j.Doc.Doc, core.EnumOptions{Ctx: ctx})
		},
		func(r corpus.Result[corpus.Job, bool]) BoolResult {
			return BoolResult{Doc: r.Job.Doc.Name, Query: r.Job.Query, Sat: r.Value, Err: r.Err}
		})
}

// Nodes fans a monadic prepared query across the corpus, streaming one
// sorted answer node set per document; see Bool for the batch contract.
// Non-monadic queries report ErrNotMonadic in every result's Err.
func (c *Corpus) Nodes(pq *PreparedQuery, opts ...BatchOption) iter.Seq[NodesResult] {
	return c.NodesSet([]*PreparedQuery{pq}, opts...)
}

// NodesSet is Nodes over a set of prepared queries.
func (c *Corpus) NodesSet(pqs []*PreparedQuery, opts ...BatchOption) iter.Seq[NodesResult] {
	return batchSeq(c, len(pqs), opts,
		func(m corpus.Miss, q int) NodesResult {
			return NodesResult{Doc: m.Name, Query: q, Err: missingErr(m)}
		},
		func(ctx context.Context, j corpus.Job) ([]NodeID, error) {
			return pqs[j.Query].p.MonadicDoc(j.Doc.Doc, core.EnumOptions{Ctx: ctx})
		},
		func(r corpus.Result[corpus.Job, []NodeID]) NodesResult {
			return NodesResult{Doc: r.Job.Doc.Name, Query: r.Job.Query, Nodes: r.Value, Err: r.Err}
		})
}

// Tuples fans the prepared query across the corpus, streaming one sorted
// distinct answer relation per document; see Bool for the batch contract.
func (c *Corpus) Tuples(pq *PreparedQuery, opts ...BatchOption) iter.Seq[TuplesResult] {
	return c.TuplesSet([]*PreparedQuery{pq}, opts...)
}

// TuplesSet is Tuples over a set of prepared queries.
func (c *Corpus) TuplesSet(pqs []*PreparedQuery, opts ...BatchOption) iter.Seq[TuplesResult] {
	return batchSeq(c, len(pqs), opts,
		func(m corpus.Miss, q int) TuplesResult {
			return TuplesResult{Doc: m.Name, Query: q, Err: missingErr(m)}
		},
		func(ctx context.Context, j corpus.Job) ([][]NodeID, error) {
			return pqs[j.Query].p.AllDoc(j.Doc.Doc, core.EnumOptions{Ctx: ctx})
		},
		func(r corpus.Result[corpus.Job, [][]NodeID]) TuplesResult {
			return TuplesResult{Doc: r.Job.Doc.Name, Query: r.Job.Query, Tuples: r.Value, Err: r.Err}
		})
}
