// Package corpus manages a fleet of indexed documents and fans prepared
// queries across it.
//
// The paper's cost split (query-only vs per-tree work) gives one (query,
// tree) pair its shape: Prepare once, Index once, execute many times. A
// production engine serves the next level up — many prepared queries
// against many indexed documents — and that is what this package adds:
//
//   - Corpus: a concurrency-safe collection of named, immutable
//     *core.Documents with add/remove/swap, approximate per-document
//     memory accounting (Document.SizeBytes) and an optional LRU-style
//     byte budget with an eviction hook.
//   - Run: a bounded worker pool fanning an evaluation function across a
//     snapshot of (document, query) jobs, streaming per-document results
//     as they complete, with context cancellation and early-exit support.
//
// The public surface lives in the root package (cqtrees.Corpus); this
// package holds the mechanics so internal tooling (cmd/cqserve) and the
// public API share one implementation.
package corpus

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/snapshot"
)

// ErrExists is returned by Add when the name is already taken (use Swap
// to replace a document under a live name).
var ErrExists = errors.New("document name already in corpus")

// ErrEmptyName is returned by Add and Swap for the empty document name.
var ErrEmptyName = errors.New("empty document name")

// ErrUnknown is returned by GetErr for names not in the corpus.
var ErrUnknown = errors.New("corpus: unknown document")

// ErrQuarantined marks hydration failures whose snapshot file failed
// format validation (bad magic, checksum, corrupt sections): the file
// has been renamed aside (see QuarantineExt) and the document will not
// be retried. Match with errors.Is; the concrete error is a
// *HydrationError.
var ErrQuarantined = errors.New("corpus: document quarantined")

// ErrUnavailable marks transient hydration failures (I/O errors): the
// stub stays registered and will be retried after a backoff. Match with
// errors.Is; the concrete error is a *HydrationError carrying the
// suggested RetryAfter.
var ErrUnavailable = errors.New("corpus: document unavailable")

// HydrationError is the structured failure GetErr returns when a stub's
// snapshot cannot be loaded. It wraps ErrQuarantined or ErrUnavailable
// (and the underlying cause), so callers can branch with errors.Is and
// still read the details.
type HydrationError struct {
	// Name is the document name.
	Name string
	// Err is the underlying read/decode failure.
	Err error
	// Quarantined reports a permanent failure: the file was renamed to
	// its quarantine name and the stub will not be retried.
	Quarantined bool
	// RetryAfter is the backoff remaining until the next hydration
	// attempt (transient failures only).
	RetryAfter time.Duration
}

func (e *HydrationError) Error() string {
	if e.Quarantined {
		return fmt.Sprintf("corpus: document %q quarantined: %v", e.Name, e.Err)
	}
	return fmt.Sprintf("corpus: document %q unavailable (retry in %v): %v", e.Name, e.RetryAfter.Round(time.Millisecond), e.Err)
}

func (e *HydrationError) Unwrap() []error {
	if e.Quarantined {
		return []error{ErrQuarantined, e.Err}
	}
	return []error{ErrUnavailable, e.Err}
}

// Default hydration retry policy; see SetRetryPolicy.
const (
	defaultRetryBase = 250 * time.Millisecond
	defaultRetryMax  = 30 * time.Second
)

// entry is one named document plus its accounting state. An entry whose
// doc is nil is a stub: the document lives in a snapshot file at path and
// hydrates on first use (Get or a batch snapshot). Stubs charge zero
// bytes — only resident documents count against the budget — and
// eviction turns a path-backed resident entry back into a stub rather
// than forgetting the name.
type entry struct {
	doc   *core.Document
	bytes int64
	used  int64  // logical LRU clock value of the last touch
	path  string // backing snapshot file; "" = memory-only
	nodes int    // tree size, known even while dehydrated
	ver   uint64 // content version; see Version

	// Hydration fault state. A stub whose load failed is tracked here so
	// the bad file is not re-read on every request: transient failures
	// back off exponentially (fails, nextTry), permanent ones set
	// quarantined and stop retrying for good. All reset on Swap (a fresh
	// entry) and on a later successful hydration.
	fails       int       // consecutive hydration failures
	nextTry     time.Time // no hydration attempt before this instant
	lastErr     error     // most recent hydration failure
	quarantined bool      // snapshot file renamed aside; never retried
}

// Corpus is a concurrency-safe collection of named, immutable documents.
// All methods are safe for concurrent use; documents themselves are
// immutable, so a snapshot taken for batch evaluation stays valid even if
// the corpus mutates (or evicts) concurrently — removal only drops the
// corpus's reference.
//
// Each document is charged its Document.SizeBytes figure at insertion
// (or hydration), after Materialize has built every lazy structure — so
// the charge is exact and stable for the document's whole residency.
// When a byte budget is set, insertions and hydrations that push the
// total over the budget evict least-recently-used documents — Get and
// batch snapshots count as uses — until the total fits again; the most
// recent insertion itself is never evicted by its own insertion (a
// corpus serving zero documents serves nobody). Snapshot-backed victims
// are dehydrated back to stubs instead of removed. The eviction hook, if
// any, runs outside the corpus lock.
type Corpus struct {
	mu      sync.Mutex
	entries map[string]*entry
	total   int64
	clock   int64

	// verClock is the monotonic source of document versions: every
	// content-changing event (Add, Swap, Remove, stub registration)
	// advances it, so versions are strictly increasing across a name's
	// whole lifecycle — including Remove followed by re-Add. Hydration
	// and dehydration do NOT advance it: they change residency, not
	// content, so results computed against the version stay valid.
	verClock uint64

	// hydrations counts stub hydrations (lazy snapshot loads) for
	// observability; read via Hydrations without the lock.
	hydrations atomic.Int64

	// Persistence fault counters; read via PersistenceStats.
	hydrationErrs atomic.Int64 // failed hydration attempts
	quarantines   atomic.Int64 // files renamed to quarantine names
	persistErrs   atomic.Int64 // failed snapshot writes

	// fs is the filesystem seam for all persistence I/O (nil = real
	// filesystem); see SetFS. noSync skips the crash-durability fsyncs;
	// see SetNoSync.
	fs     fault.FS
	noSync bool

	// Hydration retry policy; see SetRetryPolicy. Zero values mean the
	// defaults.
	retryBase time.Duration
	retryMax  time.Duration

	maxBytes     int64
	onEvict      func(name string, doc *core.Document)
	onInvalidate func(name string)
}

// New returns an empty corpus with no byte budget.
func New() *Corpus {
	return &Corpus{entries: make(map[string]*entry)}
}

// SetBudget installs a byte budget and an optional eviction hook. A
// budget <= 0 disables eviction. The budget is enforced on subsequent
// insertions (and immediately, against the current contents).
func (c *Corpus) SetBudget(maxBytes int64, onEvict func(name string, doc *core.Document)) {
	c.mu.Lock()
	c.maxBytes = maxBytes
	c.onEvict = onEvict
	victims := c.evictLocked("")
	evictHook, invHook := c.onEvict, c.onInvalidate
	c.mu.Unlock()
	notify(evictHook, invHook, victims, nil)
}

// SetInvalidationHook installs the invalidation hook: it fires — outside
// the corpus lock — with the document's name for every event after which
// externally cached state about that name should be dropped: Swap
// replacement, Remove, budget eviction of a memory-only document, and
// quarantine. Dehydration does not fire it: a snapshot-backed budget
// victim keeps its name and version and hydrates back to the same
// content, so results cached against that version stay valid (the
// eviction hook still sees the dehydration). It fires at most once per
// event per name and carries no document (the subscriber keys on the
// name). The result cache subscribes here.
func (c *Corpus) SetInvalidationHook(fn func(name string)) {
	c.mu.Lock()
	c.onInvalidate = fn
	c.mu.Unlock()
}

// victim is an evicted (name, document) pair, reported to the hooks.
// A dehydrated victim keeps its content (the name, the version and the
// snapshot file stay), so it goes to the eviction hook only; every other
// victim left the corpus and is invalidated as well.
type victim struct {
	name       string
	doc        *core.Document
	dehydrated bool
}

// evictLocked drops least-recently-used resident entries until the total
// fits the budget, sparing the named entry (the one whose insertion or
// hydration triggered the pass). A snapshot-backed victim is dehydrated —
// its document reference and byte charge drop but the name stays and
// re-hydrates on next use — while a memory-only victim is removed
// outright. Stubs hold no bytes and are never victims. Caller holds
// c.mu; the returned victims are reported to the hook after unlocking.
func (c *Corpus) evictLocked(spare string) []victim {
	if c.maxBytes <= 0 {
		return nil
	}
	var victims []victim
	for c.total > c.maxBytes {
		oldest := ""
		var oldestUsed int64
		for name, e := range c.entries {
			if name == spare || e.doc == nil {
				continue
			}
			if oldest == "" || e.used < oldestUsed {
				oldest, oldestUsed = name, e.used
			}
		}
		if oldest == "" {
			break // only the spared entry (and stubs) remain
		}
		e := c.entries[oldest]
		victims = append(victims, victim{oldest, e.doc, e.path != ""})
		c.total -= e.bytes
		if e.path != "" {
			e.doc, e.bytes = nil, 0 // dehydrate, keep the name
		} else {
			delete(c.entries, oldest)
		}
	}
	return victims
}

// notify reports evictions and invalidations to the hooks, outside the
// lock. The hooks are snapshotted under the lock by the caller — reading
// c.onEvict / c.onInvalidate here would race with a concurrent setter.
// Every victim is an eviction (when a document was resident); it is an
// invalidation too unless it was dehydrated, since dehydration changes
// residency, not content. invalidated carries names whose cached state
// went stale without an eviction (Swap replacements, Remove of a stub).
func notify(evictHook func(string, *core.Document), invHook func(string), victims []victim, invalidated []string) {
	for _, v := range victims {
		if evictHook != nil && v.doc != nil {
			evictHook(v.name, v.doc)
		}
		if invHook != nil && !v.dehydrated {
			invHook(v.name)
		}
	}
	if invHook != nil {
		for _, name := range invalidated {
			invHook(name)
		}
	}
}

// Add inserts doc under name. It fails with ErrExists if the name is
// taken and ErrEmptyName for the empty name; use Swap for replace-or-
// insert semantics.
func (c *Corpus) Add(name string, doc *core.Document) error {
	if name == "" {
		return ErrEmptyName
	}
	// Materialize every lazy structure before charging, so the accounted
	// size cannot drift as queries touch new labels (the byte budget would
	// otherwise silently overshoot for long-lived documents).
	doc.Materialize()
	c.mu.Lock()
	if _, ok := c.entries[name]; ok {
		c.mu.Unlock()
		return ErrExists
	}
	c.insertLocked(name, doc)
	victims := c.evictLocked(name)
	evictHook, invHook := c.onEvict, c.onInvalidate
	c.mu.Unlock()
	notify(evictHook, invHook, victims, nil)
	return nil
}

// Swap inserts doc under name, replacing (and returning) the previous
// document under that name, or nil if the name was free. A replacement
// advances the name's version and fires the invalidation hook — cached
// results for the old content must not survive — but not the eviction
// hook (the caller receives the displaced document directly).
func (c *Corpus) Swap(name string, doc *core.Document) (*core.Document, error) {
	if name == "" {
		return nil, ErrEmptyName
	}
	doc.Materialize() // final-size charge; see Add
	c.mu.Lock()
	var prev *core.Document
	var invalidated []string
	if e, ok := c.entries[name]; ok {
		prev = e.doc
		c.total -= e.bytes
		invalidated = []string{name}
	}
	c.insertLocked(name, doc)
	victims := c.evictLocked(name)
	evictHook, invHook := c.onEvict, c.onInvalidate
	c.mu.Unlock()
	notify(evictHook, invHook, victims, invalidated)
	return prev, nil
}

// insertLocked stores doc under name and charges its footprint. Caller
// holds c.mu and has already materialized doc, so the charge is final.
// The fresh entry gets the next content version: Add and Swap both
// change what the name serves.
func (c *Corpus) insertLocked(name string, doc *core.Document) {
	c.clock++
	c.verClock++
	b := doc.SizeBytes()
	c.entries[name] = &entry{doc: doc, bytes: b, used: c.clock, nodes: doc.Len(), ver: c.verClock}
	c.total += b
}

// Remove deletes the named document, returning it (nil if absent).
// Removal fires the same notification path as budget eviction — the
// eviction hook (when a document was resident) and the invalidation
// hook — so a subscriber sees every departure, explicit or not. It also
// advances the version clock, keeping versions strictly increasing
// across Remove followed by re-Add under the same name.
func (c *Corpus) Remove(name string) *core.Document {
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok {
		c.mu.Unlock()
		return nil
	}
	delete(c.entries, name)
	c.total -= e.bytes
	c.verClock++
	evictHook, invHook := c.onEvict, c.onInvalidate
	c.mu.Unlock()
	notify(evictHook, invHook, []victim{{name: name, doc: e.doc}}, nil)
	return e.doc
}

// Version returns the named document's content version without touching
// the LRU clock. Versions are strictly increasing across every content
// change of a name (Add, Swap, Remove + re-Add) and stable across
// dehydrate/hydrate cycles — residency changes do not change content, so
// results cached under a version stay valid for as long as the version
// is current.
func (c *Corpus) Version(name string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return 0, false
	}
	return e.ver, true
}

// Hydrations returns the cumulative count of stub hydrations (lazy
// snapshot loads) since construction — an observability counter.
func (c *Corpus) Hydrations() int64 { return c.hydrations.Load() }

// SetRetryPolicy configures the exponential backoff applied to stubs
// whose hydration failed transiently: the first retry is allowed after
// base, each further failure doubles the wait, capped at max.
// Non-positive arguments keep the corresponding default (250ms / 30s).
func (c *Corpus) SetRetryPolicy(base, max time.Duration) {
	c.mu.Lock()
	c.retryBase, c.retryMax = base, max
	c.mu.Unlock()
}

// backoffLocked returns the wait before retry number fails. Caller holds
// c.mu.
func (c *Corpus) backoffLocked(fails int) time.Duration {
	base, max := c.retryBase, c.retryMax
	if base <= 0 {
		base = defaultRetryBase
	}
	if max <= 0 {
		max = defaultRetryMax
	}
	d := base
	for i := 1; i < fails && d < max; i++ {
		d *= 2
	}
	return min(d, max)
}

// Get returns the named document and touches its LRU clock, hydrating a
// stub first. It reports false for unknown names and for stubs whose
// snapshot cannot be loaded; GetErr is the same lookup with the failure
// reason.
func (c *Corpus) Get(name string) (*core.Document, bool) {
	doc, err := c.GetErr(name)
	return doc, err == nil
}

// GetErr returns the named document and touches its LRU clock. A stub
// hydrates first: its snapshot file is loaded (outside the lock) and
// charged to the budget, which may in turn evict or dehydrate colder
// entries. Failures are typed: ErrUnknown for names not in the corpus,
// and a *HydrationError — wrapping ErrQuarantined or ErrUnavailable —
// for stubs whose snapshot cannot be loaded. A stub in backoff or
// quarantine fails fast from its tracked state without touching the
// file.
func (c *Corpus) GetErr(name string) (*core.Document, error) {
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok {
		c.mu.Unlock()
		return nil, ErrUnknown
	}
	if e.doc != nil {
		c.clock++
		e.used = c.clock
		d := e.doc
		c.mu.Unlock()
		return d, nil
	}
	if e.quarantined {
		herr := &HydrationError{Name: name, Err: e.lastErr, Quarantined: true}
		c.mu.Unlock()
		return nil, herr
	}
	if wait := time.Until(e.nextTry); wait > 0 {
		herr := &HydrationError{Name: name, Err: e.lastErr, RetryAfter: wait}
		c.mu.Unlock()
		return nil, herr
	}
	path := e.path
	c.mu.Unlock()
	return c.hydrate(name, path)
}

// hydrate loads the stub's snapshot file and installs the document,
// re-checking the entry under the lock (it may have been removed,
// re-pointed, or hydrated by a racer meanwhile — the first to publish
// wins and the loser's load is dropped). The expensive part — read,
// decode, materialize — runs outside the lock. Failures are recorded on
// the entry (backoff or quarantine) via hydrateFailed.
func (c *Corpus) hydrate(name, path string) (*core.Document, error) {
	data, err := snapshot.ReadFileFS(c.fsys(), path)
	if err != nil {
		return nil, c.hydrateFailed(name, path, err)
	}
	doc, err := core.LoadDocument(data)
	if err != nil {
		return nil, c.hydrateFailed(name, path, err)
	}
	doc.Materialize()
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok {
		c.mu.Unlock()
		return nil, ErrUnknown // removed while loading
	}
	c.clock++
	e.used = c.clock
	if e.doc != nil { // a racer hydrated (or Swap replaced) first
		d := e.doc
		c.mu.Unlock()
		return d, nil
	}
	if e.path != path {
		// Re-pointed while loading; the caller can retry immediately.
		c.mu.Unlock()
		return nil, &HydrationError{Name: name, Err: errors.New("corpus: snapshot re-pointed during load")}
	}
	e.doc = doc
	e.bytes = doc.SizeBytes()
	e.fails, e.nextTry, e.lastErr = 0, time.Time{}, nil
	c.total += e.bytes
	// Residency changed, content did not: e.ver stays — results cached
	// against this version remain servable across the dehydrate/hydrate
	// cycle.
	c.hydrations.Add(1)
	victims := c.evictLocked(name)
	evictHook, invHook := c.onEvict, c.onInvalidate
	c.mu.Unlock()
	notify(evictHook, invHook, victims, nil)
	return doc, nil
}

// hydrateFailed records a hydration failure on the stub and returns the
// typed error. Format violations (see permanentSnapshotErr) quarantine
// the file — an atomic rename to its quarantine name, made durable with
// a directory sync, counted once, and reported through the invalidation
// hook — while transient I/O failures schedule a bounded-backoff retry.
// Either way the entry keeps failing fast from its tracked state until
// the backoff expires, so a bad file is never re-read per request.
func (c *Corpus) hydrateFailed(name, path string, err error) error {
	c.hydrationErrs.Add(1)
	permanent := permanentSnapshotErr(err)
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok || e.doc != nil || e.path != path {
		// The world moved on while we were reading (removed, re-pointed,
		// or hydrated by a racer): report the failure without poisoning
		// the entry's fresh state.
		c.mu.Unlock()
		return &HydrationError{Name: name, Err: err}
	}
	if e.quarantined {
		// A racing hydration already quarantined this file.
		herr := &HydrationError{Name: name, Err: e.lastErr, Quarantined: true}
		c.mu.Unlock()
		return herr
	}
	if permanent {
		e.quarantined = true
		e.lastErr = err
		invHook := c.onInvalidate
		fsys := c.fs
		c.mu.Unlock()
		if fsys == nil {
			fsys = fault.OS{}
		}
		c.quarantineFile(fsys, path)
		if invHook != nil {
			invHook(name)
		}
		return &HydrationError{Name: name, Err: err, Quarantined: true}
	}
	e.fails++
	wait := c.backoffLocked(e.fails)
	e.nextTry = time.Now().Add(wait)
	e.lastErr = err
	c.mu.Unlock()
	return &HydrationError{Name: name, Err: err, RetryAfter: wait}
}

// Peek returns the named document and its accounted size WITHOUT
// touching the LRU clock — for read paths that must not interfere with
// eviction ordering (listings, monitoring, metadata endpoints). A stub
// reports a nil document (Peek never hydrates); use Stat for listings
// that must work uniformly across resident and dehydrated entries.
func (c *Corpus) Peek(name string) (*core.Document, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, 0, false
	}
	return e.doc, e.bytes, true
}

// Stat describes one corpus entry without hydrating it.
type Stat struct {
	// Nodes is the document's tree size (known even while dehydrated).
	Nodes int
	// Bytes is the accounted resident footprint; 0 for a stub.
	Bytes int64
	// Hydrated reports whether the document is resident in memory.
	Hydrated bool
	// Version is the entry's content version; see Corpus.Version.
	Version uint64
	// Quarantined reports that the entry's snapshot file failed format
	// validation and was renamed aside; the document cannot hydrate.
	Quarantined bool
	// Failing reports that the entry's last hydration attempt failed
	// transiently and a backoff retry is pending.
	Failing bool
	// LastError is the most recent hydration failure ("" when healthy).
	LastError string
}

// Stat returns the named entry's metadata without touching the LRU clock
// and without hydrating stubs — the listing path for servers fronting a
// snapshot directory.
func (c *Corpus) Stat(name string) (Stat, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return Stat{}, false
	}
	st := Stat{
		Nodes: e.nodes, Bytes: e.bytes, Hydrated: e.doc != nil, Version: e.ver,
		Quarantined: e.quarantined, Failing: e.fails > 0 && !e.quarantined,
	}
	if e.lastErr != nil {
		st.LastError = e.lastErr.Error()
	}
	return st, true
}

// PersistenceStats is a point-in-time summary of the persistence tier's
// health: current entry states plus cumulative fault counters.
type PersistenceStats struct {
	// Stubs is the number of dehydrated entries (healthy, failing, or
	// quarantined — everything not resident).
	Stubs int
	// Failed is the number of stubs in transient-failure backoff.
	Failed int
	// Quarantined is the number of entries whose snapshot file was
	// quarantined.
	Quarantined int
	// HydrationErrors counts failed hydration attempts since start.
	HydrationErrors int64
	// Quarantines counts files renamed to quarantine names since start
	// (both at load time and at hydration time).
	Quarantines int64
	// PersistErrors counts failed snapshot writes since start.
	PersistErrors int64
}

// PersistenceStats reports the persistence tier's health counters.
func (c *Corpus) PersistenceStats() PersistenceStats {
	c.mu.Lock()
	st := PersistenceStats{}
	for _, e := range c.entries {
		if e.doc != nil {
			continue
		}
		st.Stubs++
		switch {
		case e.quarantined:
			st.Quarantined++
		case e.fails > 0:
			st.Failed++
		}
	}
	c.mu.Unlock()
	st.HydrationErrors = c.hydrationErrs.Load()
	st.Quarantines = c.quarantines.Load()
	st.PersistErrors = c.persistErrs.Load()
	return st
}

// Len returns the number of documents.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the total accounted footprint of the corpus in bytes.
func (c *Corpus) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Names returns the document names in sorted order.
func (c *Corpus) Names() []string {
	c.mu.Lock()
	names := make([]string, 0, len(c.entries))
	for name := range c.entries {
		names = append(names, name)
	}
	c.mu.Unlock()
	sort.Strings(names)
	return names
}

// Doc is a snapshot view of one named document.
type Doc struct {
	Name string
	Doc  *core.Document
}

// Miss is one name a batch snapshot could not resolve, with the typed
// reason: ErrUnknown for names not in the corpus, or a *HydrationError
// (wrapping ErrQuarantined / ErrUnavailable) for stubs that failed to
// load.
type Miss struct {
	Name string
	Err  error
}

// Snapshot resolves a batch's document set, touching each selected
// document's LRU clock and hydrating stubs on the way (so a batch over a
// freshly opened directory pulls documents in as it reaches them, under
// the byte budget). A non-nil names selects exactly those documents in
// the given order (unresolvable names — unknown, quarantined, or failing
// to hydrate — are returned as Misses, in input order); a nil names
// selects every document in sorted-name order, restricted by filter when
// non-nil. An implicitly selected document removed between the listing
// and its lookup is skipped, not a Miss: the caller never asked for it by
// name (hydration failures still are Misses — the document exists). The
// returned documents stay valid — they are immutable — even if the corpus
// mutates (or dehydrates them) afterwards.
func (c *Corpus) Snapshot(names []string, filter func(string) bool) (docs []Doc, missing []Miss) {
	implicit := names == nil
	if implicit {
		names = c.Names()
	}
	for _, name := range names {
		if filter != nil && !filter(name) {
			continue
		}
		doc, err := c.GetErr(name)
		if err != nil {
			if !implicit || !errors.Is(err, ErrUnknown) {
				missing = append(missing, Miss{Name: name, Err: err})
			}
			continue
		}
		docs = append(docs, Doc{Name: name, Doc: doc})
	}
	return docs, missing
}
