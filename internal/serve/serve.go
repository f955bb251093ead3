// Package serve is the hardened HTTP serving layer of the corpus engine:
// the handlers behind cmd/cqserve, wrapped in the robustness machinery a
// production deployment needs to survive overload.
//
// The paper's tractability results bound the cost of one evaluation; this
// package bounds what the server as a whole accepts, so one hostile batch
// (a million-answer enumeration, an oversized document, a panic-inducing
// edge case) cannot take the engine down for everyone else:
//
//   - Admission control (Gate): at most MaxInFlight concurrent /eval
//     calls, a bounded FIFO wait queue with per-request deadline
//     propagation, 429 + Retry-After when the queue is full or the wait
//     deadline expires, 503 + Retry-After while shutting down.
//   - Graceful degradation: per-request answer-count caps downgrade huge
//     tuples results to a truncated prefix with "truncated": true instead
//     of buffering without bound; Accept: application/x-ndjson streams
//     results line-by-line so memory stays flat however large the answer
//     relation; http.MaxBytesReader bounds every request body (413).
//   - Lifecycle robustness: panic-recovery middleware converts evaluator
//     panics into per-request 500s, and BeginShutdown flips the gate so
//     http.Server.Shutdown can drain in-flight evaluations while new work
//     is turned away with 503.
//
// All state is in memory (optionally snapshot-backed via Config.DataDir);
// handlers are safe for concurrent use.
package serve

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	cqtrees "repro"
	"repro/internal/cache"
)

// Config configures New. Zero values are permissive: no corpus budget, a
// 16 MiB body limit, no eval timeout, unlimited in-flight evaluations, no
// wait queue, no answer cap, memory-only corpus.
type Config struct {
	// MaxCorpusBytes is the corpus byte budget; beyond it documents are
	// LRU-evicted (or dehydrated, when DataDir backs them). <= 0 disables.
	MaxCorpusBytes int64
	// MaxBody bounds every request body; oversized bodies are 413.
	// <= 0 defaults to 16 MiB.
	MaxBody int64
	// EvalTimeout is the hard cap on one /eval batch; zero means no cap.
	// A request's timeout_ms may tighten the bound but never extend it.
	EvalTimeout time.Duration
	// DataDir, when non-empty, is the snapshot directory: PUTs persist,
	// DELETEs unpersist, and startup recovers the corpus from it without
	// re-parsing any XML (documents hydrate lazily from their snapshots).
	DataDir string
	// NoFsync disables the fsync calls in the persist path. Writes stay
	// atomic for concurrent readers but lose crash durability — after a
	// power loss a freshly persisted snapshot may be torn or missing. For
	// benchmarks and bulk imports only; production keeps syncs on.
	NoFsync bool

	// MaxInFlight bounds concurrent /eval evaluations; <= 0 is unlimited.
	MaxInFlight int
	// MaxQueue bounds how many /eval requests may wait for a slot once
	// MaxInFlight is saturated; <= 0 rejects immediately at saturation.
	MaxQueue int
	// QueueWait caps how long one request may wait queued, on top of its
	// own deadline; <= 0 means the request's deadline alone bounds it.
	QueueWait time.Duration
	// MaxAnswers caps per-document tuples results: enumeration stops at
	// the cap and the row is marked "truncated": true. A request's
	// max_answers may tighten the cap, never extend it. <= 0 is unlimited.
	MaxAnswers int

	// CacheBytes is the result cache's total byte budget: materialized
	// /eval results are cached per (query, document, document version)
	// and served without re-evaluating — or re-entering admission — until
	// the document changes. <= 0 disables the cache.
	CacheBytes int64
	// CacheMaxEntry caps one cached result's size; results over it are
	// never cached (a million-answer relation should stream, not evict
	// the whole working set). <= 0 defaults to CacheBytes per shard.
	CacheMaxEntry int64
}

// Server is the HTTP face of the corpus engine: a Corpus of named indexed
// documents plus a registry of named prepared queries, exposed as a small
// JSON API (net/http only), behind the admission gate.
type Server struct {
	corpus *cqtrees.Corpus

	mu      sync.Mutex
	queries map[string]*storedQuery

	maxBody     int64
	evalTimeout time.Duration
	dataDir     string
	maxAnswers  int
	gate        *Gate
	cache       *cache.Cache // nil when disabled: always-miss, no-op puts
	metrics     *serveMetrics
	loadReport  cqtrees.CorpusLoadReport // startup LoadDir accounting

	// hook, when non-nil, runs at the start of every admitted /eval
	// evaluation — a test seam for saturating the gate deterministically
	// and for injecting evaluator panics.
	hook func(*http.Request)
}

// storedQuery is a registered prepared query plus its source text.
type storedQuery struct {
	src string
	pq  *cqtrees.PreparedQuery
}

// New builds a Server from cfg, recovering the corpus from cfg.DataDir
// when set.
func New(cfg Config) (*Server, error) {
	var opts []cqtrees.CorpusOption
	if cfg.MaxCorpusBytes > 0 {
		opts = append(opts, cqtrees.WithMaxBytes(cfg.MaxCorpusBytes))
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 16 << 20
	}
	if cfg.NoFsync {
		opts = append(opts, cqtrees.WithNoFsync())
	}
	// The cache exists before the corpus so the corpus's invalidation
	// hook can close over it: every Swap, Remove, memory-only eviction
	// and quarantine drops that document's cached results eagerly (the
	// version in the key already makes them unservable; the hook just
	// reclaims the bytes). Dehydration keeps them: the document hydrates
	// back under the same version, so its cached results stay servable.
	resultCache := cache.New(cfg.CacheBytes, cfg.CacheMaxEntry)
	if resultCache != nil {
		opts = append(opts, cqtrees.WithInvalidationHook(func(name string) {
			resultCache.InvalidateDoc(name)
		}))
	}
	s := &Server{
		corpus:      cqtrees.NewCorpus(opts...),
		queries:     make(map[string]*storedQuery),
		maxBody:     cfg.MaxBody,
		evalTimeout: cfg.EvalTimeout,
		dataDir:     cfg.DataDir,
		maxAnswers:  cfg.MaxAnswers,
		gate:        NewGate(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		cache:       resultCache,
	}
	s.metrics = newServeMetrics(s)
	if s.dataDir != "" {
		if err := os.MkdirAll(s.dataDir, 0o755); err != nil {
			return nil, err
		}
		// Restart recovery: every snapshot in the directory registers as a
		// dehydrated entry (header read only) and hydrates on first use —
		// no XML parse, no index build, cold start at read speed.
		//
		// Per-file faults do not abort startup: corrupt files were already
		// quarantined (renamed aside, counted — visible on /healthz and
		// /metrics) and transiently unreadable ones stay for the next pass,
		// while every healthy snapshot serves. Only a scan that produced
		// nothing at all — the directory itself unreadable — is fatal.
		rep, err := s.corpus.LoadDirReport(s.dataDir)
		s.loadReport = rep
		if err != nil && rep == (cqtrees.CorpusLoadReport{}) {
			return nil, fmt.Errorf("load %s: %w", s.dataDir, err)
		}
	}
	return s, nil
}

// Handler builds the route table wrapped in the middleware stack: panic
// recovery outermost (a panic anywhere below becomes one request's 500),
// then the body limit (every handler sees a bounded body).
// Method+path patterns need Go 1.22+.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.metrics.registry)
	mux.HandleFunc("GET /docs", s.handleListDocs)
	mux.HandleFunc("GET /docs/{name}", s.handleGetDoc)
	mux.HandleFunc("PUT /docs/{name}", s.handlePutDoc)
	mux.HandleFunc("DELETE /docs/{name}", s.handleDeleteDoc)
	mux.HandleFunc("GET /queries", s.handleListQueries)
	mux.HandleFunc("GET /queries/{name}", s.handleGetQuery)
	mux.HandleFunc("PUT /queries/{name}", s.handlePutQuery)
	mux.HandleFunc("DELETE /queries/{name}", s.handleDeleteQuery)
	mux.HandleFunc("POST /eval", s.handleEval)
	return s.metrics.withMetrics(withRecover(withBodyLimit(s.maxBody, mux)))
}

// BeginShutdown flips the server into draining mode: queued /eval
// requests and all future ones are answered 503 + Retry-After, while
// evaluations already holding a slot run to completion. Call it before
// http.Server.Shutdown so the listener drain only has to wait for work
// that was already admitted. Idempotent.
func (s *Server) BeginShutdown() { s.gate.Shutdown() }

// Draining reports whether BeginShutdown has been called.
func (s *Server) Draining() bool { return s.gate.Closed() }

// InFlight returns the number of /eval evaluations currently holding an
// admission slot.
func (s *Server) InFlight() int { return s.gate.InFlight() }

// Queued returns the number of /eval requests waiting for a slot.
func (s *Server) Queued() int { return s.gate.Queued() }

// Corpus exposes the underlying corpus — for harnesses (cmd/cqload) and
// tests that need direct inspection; HTTP clients use the API.
func (s *Server) Corpus() *cqtrees.Corpus { return s.corpus }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	nq := len(s.queries)
	s.mu.Unlock()
	status, code := "ok", http.StatusOK
	if s.gate.Closed() {
		// Draining replicas fail readiness so load balancers stop routing
		// new traffic while in-flight work completes.
		status, code = "draining", http.StatusServiceUnavailable
	}
	cs := s.cache.Stats() // all-zero for the disabled (nil) cache
	ps := s.corpus.Persistence()
	writeJSON(w, code, map[string]any{
		"status":    status,
		"docs":      s.corpus.Len(),
		"queries":   nq,
		"bytes":     s.corpus.Bytes(),
		"in_flight": s.gate.InFlight(),
		"queued":    s.gate.Queued(),
		"cache": map[string]any{
			"enabled": s.cache != nil,
			"hits":    cs.Hits,
			"misses":  cs.Misses,
			"entries": cs.Entries,
			"bytes":   cs.Bytes,
		},
		// The persistence block is the health view of the fault-tolerant
		// snapshot layer: stubs awaiting hydration, entries in retry
		// backoff, quarantined documents, and the lifetime fault counters.
		// load_quarantined / swept_tmp are the startup scan's accounting.
		"persistence": map[string]any{
			"stubs":            ps.Stubs,
			"failed":           ps.Failed,
			"quarantined":      ps.Quarantined,
			"hydration_errors": ps.HydrationErrors,
			"quarantines":      ps.Quarantines,
			"persist_errors":   ps.PersistErrors,
			"load_quarantined": s.loadReport.Quarantined,
			"swept_tmp":        s.loadReport.SweptTmp,
		},
	})
}
