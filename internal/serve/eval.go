package serve

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	cqtrees "repro"
	"repro/internal/cache"
	"repro/internal/corpus"
)

// ---- batch evaluation -----------------------------------------------------

// evalRequest runs one prepared query — a registered one by name (query)
// or an ad-hoc source (source) — across the corpus (docs restricts the
// fleet; empty means every document), in one of three modes:
//
//	"bool"   per-document Boolean satisfaction
//	"nodes"  per-document sorted answer node set (monadic queries only)
//	"tuples" per-document sorted distinct answer relation
//
// workers bounds the fan-out pool: 0 means GOMAXPROCS, and larger values
// clamp to it (see evalWorkers); timeout_ms caps the whole batch,
// admission wait included; max_answers caps each document's tuples result
// (tightening the server's -max-answers, never extending it) — a capped
// row carries "truncated": true.
type evalRequest struct {
	Query      string   `json:"query,omitempty"`
	Source     string   `json:"source,omitempty"`
	Docs       []string `json:"docs,omitempty"`
	Mode       string   `json:"mode"`
	Workers    int      `json:"workers,omitempty"`
	TimeoutMS  int      `json:"timeout_ms,omitempty"`
	MaxAnswers int      `json:"max_answers,omitempty"`
	// Pagination (any of these present selects the paginated path, which
	// requires mode "tuples", exactly one named doc, and a JSON — not
	// NDJSON — response): order is the per-head-position direction list
	// ("asc"/"desc", shorter lists pad ascending), limit the page size
	// (capped by the server's -max-answers), cursor an opaque resume token
	// from a previous response's next_cursor. See docs/pagination.md.
	Order  []string `json:"order,omitempty"`
	Limit  int      `json:"limit,omitempty"`
	Cursor string   `json:"cursor,omitempty"`
}

// evalResult is one per-document result row. The mode's field (Sat,
// Nodes or Tuples) is set unless Error is non-empty; empty node and
// tuple sets are omitted from the JSON (a row with neither field nor
// error is a successful empty result). Truncated marks a tuples row cut
// at the answer cap — the tuples present are the first cap tuples of the
// engine's answer stream, sorted, not the whole relation; the same
// request returns the same row with the result cache on or off.
type evalResult struct {
	Doc       string             `json:"doc"`
	Sat       *bool              `json:"sat,omitempty"`
	Nodes     []cqtrees.NodeID   `json:"nodes,omitempty"`
	Tuples    [][]cqtrees.NodeID `json:"tuples,omitempty"`
	Truncated bool               `json:"truncated,omitempty"`
	Error     string             `json:"error,omitempty"`
	// Reason classifies persistence-layer failures: "quarantined" (the
	// document's snapshot file failed validation and was set aside — do
	// not retry) or "unavailable" (a transient snapshot I/O failure —
	// retry after a backoff). Empty for all other errors.
	Reason string `json:"reason,omitempty"`
}

type evalResponse struct {
	Mode    string       `json:"mode"`
	Plan    string       `json:"plan"`
	Docs    int          `json:"docs"`
	Errors  int          `json:"errors"`
	Results []evalResult `json:"results"`
	// Truncated counts the rows cut at the answer cap.
	Truncated int `json:"truncated,omitempty"`
	// TimedOut marks a batch cut short by its deadline (status 504; the
	// rows completed before the deadline are included).
	TimedOut bool `json:"timed_out,omitempty"`
	// NextCursor is the paginated path's resume token: present exactly
	// when the page was cut short of the full result set — pass it back
	// as cursor (with the same order) to fetch the next page.
	NextCursor string `json:"next_cursor,omitempty"`
}

// validModes is the /eval mode tier.
func validMode(mode string) bool {
	return mode == "bool" || mode == "nodes" || mode == "tuples"
}

// answerCap folds the server's -max-answers and the request's
// max_answers: the request may tighten the operator's cap, never extend
// it. <= 0 means unlimited.
func (s *Server) answerCap(req int) int {
	cap := s.maxAnswers
	if req > 0 && (cap <= 0 || req < cap) {
		cap = req
	}
	return cap
}

// evalWorkers bounds a request's workers by GOMAXPROCS (also the default
// for <= 0). An admitted request holds one -max-inflight slot, so its
// document fan-out must not grow with the client's number: a request
// naming thousands of documents and as many workers would otherwise run
// that many evaluations, each with its own pooled scratch, on one slot.
func evalWorkers(req int) int {
	if n := runtime.GOMAXPROCS(0); req <= 0 || req > n {
		return n
	}
	return req
}

// admissionReject maps gate errors onto the overload tiers, counting the
// rejection by reason. Both tiers carry Retry-After: 429s tell the client
// to back off briefly and retry the same server (the queue drains as
// in-flight evals finish); 503s tell it this replica is going away —
// retry another one after a beat.
func (s *Server) admissionReject(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrShutdown):
		s.metrics.rejected.With("shutdown").Inc()
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	case errors.Is(err, ErrQueueFull):
		s.metrics.rejected.With("queue_full").Inc()
	default:
		s.metrics.rejected.With("queue_wait").Inc()
	}
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests, "%v", err)
}

// wantsNDJSON reports whether the client negotiated the streaming
// response format.
func wantsNDJSON(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		if containsToken(accept, "application/x-ndjson") {
			return true
		}
	}
	return false
}

// containsToken reports whether the comma-separated header value names
// the media type (parameters after ';' ignored).
func containsToken(header, mediaType string) bool {
	for _, part := range strings.Split(header, ",") {
		part, _, _ = strings.Cut(part, ";")
		if strings.TrimSpace(part) == mediaType {
			return true
		}
	}
	return false
}

// admit takes an evaluation slot for r, answering 429/503 itself (ok =
// false) when the gate refuses. Evaluation is the expensive tier, so only
// it passes the gate: metadata endpoints and cache hits stay responsive
// under saturation. The caller defers release, so even a panicking
// evaluation — converted to a 500 by the recovery middleware — frees its
// slot.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, err := s.gate.Acquire(ctx)
	if err != nil {
		s.admissionReject(w, err)
		return nil, false
	}
	if s.hook != nil {
		// The hook runs before the caller can defer release: a panicking
		// hook hands the slot back itself.
		defer func() {
			if p := recover(); p != nil {
				release()
				panic(p)
			}
		}()
		s.hook(r)
	}
	return release, true
}

// rowRule is the per-document row rule every /eval shape applies: which
// document failures become error rows, how they are classified, and the
// counts the response status is decided from.
type rowRule struct {
	explicit  bool // the client named the documents
	expected  int  // documents that owe a row
	errors    int  // error rows
	cancelled int  // error rows cut by the request's context
	hydra     hydraTally
}

// selectDocs freezes the request's document list (an unrestricted
// request takes the current fleet), so batch completeness is decidable:
// a timed-out batch may never reach some documents, and those produce no
// rows at all.
func (s *Server) selectDocs(req evalRequest) ([]string, rowRule) {
	docs := req.Docs
	explicit := len(docs) > 0
	if !explicit {
		docs = s.corpus.Names()
	}
	return docs, rowRule{explicit: explicit, expected: len(docs)}
}

// fail applies the row rule to one document's error. An implicitly
// selected document that is unknown — removed or evicted between the
// listing and its lookup — owes no row (row = false): the client never
// asked for it by name. Any other error is an error row carrying its
// persistence reason.
func (rr *rowRule) fail(err error) (reason string, row bool) {
	if !rr.explicit && errors.Is(err, cqtrees.ErrUnknownDocument) {
		rr.expected--
		return "", false
	}
	rr.errors++
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		rr.cancelled++
	}
	reason, retryAfter := reasonOf(err)
	rr.hydra.count(reason, retryAfter)
	return reason, true
}

// finish sorts and writes a buffered response (the batch and paginated
// shapes). 504 only when the deadline actually cut work short: some row
// was cancelled, or some frozen-list document never produced a row — a
// batch that completed just before the deadline fired is a 200. Then the
// persistence escalation: when every row failed and the persistence layer
// was involved, the batch as a whole is undeliverable — 503 + Retry-After
// (transient, retry here later) or 404 (everything asked for is
// quarantined; retrying cannot help). Otherwise 200, observed as outcome.
func (s *Server) finish(ctx context.Context, w http.ResponseWriter, pq *cqtrees.PreparedQuery, start time.Time,
	resp *evalResponse, rr *rowRule, outcome string) {
	resp.Docs = len(resp.Results)
	resp.Errors = rr.errors
	sort.Slice(resp.Results, func(i, j int) bool { return resp.Results[i].Doc < resp.Results[j].Doc })
	status := http.StatusOK
	if errors.Is(ctx.Err(), context.DeadlineExceeded) && (rr.cancelled > 0 || resp.Docs < rr.expected) {
		resp.TimedOut = true
		status, outcome = http.StatusGatewayTimeout, "timeout"
	} else if status = rr.hydra.status(w, resp.Docs, resp.Errors); status != http.StatusOK {
		outcome = "failed"
	}
	s.metrics.observeEval(start, pq, outcome)
	writeEval(w, status, resp)
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req evalRequest
	if !s.decodeBody(w, r, &req) {
		return
	}

	// Resolve the query: registered name xor inline source.
	var pq *cqtrees.PreparedQuery
	switch {
	case req.Query != "" && req.Source != "":
		httpError(w, http.StatusBadRequest, "give query or source, not both")
		return
	case req.Query != "":
		s.mu.Lock()
		sq, ok := s.queries[req.Query]
		s.mu.Unlock()
		if !ok {
			httpError(w, http.StatusNotFound, "unknown query %q", req.Query)
			return
		}
		pq = sq.pq
	case req.Source != "":
		var err error
		if pq, err = cqtrees.Compile(req.Source); err != nil {
			httpError(w, http.StatusBadRequest, "compile: %v", err)
			return
		}
	default:
		httpError(w, http.StatusBadRequest, "query or source is required")
		return
	}

	mode := req.Mode
	if mode == "" {
		mode = "tuples"
	}
	if !validMode(mode) {
		httpError(w, http.StatusBadRequest, "unknown mode %q (bool, nodes, tuples)", req.Mode)
		return
	}
	if mode == "nodes" && len(pq.Query().Head) != 1 {
		// The arity violation is a property of the request, not of any
		// document: report it once, as 422, instead of per-document rows.
		httpError(w, http.StatusUnprocessableEntity,
			"mode nodes needs a monadic query; %q has arity %d", pq.Query().String(), len(pq.Query().Head))
		return
	}

	// Pagination is a distinct shape, not a batch option: one document,
	// tuples mode, buffered JSON. Reject the incompatible combinations up
	// front — silently ignoring an order or a cursor would return pages
	// the client cannot resume.
	ndjson := wantsNDJSON(r)
	paginated := req.Order != nil || req.Cursor != "" || req.Limit > 0
	if paginated {
		switch {
		case mode != "tuples":
			httpError(w, http.StatusBadRequest, "order/limit/cursor require mode tuples, not %q", mode)
			return
		case len(req.Docs) != 1:
			httpError(w, http.StatusBadRequest, "order/limit/cursor require exactly one doc, got %d", len(req.Docs))
			return
		case ndjson:
			httpError(w, http.StatusBadRequest, "pagination is incompatible with NDJSON streaming")
			return
		}
	}

	// The operator's -eval-timeout is a hard cap: a client timeout_ms may
	// only tighten it, never extend it past the server bound. The deadline
	// starts BEFORE admission, so time spent queued counts against the
	// request's budget — a request that waits its whole deadline in the
	// queue is rejected 429 without ever evaluating.
	ctx := r.Context()
	timeout := s.evalTimeout
	if reqTimeout := time.Duration(req.TimeoutMS) * time.Millisecond; req.TimeoutMS > 0 &&
		(timeout <= 0 || reqTimeout < timeout) {
		timeout = reqTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// The buffered batch admits itself: its cache lookups happen before
	// the gate, and only misses take a slot. Paginated and streaming
	// requests bypass the result cache by design — a page is a
	// cursor-dependent slice that would never be re-hit (and the O(depth +
	// page) resume already makes recomputation cheap); streaming exists
	// for results too large to materialize, which are exactly the ones the
	// cache's per-entry cap refuses.
	if !paginated && !ndjson {
		s.evalBatch(ctx, w, r, req, pq, mode, start)
		return
	}
	release, ok := s.admit(ctx, w, r)
	if !ok {
		return
	}
	defer release()
	if paginated {
		s.evalPaginated(ctx, w, req, pq, start)
		return
	}
	s.evalNDJSON(ctx, w, req, pq, mode, start)
}

// evalBatch is the buffered JSON response path, with the result cache in
// front of the admission gate (a cache-off server runs it with a nil
// cache, on which every lookup misses):
//
//   - Pass 1 is pure lookups, no admission: a request whose every
//     document hits is answered without ever taking (or waiting for) a
//     gate slot — repeated work must not compete with real work for
//     evaluation capacity. Each document's version is read before its
//     lookup; a Swap racing past between the two just yields a miss.
//   - Pass 2 admits once, then fans the misses across the worker pool,
//     each through cache.Do → computeDoc, so concurrent requests for the
//     same (query, document, version) collapse onto one engine evaluation
//     whose result is stored for the next request.
//
// The response materializes in memory, bounded by the answer cap when
// one is configured.
func (s *Server) evalBatch(ctx context.Context, w http.ResponseWriter, r *http.Request,
	req evalRequest, pq *cqtrees.PreparedQuery, mode string, start time.Time) {
	var fp string
	if s.cache != nil {
		fp = pq.Query().Fingerprint() // only a real cache reads the key
	}
	docs, rule := s.selectDocs(req)
	capN := s.answerCap(req.MaxAnswers)

	resp := evalResponse{Mode: mode, Plan: pq.PlanText(), Results: make([]evalResult, 0, len(docs))}
	add := func(name string, v any, err error) {
		if err != nil {
			if reason, row := rule.fail(err); row {
				resp.Results = append(resp.Results, evalResult{Doc: name, Error: err.Error(), Reason: reason})
			}
			return
		}
		row := evalResult{Doc: name}
		renderCached(&row, mode, v, capN)
		if row.Truncated {
			resp.Truncated++
		}
		resp.Results = append(resp.Results, row)
	}

	var misses []cache.Key
	hits := 0
	for _, name := range docs {
		ver, ok := s.corpus.Version(name)
		if !ok {
			add(name, nil, missingDocErr(name))
			continue
		}
		k := cache.Key{Query: fp, Doc: name, Version: ver, Mode: mode}
		if v, ok := s.cache.Get(k); ok {
			add(name, v, nil)
			hits++
			continue
		}
		misses = append(misses, k)
	}

	outcome := "ok"
	if len(misses) == 0 && hits > 0 {
		outcome = "cached" // never acquired a slot, never ran the engine
	}
	if len(misses) > 0 {
		release, ok := s.admit(ctx, w, r)
		if !ok {
			return
		}
		defer release()
		eval := func(ctx context.Context, k cache.Key) (any, error) {
			return s.cache.Do(ctx, k, func() (any, int64, error) {
				return s.computeDoc(ctx, pq, mode, k.Doc, capN)
			})
		}
		// Collected before any row is added: a range-over-func body would
		// move resp and rule to the heap on hit-only requests too.
		for _, res := range slices.Collect(corpus.Run(ctx, evalWorkers(req.Workers), misses, eval)) {
			add(res.Job.Doc, res.Value, res.Err)
		}
	}
	s.finish(ctx, w, pq, start, &resp, &rule, outcome)
}

// evalPaginated answers one page of one document's ordered answer
// relation (see the pagination contract on evalRequest). Cursor failures
// map onto the REST tiers — 400 for tokens that do not decode (and order
// specs that do not fit the query), 409 for cursors minted by a different
// query or order, 410 for cursors whose document has changed content —
// so clients can distinguish "fix the request" from "restart the walk".
// Document-tier failures follow the batch row rule, with one document.
func (s *Server) evalPaginated(ctx context.Context, w http.ResponseWriter, req evalRequest, pq *cqtrees.PreparedQuery, start time.Time) {
	doc := req.Docs[0]
	opts := []cqtrees.EvalOption{cqtrees.WithContext(ctx)}
	if req.Order != nil {
		dirs := make([]cqtrees.Dir, len(req.Order))
		for i, o := range req.Order {
			d, err := cqtrees.ParseDir(o)
			if err != nil {
				httpError(w, http.StatusBadRequest, "order[%d]: %v", i, err)
				return
			}
			dirs[i] = d
		}
		opts = append(opts, cqtrees.WithOrder(dirs...))
	}
	// The server's -max-answers caps the page size exactly as it caps
	// buffered tuples rows; a client limit may only tighten it.
	if page := s.answerCap(req.Limit); page > 0 {
		opts = append(opts, cqtrees.WithLimit(page))
	}
	if req.Cursor != "" {
		opts = append(opts, cqtrees.WithCursor(req.Cursor))
	}

	resp := evalResponse{Mode: "tuples", Plan: pq.PlanText()}
	rule := rowRule{explicit: true, expected: 1}
	page, err := s.corpus.Page(pq, doc, opts...)
	switch {
	case err == nil:
		s.metrics.evalsTotal.With(strategySlug(pq.Plan())).Inc()
		resp.Results = []evalResult{{Doc: doc, Tuples: page.Tuples, Truncated: page.Next != ""}}
		if page.Next != "" {
			resp.Truncated = 1
			resp.NextCursor = page.Next
		}
	case errors.Is(err, cqtrees.ErrCursorMalformed), errors.Is(err, cqtrees.ErrOrderArity):
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	case errors.Is(err, cqtrees.ErrCursorMismatch):
		httpError(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, cqtrees.ErrCursorStale):
		httpError(w, http.StatusGone, "%v", err)
		return
	default:
		reason, _ := rule.fail(err)
		resp.Results = []evalResult{{Doc: doc, Error: err.Error(), Reason: reason}}
	}
	s.finish(ctx, w, pq, start, &resp, &rule, "ok")
}
