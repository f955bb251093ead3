package serve

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"strings"
	"time"

	cqtrees "repro"
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
// workers bounds the fan-out pool (0 = GOMAXPROCS); timeout_ms caps the
// whole batch, admission wait included; max_answers caps each document's
// tuples result (tightening the server's -max-answers, never extending
// it) — a capped row carries "truncated": true.
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
// at the answer cap — the tuples present are a genuine prefix-by-count of
// the answer relation, not the whole of it.
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
	paginated := req.Order != nil || req.Cursor != "" || req.Limit > 0
	if paginated {
		switch {
		case mode != "tuples":
			httpError(w, http.StatusBadRequest, "order/limit/cursor require mode tuples, not %q", mode)
			return
		case len(req.Docs) != 1:
			httpError(w, http.StatusBadRequest, "order/limit/cursor require exactly one doc, got %d", len(req.Docs))
			return
		case wantsNDJSON(r):
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

	// Paginated requests bypass the result cache by design: a page is a
	// cursor-dependent slice, so caching it would key on the cursor token
	// and never be re-hit — while the underlying O(depth + page) resume
	// already makes recomputation cheap. They do pass the admission gate.
	if paginated {
		release, err := s.gate.Acquire(ctx)
		if err != nil {
			s.admissionReject(w, err)
			return
		}
		defer release()
		if s.hook != nil {
			s.hook(r)
		}
		s.evalPaginated(ctx, w, req, pq, start)
		return
	}

	// The cached path manages admission itself: lookups happen before the
	// gate, and only cache misses acquire a slot. Streaming responses
	// bypass the cache — they exist for results too large to materialize,
	// which are exactly the ones the cache's per-entry cap refuses.
	if s.cache != nil && !wantsNDJSON(r) {
		s.evalCached(ctx, w, r, req, pq, mode, start)
		return
	}

	// Admission: evaluation is the expensive tier, so only it passes the
	// gate (metadata endpoints stay responsive under saturation). The
	// release is deferred, so even a panicking evaluation — converted to a
	// 500 by the recovery middleware — frees its slot.
	release, err := s.gate.Acquire(ctx)
	if err != nil {
		s.admissionReject(w, err)
		return
	}
	defer release()
	if s.hook != nil {
		s.hook(r)
	}

	if wantsNDJSON(r) {
		s.evalNDJSON(ctx, w, req, pq, mode, start)
		return
	}
	s.evalBuffered(ctx, w, req, pq, mode, start)
}

// evalPaginated answers one page of one document's ordered answer
// relation (see the pagination contract on evalRequest). Cursor failures
// map onto the REST tiers — 400 for tokens that do not decode (and order
// specs that do not fit the query), 409 for cursors minted by a different
// query or order, 410 for cursors whose document has changed content —
// so clients can distinguish "fix the request" from "restart the walk".
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

	resp := evalResponse{Mode: "tuples", Plan: pq.Plan().String(), Docs: 1}
	page, err := s.corpus.Page(pq, doc, opts...)
	switch {
	case err == nil:
	case errors.Is(err, cqtrees.ErrCursorMalformed), errors.Is(err, cqtrees.ErrOrderArity):
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	case errors.Is(err, cqtrees.ErrCursorMismatch):
		httpError(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, cqtrees.ErrCursorStale):
		httpError(w, http.StatusGone, "%v", err)
		return
	case errors.Is(err, context.DeadlineExceeded):
		resp.TimedOut = true
		resp.Results = []evalResult{{Doc: doc, Error: err.Error()}}
		resp.Errors = 1
		s.metrics.observeEval(start, pq, "timeout")
		writeEval(w, http.StatusGatewayTimeout, &resp)
		return
	default:
		// Document-tier failure: an error row plus the same persistence
		// escalation the batch path applies — with one document, an
		// all-rows failure is just this row's failure.
		var tally hydraTally
		reason, retryAfter := reasonOf(err)
		tally.count(reason, retryAfter)
		resp.Results = []evalResult{{Doc: doc, Error: err.Error(), Reason: reason}}
		resp.Errors = 1
		status := tally.status(w, 1, 1)
		s.metrics.observeEval(start, pq, "failed")
		writeEval(w, status, &resp)
		return
	}
	s.metrics.evalsTotal.With(strategySlug(pq.Plan())).Inc()
	resp.Results = []evalResult{{Doc: doc, Tuples: page.Tuples, Truncated: page.Next != ""}}
	if page.Next != "" {
		resp.Truncated = 1
		resp.NextCursor = page.Next
	}
	s.metrics.observeEval(start, pq, "ok")
	writeEval(w, http.StatusOK, &resp)
}

// evalBuffered is the classic JSON response path: the whole batch fans
// out across the worker pool and the response materializes in memory —
// bounded by the answer cap when one is configured.
func (s *Server) evalBuffered(ctx context.Context, w http.ResponseWriter, req evalRequest, pq *cqtrees.PreparedQuery, mode string, start time.Time) {
	// The document list is frozen up front (an unrestricted request takes
	// the current fleet): batch completeness is then decidable — a timed
	// out batch may never dispatch some documents, and those produce no
	// result rows at all.
	explicit := len(req.Docs) > 0
	docs := req.Docs
	if !explicit {
		docs = s.corpus.Names()
	}
	expected := len(docs)
	opts := []cqtrees.BatchOption{
		cqtrees.WithBatchContext(ctx),
		cqtrees.WithBatchWorkers(req.Workers),
		cqtrees.WithDocs(docs...),
	}
	cap := s.answerCap(req.MaxAnswers)
	if mode == "tuples" && cap > 0 {
		opts = append(opts, cqtrees.WithBatchMaxTuples(cap))
	}

	resp := evalResponse{Mode: mode, Plan: pq.Plan().String(), Results: make([]evalResult, 0, len(docs))}
	cancelledRows := 0
	var tally hydraTally
	add := func(doc string, err error, fill func(*evalResult)) {
		// An implicit fleet selection can race a concurrent Remove or
		// LRU eviction between Names() and the batch snapshot; the
		// client never asked for that document by name, so its
		// disappearance is not an error row.
		if err != nil && !explicit && errors.Is(err, cqtrees.ErrUnknownDocument) {
			expected--
			return
		}
		// Count rows that reached the engine under their strategy; an
		// unknown document (explicitly named, hence an error row) did not.
		if err == nil || !errors.Is(err, cqtrees.ErrUnknownDocument) {
			s.metrics.evalsTotal.With(strategySlug(pq.Plan())).Inc()
		}
		row := evalResult{Doc: doc}
		if err != nil {
			row.Error = err.Error()
			resp.Errors++
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				cancelledRows++
			}
			reason, retryAfter := reasonOf(err)
			row.Reason = reason
			tally.count(reason, retryAfter)
		} else {
			fill(&row)
		}
		resp.Results = append(resp.Results, row)
	}
	// Empty node/tuple sets need no normalization: omitempty drops the
	// field for nil and empty alike, so a successful empty result is a
	// row with neither payload nor error.
	switch mode {
	case "bool":
		for r := range s.corpus.Bool(pq, opts...) {
			sat := r.Sat
			add(r.Doc, r.Err, func(row *evalResult) { row.Sat = &sat })
		}
	case "nodes":
		for r := range s.corpus.Nodes(pq, opts...) {
			nodes := r.Nodes
			add(r.Doc, r.Err, func(row *evalResult) { row.Nodes = nodes })
		}
	case "tuples":
		for r := range s.corpus.Tuples(pq, opts...) {
			tuples, truncated := r.Tuples, r.Truncated
			add(r.Doc, r.Err, func(row *evalResult) {
				row.Tuples = tuples
				row.Truncated = truncated
				if truncated {
					resp.Truncated++
				}
			})
		}
	}
	resp.Docs = len(resp.Results)
	sort.Slice(resp.Results, func(i, j int) bool { return resp.Results[i].Doc < resp.Results[j].Doc })

	// 504 only when the deadline actually cut work short: some row carried
	// a cancellation error, or some frozen-list document never produced a
	// row. A batch that completed just before the deadline fired is a 200.
	if errors.Is(ctx.Err(), context.DeadlineExceeded) &&
		(cancelledRows > 0 || resp.Docs < expected) {
		resp.TimedOut = true
		s.metrics.observeEval(start, pq, "timeout")
		writeEval(w, http.StatusGatewayTimeout, &resp)
		return
	}
	// Persistence escalation: when every row failed and the persistence
	// layer was involved, the batch as a whole is undeliverable — 503 +
	// Retry-After (transient, retry here later) or 404 (everything asked
	// for is quarantined; retrying cannot help).
	if status := tally.status(w, resp.Docs, resp.Errors); status != http.StatusOK {
		s.metrics.observeEval(start, pq, "failed")
		writeEval(w, status, &resp)
		return
	}
	s.metrics.observeEval(start, pq, "ok")
	writeEval(w, http.StatusOK, &resp)
}
