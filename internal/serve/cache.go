package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	cqtrees "repro"
	"repro/internal/cache"
)

// The cached /eval path. When the server runs with a result cache
// (-cache-bytes > 0), buffered evaluations go through here instead of the
// corpus batch iterators:
//
//   - Lookups happen BEFORE admission: a request whose every document hits
//     the cache is answered without ever taking (or waiting for) a gate
//     slot — the whole point of caching is that repeated work must not
//     compete with real work for evaluation capacity.
//   - Misses are evaluated per document through cache.Do, so concurrent
//     requests for the same (query, document, version) collapse onto one
//     engine evaluation, and the result is stored for the next request.
//   - Keys carry the document's corpus version (see Corpus.Version): a
//     swapped or re-added document gets a new version, so a stale entry
//     can never match a post-swap lookup. The corpus invalidation hook
//     additionally drops the dead entries eagerly.
//
// The NDJSON streaming path never touches the cache: streaming exists for
// relations too large to materialize, which are exactly the results the
// per-entry byte cap refuses to cache.

// cachedRelation is the cached value for mode "tuples": the sorted answer
// relation, with complete=false when enumeration stopped early because
// the relation outgrew the per-entry cache budget (such values are never
// stored — see computeDoc — but are still served to the waiting callers).
type cachedRelation struct {
	tuples   [][]cqtrees.NodeID
	complete bool
}

// evalCached is the buffered /eval path with the result cache in front of
// the admission gate. The response contract is identical to evalBuffered:
// same rows, same sorting, same 504 semantics — only the work is
// memoized.
func (s *Server) evalCached(ctx context.Context, w http.ResponseWriter, r *http.Request,
	req evalRequest, pq *cqtrees.PreparedQuery, mode string, start time.Time) {
	fp := pq.Query().Fingerprint()
	explicit := len(req.Docs) > 0
	docs := req.Docs
	if !explicit {
		docs = s.corpus.Names()
	}
	expected := len(docs)
	capN := s.answerCap(req.MaxAnswers)

	resp := evalResponse{Mode: mode, Plan: pq.Plan().String(), Results: make([]evalResult, 0, len(docs))}
	cancelledRows := 0
	var tally hydraTally
	add := func(doc string, err error, v any) {
		// Same contract as evalBuffered: an implicitly selected document
		// that vanished between Names() and evaluation is not an error row.
		if err != nil && !explicit && errors.Is(err, cqtrees.ErrUnknownDocument) {
			expected--
			return
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
			renderCached(&row, mode, v, capN)
			if row.Truncated {
				resp.Truncated++
			}
		}
		resp.Results = append(resp.Results, row)
	}

	// Pass 1 — pure lookups, no admission. Version is read before the
	// lookup; a Swap racing past between the two just yields a miss.
	type miss struct {
		name string
		ver  uint64
	}
	var misses []miss
	for _, name := range docs {
		ver, ok := s.corpus.Version(name)
		if !ok {
			add(name, missingDocErr(name), nil)
			continue
		}
		if v, ok := s.cache.Get(cache.Key{Query: fp, Doc: name, Version: ver, Mode: mode}); ok {
			add(name, nil, v)
			continue
		}
		misses = append(misses, miss{name, ver})
	}

	// Pass 2 — only misses pay for admission and evaluation.
	if len(misses) > 0 {
		release, err := s.gate.Acquire(ctx)
		if err != nil {
			s.admissionReject(w, err)
			return
		}
		defer release()
		if s.hook != nil {
			s.hook(r)
		}

		workers := req.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(misses) {
			workers = len(misses)
		}
		type outcome struct {
			v   any
			err error
		}
		outs := make([]outcome, len(misses))
		var wg sync.WaitGroup
		next := make(chan int)
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					m := misses[i]
					k := cache.Key{Query: fp, Doc: m.name, Version: m.ver, Mode: mode}
					v, err := s.cache.Do(ctx, k, func() (any, int64, error) {
						return s.computeDoc(ctx, pq, mode, m.name, capN)
					})
					outs[i] = outcome{v, err}
				}
			}()
		}
		for i := range misses {
			next <- i
		}
		close(next)
		wg.Wait()
		for i, m := range misses {
			add(m.name, outs[i].err, outs[i].v)
		}
	}

	resp.Docs = len(resp.Results)
	sort.Slice(resp.Results, func(i, j int) bool { return resp.Results[i].Doc < resp.Results[j].Doc })

	if errors.Is(ctx.Err(), context.DeadlineExceeded) &&
		(cancelledRows > 0 || resp.Docs < expected) {
		resp.TimedOut = true
		s.metrics.observeEval(start, pq, "timeout")
		writeEval(w, http.StatusGatewayTimeout, &resp)
		return
	}
	// Same persistence escalation as evalBuffered: an all-failed batch
	// with the persistence layer involved becomes 503 (transient) or 404
	// (all quarantined).
	if status := tally.status(w, resp.Docs, resp.Errors); status != http.StatusOK {
		s.metrics.observeEval(start, pq, "failed")
		writeEval(w, status, &resp)
		return
	}
	out := "ok"
	if len(misses) == 0 {
		out = "cached" // never acquired a slot, never ran the engine
	}
	s.metrics.observeEval(start, pq, out)
	writeEval(w, http.StatusOK, &resp)
}

// missingDocErr mirrors the batch iterators' per-row error for a document
// the corpus does not hold.
func missingDocErr(name string) error {
	return fmt.Errorf("corpus: %q: %w", name, cqtrees.ErrUnknownDocument)
}

// computeDoc evaluates pq on one document — the compute function behind
// cache.Do. It returns (value, size, error) where size is the value's
// approximate resident footprint; Put rejects sizes over the per-entry
// cap, so a deliberately inflated size is how a value opts out of
// caching.
//
// For mode "tuples" the cached value must be the COMPLETE relation —
// cached entries serve every future answer cap, so a capped prefix would
// poison larger requests. Enumeration therefore continues past the
// requesting cap while the accumulated bytes still fit the cache's
// per-entry budget; once the relation has outgrown cacheability AND the
// response prefix (cap plus the one-past-cap truncation witness) is in
// hand, it stops: the remaining work could benefit no one.
func (s *Server) computeDoc(ctx context.Context, pq *cqtrees.PreparedQuery, mode, name string, capN int) (any, int64, error) {
	doc, err := s.corpus.GetErr(name)
	if err != nil {
		// Hydration failures keep their classification (quarantined vs
		// transient) so the row and status mapping can distinguish them
		// from a plain unknown document.
		return nil, 0, err
	}
	s.metrics.evalsTotal.With(strategySlug(pq.Plan())).Inc()
	switch mode {
	case "bool":
		v, err := pq.BoolErr(doc, cqtrees.WithContext(ctx))
		return v, 16, err
	case "nodes":
		v, err := pq.NodesErr(doc, cqtrees.WithContext(ctx))
		return v, 48 + 4*int64(len(v)), err
	default: // tuples
		budget := s.cache.MaxEntry()
		var out [][]cqtrees.NodeID
		bytes := int64(64)
		stopped := false
		// Tuples yields freshly allocated, caller-owned tuples: no copy.
		for t := range pq.Tuples(doc, cqtrees.WithContext(ctx)) {
			out = append(out, t)
			bytes += 32 + 4*int64(len(t))
			if bytes > budget && capN > 0 && len(out) > capN {
				stopped = true
				break
			}
		}
		// The tuple iterator goes silent on cancellation; surface it as the
		// row error unless we stopped on purpose first.
		if err := ctx.Err(); err != nil && !stopped {
			return nil, 0, err
		}
		slices.SortFunc(out, slices.Compare[[]cqtrees.NodeID]) // the batch iterators' order
		size := bytes
		if stopped {
			size = budget + 1 // incomplete relations must never cache
		}
		return cachedRelation{tuples: out, complete: !stopped}, size, nil
	}
}

// renderCached projects a cached (or freshly computed) value onto one
// response row under the request's answer cap. Cached tuple relations are
// complete, so re-capping at render time serves any cap from one entry;
// an incomplete relation (never cached, but shared with singleflight
// followers) is truncated by construction.
func renderCached(row *evalResult, mode string, v any, capN int) {
	switch mode {
	case "bool":
		sat := v.(bool)
		row.Sat = &sat
	case "nodes":
		row.Nodes = v.([]cqtrees.NodeID)
	default: // tuples
		rel := v.(cachedRelation)
		tuples := rel.tuples
		truncated := !rel.complete
		if capN > 0 && len(tuples) > capN {
			tuples = tuples[:capN]
			truncated = true
		}
		// The slice aliases the cached value; rows are only ever encoded,
		// never mutated (the cache package's immutability contract).
		row.Tuples = tuples
		row.Truncated = truncated
	}
}
