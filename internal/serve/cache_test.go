package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrapeMetric GETs /metrics and sums the named family's series values
// (all label combinations). Histograms: pass the _count or _sum series
// name explicitly.
func scrapeMetric(t *testing.T, h http.Handler, name string) float64 {
	t.Helper()
	sum, found := scrapeSeries(t, h, name, "")
	if !found {
		t.Fatalf("metric %s absent from scrape", name)
	}
	return sum
}

// scrapeSeries sums the named family's series whose label set contains
// label (every series when label is empty); found reports whether any
// series matched.
func scrapeSeries(t *testing.T, h http.Handler, name, label string) (sum float64, found bool) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rr.Code)
	}
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable metrics line %q", line)
		}
		base, labels, _ := strings.Cut(series, "{")
		if base != name || !strings.Contains(labels, label) {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		sum += f
		found = true
	}
	return sum, found
}

// cachedServer builds a server with the result cache on and seeds it with
// one document and one registered query.
func cachedServer(t *testing.T, cfg Config) (*Server, http.Handler) {
	t.Helper()
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 1 << 20
	}
	s := mustServer(t, cfg)
	h := s.Handler()
	wantStatus(t, do(t, h, "PUT", "/docs/a", `{"term": "A(B,C(B),B)"}`, nil), http.StatusCreated)
	wantStatus(t, do(t, h, "PUT", "/queries/q", `{"query": "Q(x) <- B(x)"}`, nil), http.StatusCreated)
	return s, h
}

// TestEvalCacheWarmHit: a repeated (query, doc, mode) evaluation is
// served from the cache — the engine evaluation counter must not move,
// the hit counter must — and the response is byte-identical.
func TestEvalCacheWarmHit(t *testing.T) {
	_, h := cachedServer(t, Config{})

	body := `{"query": "q", "mode": "nodes", "docs": ["a"]}`
	first := do(t, h, "POST", "/eval", body, nil)
	wantStatus(t, first, http.StatusOK)
	evals := scrapeMetric(t, h, "cqtrees_evals_total")
	if evals == 0 {
		t.Fatal("cold eval did not count an engine evaluation")
	}

	second := do(t, h, "POST", "/eval", body, nil)
	wantStatus(t, second, http.StatusOK)
	if first.Body.String() != second.Body.String() {
		t.Fatalf("warm response diverged:\ncold: %s\nwarm: %s", first.Body.String(), second.Body.String())
	}
	if after := scrapeMetric(t, h, "cqtrees_evals_total"); after != evals {
		t.Fatalf("warm eval ran the engine: evals_total %v -> %v", evals, after)
	}
	if hits := scrapeMetric(t, h, "cqtrees_cache_hits_total"); hits == 0 {
		t.Fatal("warm eval did not count a cache hit")
	}

	// All three modes cache independently.
	for _, mode := range []string{"bool", "tuples"} {
		b := fmt.Sprintf(`{"query": "q", "mode": %q, "docs": ["a"]}`, mode)
		wantStatus(t, do(t, h, "POST", "/eval", b, nil), http.StatusOK)
		evals := scrapeMetric(t, h, "cqtrees_evals_total")
		wantStatus(t, do(t, h, "POST", "/eval", b, nil), http.StatusOK)
		if after := scrapeMetric(t, h, "cqtrees_evals_total"); after != evals {
			t.Fatalf("mode %s: warm eval ran the engine", mode)
		}
	}

	// The health endpoint mirrors the cache counters.
	var health struct {
		Cache struct {
			Enabled bool  `json:"enabled"`
			Hits    int64 `json:"hits"`
			Entries int64 `json:"entries"`
		} `json:"cache"`
	}
	wantStatus(t, do(t, h, "GET", "/healthz", "", &health), http.StatusOK)
	if !health.Cache.Enabled || health.Cache.Hits == 0 || health.Cache.Entries == 0 {
		t.Fatalf("healthz cache block: %+v", health.Cache)
	}
}

// TestEvalCacheSkipsAdmission: a fully warm request is answered while the
// admission gate is saturated — cache hits never compete for evaluation
// slots.
func TestEvalCacheSkipsAdmission(t *testing.T) {
	s, h := cachedServer(t, Config{MaxInFlight: 1, MaxQueue: 0})

	warm := `{"query": "q", "mode": "nodes", "docs": ["a"]}`
	wantStatus(t, do(t, h, "POST", "/eval", warm, nil), http.StatusOK)

	// Saturate the single slot with a cold evaluation parked in the hook.
	block := make(chan struct{})
	entered := make(chan struct{})
	s.hook = func(*http.Request) {
		close(entered)
		<-block
	}
	coldDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		coldDone <- do(t, h, "POST", "/eval",
			`{"source": "Q(x) <- A(x)", "mode": "nodes", "docs": ["a"]}`, nil)
	}()
	<-entered
	defer func() {
		close(block)
		wantStatus(t, <-coldDone, http.StatusOK)
	}()

	// Gate is full and the queue rejects; the warm request still serves.
	wantStatus(t, do(t, h, "POST", "/eval", warm, nil), http.StatusOK)

	// Sanity: a cold request at the same instant is shed with 429.
	cold := do(t, h, "POST", "/eval",
		`{"source": "Q(x) <- C(x)", "mode": "nodes", "docs": ["a"]}`, nil)
	wantStatus(t, cold, http.StatusTooManyRequests)
	if shed := scrapeMetric(t, h, "cqtrees_admission_rejected_total"); shed == 0 {
		t.Fatal("rejection not counted")
	}
}

// TestEvalCacheSwapParity: after a document is swapped (and removed and
// re-added), a cached server returns exactly what an uncached server
// returns — stale entries are both unservable (version key) and dropped
// (invalidation hook).
func TestEvalCacheSwapParity(t *testing.T) {
	cached := mustServer(t, Config{CacheBytes: 1 << 20}).Handler()
	plain := mustServer(t, Config{}).Handler()

	step := func(method, path, body string) {
		t.Helper()
		a := do(t, cached, method, path, body, nil)
		b := do(t, plain, method, path, body, nil)
		if a.Code != b.Code {
			t.Fatalf("%s %s: cached %d vs plain %d", method, path, a.Code, b.Code)
		}
	}
	eval := func(body string) {
		t.Helper()
		a := do(t, cached, "POST", "/eval", body, nil)
		b := do(t, plain, "POST", "/eval", body, nil)
		if a.Code != b.Code || a.Body.String() != b.Body.String() {
			t.Fatalf("eval %s diverged:\ncached: %d %s\nplain:  %d %s",
				body, a.Code, a.Body.String(), b.Code, b.Body.String())
		}
	}

	step("PUT", "/docs/a", `{"term": "A(B,C(B))"}`)
	step("PUT", "/docs/b", `{"term": "A(C)"}`)
	step("PUT", "/queries/q", `{"query": "Q(x) <- B(x)"}`)
	for _, mode := range []string{"bool", "nodes", "tuples"} {
		body := fmt.Sprintf(`{"query": "q", "mode": %q}`, mode)
		eval(body)
		eval(body) // warm pass on the cached server
	}

	// Swap a: the old results (B at two nodes) must vanish everywhere.
	step("PUT", "/docs/a", `{"term": "A(C,C)"}`)
	for _, mode := range []string{"bool", "nodes", "tuples"} {
		eval(fmt.Sprintf(`{"query": "q", "mode": %q}`, mode))
	}

	// Swap b only: a's (re-cached) entries survive, b's don't.
	step("PUT", "/docs/b", `{"term": "A(B,B)"}`)
	eval(`{"query": "q", "mode": "tuples"}`)

	// Remove + re-add under the same name.
	step("DELETE", "/docs/a", "")
	eval(`{"query": "q", "mode": "tuples"}`)
	step("PUT", "/docs/a", `{"term": "A(B)"}`)
	eval(`{"query": "q", "mode": "tuples"}`)
	eval(`{"query": "q", "mode": "nodes"}`)
}

// TestEvalCacheTruncatedNeverCached: a tuples result cut at the answer
// cap is served truncated but never stored — a capped prefix would poison
// future requests with larger caps.
func TestEvalCacheTruncatedNeverCached(t *testing.T) {
	// Per-entry cap so small any multi-tuple relation overflows it.
	s, h := cachedServer(t, Config{CacheBytes: 1 << 20, CacheMaxEntry: 80})

	var resp struct {
		Results []struct {
			Tuples    [][]int64 `json:"tuples"`
			Truncated bool      `json:"truncated"`
		} `json:"results"`
	}
	body := `{"query": "q", "mode": "tuples", "docs": ["a"], "max_answers": 1}`
	rr := do(t, h, "POST", "/eval", body, &resp)
	wantStatus(t, rr, http.StatusOK)
	if len(resp.Results) != 1 || !resp.Results[0].Truncated || len(resp.Results[0].Tuples) != 1 {
		t.Fatalf("capped row: %+v", resp.Results)
	}
	if st := s.cache.Stats(); st.Entries != 0 || st.TooLarge == 0 {
		t.Fatalf("truncated result cached: %+v", st)
	}

	// The uncapped relation also exceeds the per-entry cap: complete,
	// untruncated, still never cached.
	evals := scrapeMetric(t, h, "cqtrees_evals_total")
	full := `{"query": "q", "mode": "tuples", "docs": ["a"]}`
	wantStatus(t, do(t, h, "POST", "/eval", full, nil), http.StatusOK)
	wantStatus(t, do(t, h, "POST", "/eval", full, nil), http.StatusOK)
	if after := scrapeMetric(t, h, "cqtrees_evals_total"); after != evals+2 {
		t.Fatalf("oversized result served from cache: evals_total %v -> %v", evals, after)
	}
	if st := s.cache.Stats(); st.Entries != 0 {
		t.Fatalf("oversized result resident: %+v", st)
	}
}

// TestEvalCachedCapRender: one cached complete relation serves every
// answer cap — larger, smaller, and none — with correct truncation
// marks.
func TestEvalCachedCapRender(t *testing.T) {
	_, h := cachedServer(t, Config{})

	type row struct {
		Tuples    [][]int64 `json:"tuples"`
		Truncated bool      `json:"truncated"`
	}
	var resp struct {
		Results []row `json:"results"`
	}
	evalCap := func(capN int) row {
		t.Helper()
		body := `{"query": "q", "mode": "tuples", "docs": ["a"]}`
		if capN > 0 {
			body = fmt.Sprintf(`{"query": "q", "mode": "tuples", "docs": ["a"], "max_answers": %d}`, capN)
		}
		resp.Results = nil
		wantStatus(t, do(t, h, "POST", "/eval", body, &resp), http.StatusOK)
		if len(resp.Results) != 1 {
			t.Fatalf("rows: %+v", resp.Results)
		}
		return resp.Results[0]
	}

	// Warm with the uncapped request (doc "a" has three B nodes).
	fullRow := evalCap(0)
	if fullRow.Truncated || len(fullRow.Tuples) != 3 {
		t.Fatalf("full row: %+v", fullRow)
	}
	evals := scrapeMetric(t, h, "cqtrees_evals_total")

	capped := evalCap(1)
	if !capped.Truncated || len(capped.Tuples) != 1 {
		t.Fatalf("cap 1 from cache: %+v", capped)
	}
	exact := evalCap(3)
	if exact.Truncated || len(exact.Tuples) != 3 {
		t.Fatalf("cap 3 (exact) from cache: %+v", exact)
	}
	loose := evalCap(10)
	if loose.Truncated || len(loose.Tuples) != 3 {
		t.Fatalf("cap 10 from cache: %+v", loose)
	}
	if after := scrapeMetric(t, h, "cqtrees_evals_total"); after != evals {
		t.Fatalf("re-capped requests ran the engine: %v -> %v", evals, after)
	}
}

// TestMetricsExposition: the endpoint speaks the Prometheus text format
// and carries the core families.
func TestMetricsExposition(t *testing.T) {
	_, h := cachedServer(t, Config{})
	wantStatus(t, do(t, h, "POST", "/eval", `{"query": "q", "mode": "bool"}`, nil), http.StatusOK)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"cqtrees_build_info{go_version=",
		"cqtrees_eval_seconds_bucket{",
		"cqtrees_eval_seconds_count{",
		"cqtrees_evals_total{strategy=",
		"cqtrees_admission_in_flight 0",
		"cqtrees_admission_queue_depth 0",
		"cqtrees_cache_hits_total",
		"cqtrees_cache_bytes",
		"cqtrees_corpus_docs 1",
		"cqtrees_corpus_hydrations_total 0",
		`cqtrees_http_requests_total{route="/eval",method="POST",code="200"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", body)
	}
	if c := scrapeMetric(t, h, "cqtrees_eval_seconds_count"); c == 0 {
		t.Fatal("eval latency histogram empty after an eval")
	}
}

// TestEvalCacheConcurrentSingleflight: concurrent identical cold requests
// collapse onto few engine evaluations and all answer identically.
func TestEvalCacheConcurrentSingleflight(t *testing.T) {
	s, h := cachedServer(t, Config{})

	const n = 8
	body := `{"query": "q", "mode": "tuples", "docs": ["a"]}`
	results := make(chan *httptest.ResponseRecorder, n)
	for i := 0; i < n; i++ {
		go func() { results <- do(t, h, "POST", "/eval", body, nil) }()
	}
	var want string
	for i := 0; i < n; i++ {
		rr := <-results
		wantStatus(t, rr, http.StatusOK)
		if want == "" {
			want = rr.Body.String()
		} else if rr.Body.String() != want {
			t.Fatalf("concurrent responses diverged")
		}
	}
	// Everyone after the leader hit the cache or joined its flight: the
	// relation was computed at most n-1 times fewer than requested (and
	// typically exactly once; the bound tolerates scheduling).
	st := s.cache.Stats()
	if st.Hits+st.Collapsed == 0 {
		t.Fatalf("no sharing among %d identical requests: %+v", n, st)
	}

	// Deterministic epilogue: one more request is a pure hit.
	evals := scrapeMetric(t, h, "cqtrees_evals_total")
	wantStatus(t, do(t, h, "POST", "/eval", body, nil), http.StatusOK)
	if after := scrapeMetric(t, h, "cqtrees_evals_total"); after != evals {
		t.Fatal("post-storm request ran the engine")
	}
}

// TestEvalCacheTimeout: the cached path preserves the 504 contract for
// deadline-cut batches.
func TestEvalCacheTimeout(t *testing.T) {
	s, h := cachedServer(t, Config{})
	s.hook = func(*http.Request) { time.Sleep(30 * time.Millisecond) }
	rr := do(t, h, "POST", "/eval", `{"query": "q", "mode": "tuples", "timeout_ms": 5}`, nil)
	wantStatus(t, rr, http.StatusGatewayTimeout)
	if !strings.Contains(rr.Body.String(), `"timed_out":true`) {
		t.Fatalf("504 body: %s", rr.Body.String())
	}
}
