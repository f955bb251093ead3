package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// The serve-layer view of persistence faults: corrupt snapshots become
// 404s with "reason": "quarantined", transient read failures become 503
// + Retry-After with "reason": "unavailable", and both states surface on
// /healthz, /metrics, and /docs. The faults are staged on the real
// filesystem — corrupting or deleting snapshot files between a persist
// and a cold restart — exactly the damage a production operator sees.

// persistedServer stands up a server on dir, PUTs the named docs through
// the API (persisting each), and returns the handler.
func persistedServer(t *testing.T, cfg Config, docs map[string]string) http.Handler {
	t.Helper()
	h := mustServer(t, cfg).Handler()
	for name, term := range docs {
		rr := do(t, h, "PUT", "/docs/"+name, `{"term": "`+term+`"}`, nil)
		wantStatus(t, rr, http.StatusCreated)
	}
	return h
}

// registerQuery registers a trivially satisfiable query under qname.
func registerQuery(t *testing.T, h http.Handler, qname string) {
	t.Helper()
	rr := do(t, h, "PUT", "/queries/"+qname, `{"query": "Q(x) <- A(x)"}`, nil)
	if rr.Code != http.StatusCreated && rr.Code != http.StatusOK {
		t.Fatalf("register query: %d: %s", rr.Code, rr.Body.String())
	}
}

// corruptSnapshotBody flips one byte near the end of the named document's
// snapshot — past the 48-byte header, so the LoadDir header peek still
// passes and the corruption is only caught by the full-read checksum.
func corruptSnapshotBody(t *testing.T, dir, name string) {
	t.Helper()
	path := filepath.Join(dir, corpus.FileName(name))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if len(data) < 56 {
		t.Fatalf("snapshot %s too small to corrupt past its header: %d bytes", path, len(data))
	}
	data[len(data)-5] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("rewrite %s: %v", path, err)
	}
}

// TestEvalQuarantinedSnapshot: a snapshot corrupted at rest is
// quarantined on first use; the /eval row carries the reason, an
// all-quarantined batch is 404, healthy documents are untouched, and
// /healthz, /metrics, and /docs all report the state. Neither a
// quarantined nor an unknown document counts as an engine evaluation,
// and a request naming only unknown documents is not a cache answer —
// with and without the result cache.
func TestEvalQuarantinedSnapshot(t *testing.T) {
	for _, cacheBytes := range []int64{0, 1 << 20} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			testEvalQuarantinedSnapshot(t, cacheBytes)
		})
	}
}

func testEvalQuarantinedSnapshot(t *testing.T, cacheBytes int64) {
	dir := t.TempDir()
	persistedServer(t, Config{DataDir: dir}, map[string]string{
		"good": "A(B,C)", "bad": "A(B,C(D))",
	})
	corruptSnapshotBody(t, dir, "bad")

	// Cold restart: both documents register as stubs from their (healthy)
	// headers; the corruption only surfaces when "bad" hydrates.
	h := mustServer(t, Config{DataDir: dir, CacheBytes: cacheBytes}).Handler()
	registerQuery(t, h, "q")
	evals := func() float64 {
		n, _ := scrapeSeries(t, h, "cqtrees_evals_total", "")
		return n
	}

	// Mixed batch: the healthy document answers, the corrupt one is an
	// error row with the quarantined reason — and the batch stays 200.
	var resp evalResponse
	before := evals()
	rr := do(t, h, "POST", "/eval", `{"query": "q", "mode": "bool", "docs": ["good", "bad"]}`, &resp)
	wantStatus(t, rr, http.StatusOK)
	if resp.Docs != 2 || resp.Errors != 1 {
		t.Fatalf("mixed batch: %+v", resp)
	}
	if got := evals(); got != before+1 {
		t.Fatalf("mixed batch: evals_total %v -> %v, want +1 (the quarantined row never reached the engine)", before, got)
	}
	for _, row := range resp.Results {
		switch row.Doc {
		case "good":
			if row.Error != "" || row.Sat == nil || !*row.Sat {
				t.Fatalf("healthy row damaged by neighbor's quarantine: %+v", row)
			}
		case "bad":
			if row.Reason != "quarantined" || row.Error == "" {
				t.Fatalf("quarantined row: %+v", row)
			}
		}
	}

	// An all-quarantined batch escalates to 404: nothing the client named
	// can ever be served by retrying.
	resp = evalResponse{}
	rr = do(t, h, "POST", "/eval", `{"query": "q", "mode": "bool", "docs": ["bad"]}`, &resp)
	wantStatus(t, rr, http.StatusNotFound)
	if resp.Results[0].Reason != "quarantined" {
		t.Fatalf("all-quarantined batch row: %+v", resp.Results[0])
	}

	// An unknown document is an error row that reaches neither the engine
	// nor the cache: the request is observed as "ok", never "cached".
	before = evals()
	okBefore, _ := scrapeSeries(t, h, "cqtrees_eval_seconds_count", `outcome="ok"`)
	resp = evalResponse{}
	rr = do(t, h, "POST", "/eval", `{"query": "q", "mode": "bool", "docs": ["ghost"]}`, &resp)
	wantStatus(t, rr, http.StatusOK)
	if resp.Docs != 1 || resp.Errors != 1 || resp.Results[0].Reason != "" {
		t.Fatalf("unknown-document batch: %+v", resp)
	}
	if got := evals(); got != before {
		t.Fatalf("quarantined and unknown rows counted as evaluations: evals_total %v -> %v", before, got)
	}
	if cached, _ := scrapeSeries(t, h, "cqtrees_eval_seconds_count", `outcome="cached"`); cached != 0 {
		t.Fatalf("unknown-document request observed as cached (%v)", cached)
	}
	if okAfter, _ := scrapeSeries(t, h, "cqtrees_eval_seconds_count", `outcome="ok"`); okAfter != okBefore+1 {
		t.Fatalf("unknown-document request: outcome ok %v -> %v, want +1", okBefore, okAfter)
	}

	// The file was set aside exactly once, under its quarantine name.
	qpath := filepath.Join(dir, corpus.FileName("bad")+corpus.QuarantineExt)
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, corpus.FileName("bad"))); !os.IsNotExist(err) {
		t.Fatalf("original corrupt file still present: %v", err)
	}

	// /metrics: the quarantine counter reads exactly 1 and the quarantined
	// gauge shows the one unservable document.
	metricsRR := do(t, h, "GET", "/metrics", "", nil)
	wantStatus(t, metricsRR, http.StatusOK)
	body := metricsRR.Body.String()
	for _, want := range []string{
		"cqtrees_corpus_quarantines_total 1",
		"cqtrees_corpus_quarantined_docs 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /healthz: the persistence block carries the same accounting.
	var health struct {
		Persistence struct {
			Quarantined     int   `json:"quarantined"`
			Quarantines     int64 `json:"quarantines"`
			HydrationErrors int64 `json:"hydration_errors"`
		} `json:"persistence"`
	}
	wantStatus(t, do(t, h, "GET", "/healthz", "", &health), http.StatusOK)
	if health.Persistence.Quarantined != 1 || health.Persistence.Quarantines != 1 ||
		health.Persistence.HydrationErrors != 1 {
		t.Fatalf("healthz persistence: %+v", health.Persistence)
	}

	// /docs/{name}: the per-document view names the fault.
	var info docInfo
	wantStatus(t, do(t, h, "GET", "/docs/bad", "", &info), http.StatusOK)
	if !info.Quarantined || info.LastError == "" {
		t.Fatalf("doc info: %+v", info)
	}

	// Re-PUT heals: a fresh document replaces the quarantined entry and
	// persists cleanly over the quarantine. (201, not 200: the quarantined
	// stub never had a resident document for Swap to return as "replaced".)
	wantStatus(t, do(t, h, "PUT", "/docs/bad", `{"term": "A(B)"}`, nil), http.StatusCreated)
	resp = evalResponse{}
	rr = do(t, h, "POST", "/eval", `{"query": "q", "mode": "bool", "docs": ["bad"]}`, &resp)
	wantStatus(t, rr, http.StatusOK)
	if resp.Errors != 0 {
		t.Fatalf("healed doc still failing: %+v", resp)
	}
}

// TestEvalTransientUnavailable: a snapshot that cannot be read for
// transient reasons (here: file deleted out from under a stub) makes an
// all-failed batch 503 + Retry-After with "reason": "unavailable", does
// NOT quarantine anything, and fails fast from tracked backoff state.
// Runs through the cached eval path — CacheBytes on — so the cache front
// door propagates hydration classification too.
func TestEvalTransientUnavailable(t *testing.T) {
	dir := t.TempDir()
	persistedServer(t, Config{DataDir: dir}, map[string]string{"doc": "A(B,C)"})

	h := mustServer(t, Config{DataDir: dir, CacheBytes: 1 << 20}).Handler()
	registerQuery(t, h, "q")
	if err := os.Remove(filepath.Join(dir, corpus.FileName("doc"))); err != nil {
		t.Fatal(err)
	}

	var resp evalResponse
	rr := do(t, h, "POST", "/eval", `{"query": "q", "mode": "bool", "docs": ["doc"]}`, &resp)
	wantStatus(t, rr, http.StatusServiceUnavailable)
	if resp.Results[0].Reason != "unavailable" || resp.Results[0].Error == "" {
		t.Fatalf("transient row: %+v", resp.Results[0])
	}
	if ra, err := strconv.Atoi(rr.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q", rr.Header().Get("Retry-After"))
	}

	// Transient failures never quarantine; the entry sits in retry backoff.
	var health struct {
		Persistence struct {
			Failed      int   `json:"failed"`
			Quarantines int64 `json:"quarantines"`
		} `json:"persistence"`
	}
	wantStatus(t, do(t, h, "GET", "/healthz", "", &health), http.StatusOK)
	if health.Persistence.Failed != 1 || health.Persistence.Quarantines != 0 {
		t.Fatalf("healthz persistence: %+v", health.Persistence)
	}
	var info docInfo
	wantStatus(t, do(t, h, "GET", "/docs/doc", "", &info), http.StatusOK)
	if !info.Failing || info.Quarantined {
		t.Fatalf("doc info: %+v", info)
	}

	// Fail-fast: the second request answers from tracked state (still 503)
	// without the corpus re-reading the missing file per request.
	before := mustServerCorpusHydrationErrors(t, h)
	rr = do(t, h, "POST", "/eval", `{"query": "q", "mode": "bool", "docs": ["doc"]}`, nil)
	wantStatus(t, rr, http.StatusServiceUnavailable)
	if after := mustServerCorpusHydrationErrors(t, h); after != before {
		t.Fatalf("backoff not honored: hydration errors %s -> %s", before, after)
	}
}

// mustServerCorpusHydrationErrors scrapes the hydration error counter off
// /metrics — the same signal an operator's dashboard reads.
func mustServerCorpusHydrationErrors(t *testing.T, h http.Handler) string {
	t.Helper()
	rr := do(t, h, "GET", "/metrics", "", nil)
	wantStatus(t, rr, http.StatusOK)
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		if strings.HasPrefix(line, "cqtrees_corpus_hydration_errors_total ") {
			return line
		}
	}
	t.Fatalf("cqtrees_corpus_hydration_errors_total not exposed")
	return ""
}

// TestEvalNDJSONHydrationReason: the streaming path emits hydration
// failures as error rows with the same reason classification — even for
// an implicit (whole-fleet) request, where unknown-name skips would
// otherwise hide them.
func TestEvalNDJSONHydrationReason(t *testing.T) {
	dir := t.TempDir()
	persistedServer(t, Config{DataDir: dir}, map[string]string{
		"good": "A(B)", "bad": "A(B,C)",
	})
	corruptSnapshotBody(t, dir, "bad")
	h := mustServer(t, Config{DataDir: dir}).Handler()
	registerQuery(t, h, "q")

	req := httptest.NewRequest("POST", "/eval", strings.NewReader(`{"query": "q", "mode": "bool"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	wantStatus(t, rr, http.StatusOK)

	sawBad := false
	for _, line := range strings.Split(strings.TrimSpace(rr.Body.String()), "\n") {
		if strings.Contains(line, `"doc":"bad"`) {
			sawBad = true
			if !strings.Contains(line, `"reason":"quarantined"`) {
				t.Fatalf("bad row without reason: %s", line)
			}
		}
	}
	if !sawBad {
		t.Fatalf("implicit-fleet stream hid the hydration failure:\n%s", rr.Body.String())
	}
}

// TestStartupQuarantinesBadHeader: a snapshot whose header is garbage is
// quarantined during the startup scan — New still succeeds, the healthy
// fleet serves, and the load report surfaces on /healthz.
func TestStartupQuarantinesBadHeader(t *testing.T) {
	dir := t.TempDir()
	persistedServer(t, Config{DataDir: dir}, map[string]string{"good": "A(B)"})
	junk := filepath.Join(dir, corpus.FileName("junk"))
	if err := os.WriteFile(junk, []byte("JUNKJUNKJUNKJUNK"), 0o644); err != nil {
		t.Fatal(err)
	}

	h := mustServer(t, Config{DataDir: dir}).Handler()
	var health struct {
		Docs        int `json:"docs"`
		Persistence struct {
			LoadQuarantined int `json:"load_quarantined"`
		} `json:"persistence"`
	}
	wantStatus(t, do(t, h, "GET", "/healthz", "", &health), http.StatusOK)
	if health.Docs != 1 || health.Persistence.LoadQuarantined != 1 {
		t.Fatalf("healthz after bad-header startup: %+v", health)
	}
	if _, err := os.Stat(junk + corpus.QuarantineExt); err != nil {
		t.Fatalf("junk file not quarantined: %v", err)
	}
}
