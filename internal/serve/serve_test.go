package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/consistency"
)

// testServer returns a handler over a fresh in-memory engine.
func testServer(t *testing.T) http.Handler {
	t.Helper()
	return mustServer(t, Config{}).Handler()
}

// mustServer builds a server, failing the test on config errors.
func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// do runs one request and decodes the JSON response into out (skipped
// when out is nil or the body is empty).
func do(t *testing.T, h http.Handler, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if out != nil && rr.Body.Len() > 0 {
		if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON response %q: %v", method, path, rr.Body.String(), err)
		}
	}
	return rr
}

func wantStatus(t *testing.T, rr *httptest.ResponseRecorder, want int) {
	t.Helper()
	if rr.Code != want {
		t.Fatalf("status = %d, want %d; body: %s", rr.Code, want, rr.Body.String())
	}
}

// TestDocumentLifecycle: PUT (term and XML, create and replace), GET,
// list, DELETE, and the error tiers around them.
func TestDocumentLifecycle(t *testing.T) {
	h := testServer(t)

	var info struct {
		Name  string `json:"name"`
		Nodes int    `json:"nodes"`
		Bytes int64  `json:"bytes"`
	}
	rr := do(t, h, "PUT", "/docs/alpha", `{"term": "A(B,C(B))"}`, &info)
	wantStatus(t, rr, http.StatusCreated)
	if info.Name != "alpha" || info.Nodes != 4 || info.Bytes <= 0 {
		t.Fatalf("create: %+v", info)
	}

	// PUT is replace-or-create: same name again is 200.
	rr = do(t, h, "PUT", "/docs/alpha", `{"term": "A(B)"}`, &info)
	wantStatus(t, rr, http.StatusOK)
	if info.Nodes != 2 {
		t.Fatalf("replace: %+v", info)
	}

	rr = do(t, h, "PUT", "/docs/xml", `{"xml": "<a><b/><c><b/></c></a>"}`, &info)
	wantStatus(t, rr, http.StatusCreated)
	if info.Nodes != 4 {
		t.Fatalf("xml: %+v", info)
	}

	// Error tier: malformed body, parse failure, both / neither format.
	wantStatus(t, do(t, h, "PUT", "/docs/bad", `{not json`, nil), http.StatusBadRequest)
	wantStatus(t, do(t, h, "PUT", "/docs/bad", `{"term": "A(unclosed"}`, nil), http.StatusBadRequest)
	wantStatus(t, do(t, h, "PUT", "/docs/bad", `{"term": "A", "xml": "<a/>"}`, nil), http.StatusBadRequest)
	wantStatus(t, do(t, h, "PUT", "/docs/bad", `{}`, nil), http.StatusBadRequest)
	wantStatus(t, do(t, h, "PUT", "/docs/bad", `{"nope": 1}`, nil), http.StatusBadRequest)

	var list struct {
		Docs  []json.RawMessage `json:"docs"`
		Bytes int64             `json:"bytes"`
	}
	rr = do(t, h, "GET", "/docs", "", &list)
	wantStatus(t, rr, http.StatusOK)
	if len(list.Docs) != 2 || list.Bytes <= 0 {
		t.Fatalf("list: %d docs, %d bytes", len(list.Docs), list.Bytes)
	}

	wantStatus(t, do(t, h, "GET", "/docs/alpha", "", nil), http.StatusOK)
	wantStatus(t, do(t, h, "GET", "/docs/ghost", "", nil), http.StatusNotFound)
	wantStatus(t, do(t, h, "DELETE", "/docs/alpha", "", nil), http.StatusNoContent)
	wantStatus(t, do(t, h, "DELETE", "/docs/alpha", "", nil), http.StatusNotFound)
}

// TestQueryLifecycle: registration compiles once and reports the plan;
// bad sources are 400; unknown names 404.
func TestQueryLifecycle(t *testing.T) {
	h := testServer(t)

	var info struct {
		Name  string `json:"name"`
		Arity int    `json:"arity"`
		Plan  string `json:"plan"`
	}
	rr := do(t, h, "PUT", "/queries/descB", `{"query": "Q(y) <- A(x), Child+(x, y), B(y)"}`, &info)
	wantStatus(t, rr, http.StatusCreated)
	if info.Arity != 1 || info.Plan == "" {
		t.Fatalf("register: %+v", info)
	}
	// Replacement is 200.
	wantStatus(t, do(t, h, "PUT", "/queries/descB", `{"query": "Q() <- A(x)"}`, nil), http.StatusOK)

	wantStatus(t, do(t, h, "PUT", "/queries/bad", `{"query": "not a query"}`, nil), http.StatusBadRequest)
	wantStatus(t, do(t, h, "PUT", "/queries/bad", `{}`, nil), http.StatusBadRequest)

	var list struct {
		Queries []json.RawMessage `json:"queries"`
	}
	rr = do(t, h, "GET", "/queries", "", &list)
	wantStatus(t, rr, http.StatusOK)
	if len(list.Queries) != 1 {
		t.Fatalf("list: %d queries", len(list.Queries))
	}
	wantStatus(t, do(t, h, "GET", "/queries/descB", "", nil), http.StatusOK)
	wantStatus(t, do(t, h, "GET", "/queries/ghost", "", nil), http.StatusNotFound)
	wantStatus(t, do(t, h, "DELETE", "/queries/descB", "", nil), http.StatusNoContent)
	wantStatus(t, do(t, h, "DELETE", "/queries/descB", "", nil), http.StatusNotFound)
}

// evalResp mirrors evalResponse for decoding.
type evalResp struct {
	Mode    string `json:"mode"`
	Plan    string `json:"plan"`
	Docs    int    `json:"docs"`
	Errors  int    `json:"errors"`
	Results []struct {
		Doc       string    `json:"doc"`
		Sat       *bool     `json:"sat"`
		Nodes     []int32   `json:"nodes"`
		Tuples    [][]int32 `json:"tuples"`
		Truncated bool      `json:"truncated"`
		Error     string    `json:"error"`
	} `json:"results"`
	Truncated int  `json:"truncated"`
	TimedOut  bool `json:"timed_out"`
}

// loadFleet registers three documents and one monadic query.
func loadFleet(t *testing.T, h http.Handler) {
	t.Helper()
	for name, term := range map[string]string{
		"two":  "A(B,C(B))", // two B-descendants of A
		"one":  "A(C(B))",   // one
		"zero": "A(C,C)",    // none
	} {
		wantStatus(t, do(t, h, "PUT", "/docs/"+name, fmt.Sprintf(`{"term": %q}`, term), nil), http.StatusCreated)
	}
	wantStatus(t, do(t, h, "PUT", "/queries/descB",
		`{"query": "Q(y) <- A(x), Child+(x, y), B(y)"}`, nil), http.StatusCreated)
}

// TestEvalModes: bool, nodes and tuples round-trips over a registered
// query and an ad-hoc source, with per-document results sorted by name.
func TestEvalModes(t *testing.T) {
	h := testServer(t)
	loadFleet(t, h)

	var resp evalResp
	rr := do(t, h, "POST", "/eval", `{"query": "descB", "mode": "nodes"}`, &resp)
	wantStatus(t, rr, http.StatusOK)
	if resp.Docs != 3 || resp.Errors != 0 || resp.Plan == "" {
		t.Fatalf("nodes: %+v", resp)
	}
	counts := map[string]int{}
	for _, r := range resp.Results {
		counts[r.Doc] = len(r.Nodes)
	}
	if counts["two"] != 2 || counts["one"] != 1 || counts["zero"] != 0 {
		t.Fatalf("nodes counts = %v", counts)
	}
	// Results arrive sorted by document name.
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i-1].Doc > resp.Results[i].Doc {
			t.Fatalf("results unsorted: %+v", resp.Results)
		}
	}

	resp = evalResp{}
	rr = do(t, h, "POST", "/eval", `{"query": "descB", "mode": "bool", "workers": 4}`, &resp)
	wantStatus(t, rr, http.StatusOK)
	for _, r := range resp.Results {
		want := r.Doc != "zero"
		if r.Sat == nil || *r.Sat != want {
			t.Fatalf("bool %s: %+v", r.Doc, r)
		}
	}

	// Ad-hoc source, tuples mode (the default), restricted doc list.
	resp = evalResp{}
	rr = do(t, h, "POST", "/eval",
		`{"source": "Q(x, y) <- A(x), Child+(x, y), B(y)", "docs": ["two"]}`, &resp)
	wantStatus(t, rr, http.StatusOK)
	if resp.Mode != "tuples" || resp.Docs != 1 || len(resp.Results[0].Tuples) != 2 {
		t.Fatalf("tuples: %+v", resp)
	}
	for _, tup := range resp.Results[0].Tuples {
		if len(tup) != 2 {
			t.Fatalf("tuple arity: %+v", resp.Results[0].Tuples)
		}
	}
}

// TestEvalErrorTiers: 400 for malformed requests and sources, 404 for
// unknown query names, 422 for mode nodes on non-monadic queries, and
// per-document error rows for unknown docs in the batch list.
func TestEvalErrorTiers(t *testing.T) {
	h := testServer(t)
	loadFleet(t, h)

	wantStatus(t, do(t, h, "POST", "/eval", `{not json`, nil), http.StatusBadRequest)
	wantStatus(t, do(t, h, "POST", "/eval", `{"mode": "bool"}`, nil), http.StatusBadRequest)
	wantStatus(t, do(t, h, "POST", "/eval",
		`{"query": "descB", "source": "Q() <- A(x)"}`, nil), http.StatusBadRequest)
	wantStatus(t, do(t, h, "POST", "/eval",
		`{"source": "syntax error"}`, nil), http.StatusBadRequest)
	wantStatus(t, do(t, h, "POST", "/eval",
		`{"query": "descB", "mode": "teleport"}`, nil), http.StatusBadRequest)
	wantStatus(t, do(t, h, "POST", "/eval", `{"query": "ghost"}`, nil), http.StatusNotFound)
	wantStatus(t, do(t, h, "POST", "/eval",
		`{"source": "Q(x, y) <- A(x), Child+(x, y), B(y)", "mode": "nodes"}`, nil),
		http.StatusUnprocessableEntity)

	// Unknown documents inside the batch are per-row errors, not request
	// failures: the known documents still evaluate.
	var resp evalResp
	rr := do(t, h, "POST", "/eval",
		`{"query": "descB", "mode": "bool", "docs": ["two", "ghost"]}`, &resp)
	wantStatus(t, rr, http.StatusOK)
	if resp.Docs != 2 || resp.Errors != 1 {
		t.Fatalf("mixed batch: %+v", resp)
	}
	for _, r := range resp.Results {
		if r.Doc == "ghost" && r.Error == "" {
			t.Fatalf("ghost row has no error: %+v", r)
		}
		if r.Doc == "two" && (r.Error != "" || r.Sat == nil || !*r.Sat) {
			t.Fatalf("two row: %+v", r)
		}
	}
}

// TestEvalTimeout: a batch cut short by timeout_ms comes back as 504 with
// timed_out set and per-document cancellation errors on the rows that
// were in flight.
func TestEvalTimeout(t *testing.T) {
	h := testServer(t)
	// A deep tree plus an expensive backtracking query; timeout_ms: 1
	// expires long before the fleet completes.
	deep := "B"
	for i := 0; i < 400; i++ {
		deep = "B(" + deep + ")"
	}
	for i := 0; i < 4; i++ {
		wantStatus(t, do(t, h, "PUT", fmt.Sprintf("/docs/d%d", i),
			fmt.Sprintf(`{"term": "A(%s)"}`, deep), nil), http.StatusCreated)
	}
	var resp evalResp
	rr := do(t, h, "POST", "/eval",
		`{"source": "Q(x, y) <- B(x), Child+(x, y), B(y)", "timeout_ms": 1, "workers": 1}`, &resp)
	wantStatus(t, rr, http.StatusGatewayTimeout)
	if !resp.TimedOut {
		t.Fatalf("timed_out not set: %+v", resp)
	}
}

// TestEvalTimeoutCap: the operator's -eval-timeout is a hard cap — a
// client timeout_ms cannot extend it.
func TestEvalTimeoutCap(t *testing.T) {
	s := mustServer(t, Config{EvalTimeout: time.Millisecond})
	h := s.Handler()
	deep := "B"
	for i := 0; i < 400; i++ {
		deep = "B(" + deep + ")"
	}
	for i := 0; i < 4; i++ {
		wantStatus(t, do(t, h, "PUT", fmt.Sprintf("/docs/d%d", i),
			fmt.Sprintf(`{"term": "A(%s)"}`, deep), nil), http.StatusCreated)
	}
	var resp evalResp
	rr := do(t, h, "POST", "/eval",
		`{"source": "Q(x, y) <- B(x), Child+(x, y), B(y)", "timeout_ms": 600000, "workers": 1}`, &resp)
	wantStatus(t, rr, http.StatusGatewayTimeout)
	if !resp.TimedOut {
		t.Fatalf("server cap did not bound the batch: %+v", resp)
	}
}

// TestBodyTooLarge: oversized bodies are 413 (shrink the payload), a
// distinct tier from 400 (fix the payload) — term and XML documents
// alike, cut off at the limit by the middleware instead of being read
// fully into memory, with the structured {"error": ...} body.
func TestBodyTooLarge(t *testing.T) {
	s := mustServer(t, Config{MaxBody: 64})
	h := s.Handler()
	big := strings.Repeat("B,", 200)
	wantStatus(t, do(t, h, "PUT", "/docs/big", `{"term": "A(`+big+`B)"}`, nil),
		http.StatusRequestEntityTooLarge)

	var apiErr struct {
		Error string `json:"error"`
	}
	bigXML := `{"xml": "<a>` + strings.Repeat("<b/>", 200) + `</a>"}`
	rr := do(t, h, "PUT", "/docs/bigxml", bigXML, &apiErr)
	wantStatus(t, rr, http.StatusRequestEntityTooLarge)
	if !strings.Contains(apiErr.Error, "exceeds 64 bytes") {
		t.Fatalf("413 body not structured: %q", rr.Body.String())
	}

	// /eval bodies are bounded by the same middleware.
	wantStatus(t, do(t, h, "POST", "/eval",
		`{"source": "Q() <- A(x)", "docs": [`+strings.Repeat(`"d",`, 100)+`"d"]}`, nil),
		http.StatusRequestEntityTooLarge)
}

// TestHealth reports corpus, registry and admission counts.
func TestHealth(t *testing.T) {
	s := mustServer(t, Config{})
	h := s.Handler()
	loadFleet(t, h)
	var health struct {
		Status   string `json:"status"`
		Docs     int    `json:"docs"`
		Queries  int    `json:"queries"`
		Bytes    int64  `json:"bytes"`
		InFlight int    `json:"in_flight"`
		Queued   int    `json:"queued"`
	}
	rr := do(t, h, "GET", "/healthz", "", &health)
	wantStatus(t, rr, http.StatusOK)
	if health.Status != "ok" || health.Docs != 3 || health.Queries != 1 || health.Bytes <= 0 {
		t.Fatalf("health: %+v", health)
	}
	if health.InFlight != 0 || health.Queued != 0 {
		t.Fatalf("idle admission stats: %+v", health)
	}

	// Draining replicas fail readiness.
	s.BeginShutdown()
	rr = do(t, h, "GET", "/healthz", "", &health)
	wantStatus(t, rr, http.StatusServiceUnavailable)
	if health.Status != "draining" {
		t.Fatalf("draining health: %+v", health)
	}
}

// TestCorpusBudgetEndToEnd: a server with a corpus byte budget evicts
// LRU documents as new ones load, visible through the docs listing.
func TestCorpusBudgetEndToEnd(t *testing.T) {
	probe := mustServer(t, Config{})
	ph := probe.Handler()
	wantStatus(t, do(t, ph, "PUT", "/docs/probe", `{"term": "A(B,C(B))"}`, nil), http.StatusCreated)
	unit := probe.corpus.Bytes()

	s := mustServer(t, Config{MaxCorpusBytes: 2*unit + unit/2})
	h := s.Handler()
	for _, name := range []string{"a", "b", "c"} {
		wantStatus(t, do(t, h, "PUT", "/docs/"+name, `{"term": "A(B,C(B))"}`, nil), http.StatusCreated)
	}
	if got := s.corpus.Len(); got != 2 {
		t.Fatalf("after budgeted loads: %d docs, want 2 (LRU evicted)", got)
	}
	wantStatus(t, do(t, h, "GET", "/docs/a", "", nil), http.StatusNotFound)
}

// TestDataDirRestart: with DataDir, PUT documents survive a server
// restart — the new server recovers the corpus from the snapshot
// directory and serves identical query results without re-parsing any XML
// or rebuilding any index (IndexBuildCount delta is zero across recovery
// and evaluation; documents hydrate from their snapshots).
func TestDataDirRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := mustServer(t, Config{DataDir: dir})
	h1 := s1.Handler()
	wantStatus(t, do(t, h1, "PUT", "/docs/xml", `{"xml": "<a><b/><c><b/></c></a>"}`, nil), http.StatusCreated)
	wantStatus(t, do(t, h1, "PUT", "/docs/term", `{"term": "A(B,C(B,A(B)))"}`, nil), http.StatusCreated)
	wantStatus(t, do(t, h1, "PUT", "/queries/q", `{"query": "Q(y) <- Child+(x, y), b(y)"}`, nil), http.StatusCreated)

	var before struct {
		Results []evalResult `json:"results"`
	}
	wantStatus(t, do(t, h1, "POST", "/eval", `{"source": "Q(y) <- Child+(x, y)", "mode": "nodes"}`, &before), http.StatusOK)
	if len(before.Results) != 2 {
		t.Fatalf("before restart: %d rows", len(before.Results))
	}

	// "Restart": a fresh server over the same directory. Queries are not
	// persisted (they compile in microseconds); documents must be.
	builds := consistency.IndexBuildCount()
	s2 := mustServer(t, Config{DataDir: dir})
	h2 := s2.Handler()

	// Recovery registers dehydrated entries: listed, node counts known,
	// zero resident bytes, nothing parsed yet.
	var list struct {
		Docs []docInfo `json:"docs"`
	}
	wantStatus(t, do(t, h2, "GET", "/docs", "", &list), http.StatusOK)
	if len(list.Docs) != 2 {
		t.Fatalf("after restart: %d docs listed", len(list.Docs))
	}
	for _, d := range list.Docs {
		if d.Hydrated || d.Bytes != 0 || d.Nodes <= 0 {
			t.Fatalf("after restart: %+v, want dehydrated with known nodes", d)
		}
	}

	var after struct {
		Results []evalResult `json:"results"`
	}
	wantStatus(t, do(t, h2, "POST", "/eval", `{"source": "Q(y) <- Child+(x, y)", "mode": "nodes"}`, &after), http.StatusOK)
	if !reflect.DeepEqual(after.Results, before.Results) {
		t.Fatalf("results differ across restart:\nbefore %+v\nafter  %+v", before.Results, after.Results)
	}
	if d := consistency.IndexBuildCount() - builds; d != 0 {
		t.Fatalf("restart recovery performed %d index builds, want 0 (snapshot loads only)", d)
	}

	// DELETE removes the snapshot too: a third server no longer sees it.
	wantStatus(t, do(t, h2, "DELETE", "/docs/xml", "", nil), http.StatusNoContent)
	s3 := mustServer(t, Config{DataDir: dir})
	wantStatus(t, do(t, s3.Handler(), "GET", "/docs/xml", "", nil), http.StatusNotFound)
	wantStatus(t, do(t, s3.Handler(), "GET", "/docs/term", "", nil), http.StatusOK)
}

// TestEvalWorkersClamp: a request's workers defaults to GOMAXPROCS and
// never exceeds it, so one admitted request cannot fan out past the cores.
func TestEvalWorkersClamp(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ req, want int }{
		{-3, n}, {0, n}, {1, 1}, {n, n}, {n + 1, n}, {1 << 30, n},
	} {
		if got := evalWorkers(c.req); got != c.want {
			t.Errorf("evalWorkers(%d) = %d, want %d (GOMAXPROCS %d)", c.req, got, c.want, n)
		}
	}
}
