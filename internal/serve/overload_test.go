package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	cqtrees "repro"
)

// post issues one real POST /eval over the network with optional headers.
func post(t *testing.T, client *http.Client, url, body string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/eval", strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("POST /eval: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// TestServerOverload saturates the admission gate with slow evaluations
// and checks the full overload contract: excess load is shed as 429 with
// Retry-After (never 5xx), queued requests complete in admission order,
// draining answers 503, and no goroutines leak after shutdown.
func TestServerOverload(t *testing.T) {
	s := mustServer(t, Config{MaxInFlight: 2, MaxQueue: 2, QueueWait: 30 * time.Second})
	h := s.Handler()
	loadFleet(t, h)

	// The hook runs at the start of every admitted evaluation: record the
	// admission order and block until the test releases a step token, so
	// the test controls exactly how long each eval "computes".
	var mu sync.Mutex
	var admitted []string
	step := make(chan struct{})
	s.hook = func(r *http.Request) {
		mu.Lock()
		admitted = append(admitted, r.Header.Get("X-Req"))
		mu.Unlock()
		<-step
	}

	before := runtime.NumGoroutine()
	ts := httptest.NewServer(h)
	client := ts.Client()
	body := `{"query": "descB", "mode": "bool"}`

	type outcome struct {
		id     string
		status int
		retry  string
	}
	results := make(chan outcome, 16)
	launch := func(id string) {
		go func() {
			resp, _ := post(t, client, ts.URL, body, map[string]string{"X-Req": id})
			results <- outcome{id: id, status: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
		}()
	}

	// Two requests take the in-flight slots and block inside the hook.
	launch("A")
	launch("B")
	waitFor(t, "slots to fill", func() bool { return s.InFlight() == 2 })

	// Two more queue, in a known order (each observably queued before the
	// next launches).
	launch("C")
	waitFor(t, "C to queue", func() bool { return s.Queued() == 1 })
	launch("D")
	waitFor(t, "D to queue", func() bool { return s.Queued() == 2 })

	// 4x max-in-flight: everything beyond slots+queue sheds as 429 with
	// Retry-After — no 5xx, no unbounded waiting.
	for i := 0; i < 4; i++ {
		launch(fmt.Sprintf("shed%d", i))
	}
	sheds := 0
	for sheds < 4 {
		o := <-results
		if !strings.HasPrefix(o.id, "shed") {
			t.Fatalf("admitted request %q finished while its eval was blocked", o.id)
		}
		if o.status != http.StatusTooManyRequests {
			t.Fatalf("shed request %q: status %d, want 429", o.id, o.status)
		}
		if o.retry == "" {
			t.Fatalf("shed request %q: no Retry-After", o.id)
		}
		sheds++
	}

	// Release the admitted evals one at a time, waiting for each freed
	// slot's handoff to reach the hook before the next token: FIFO handoff
	// then admits C third and D fourth, whatever order A and B (and C)
	// pick up their tokens in.
	admissions := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(admitted)
	}
	step <- struct{}{}
	waitFor(t, "C to be admitted", func() bool { return admissions() == 3 })
	step <- struct{}{}
	waitFor(t, "D to be admitted", func() bool { return admissions() == 4 })
	step <- struct{}{}
	step <- struct{}{}
	got := map[string]outcome{}
	for i := 0; i < 4; i++ {
		o := <-results
		got[o.id] = o
	}
	for _, id := range []string{"A", "B", "C", "D"} {
		if got[id].status != http.StatusOK {
			t.Fatalf("admitted request %q: status %d, want 200", id, got[id].status)
		}
	}
	mu.Lock()
	order := append([]string(nil), admitted...)
	mu.Unlock()
	if len(order) != 4 || order[2] != "C" || order[3] != "D" {
		t.Fatalf("queued requests admitted out of FIFO order: %v", order)
	}

	// Draining: new evaluations answer 503 + Retry-After; metadata
	// endpoints keep working (they are not gated).
	s.BeginShutdown()
	resp, _ := post(t, client, ts.URL, body, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining eval: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	listReq, _ := http.NewRequest("GET", ts.URL+"/docs", nil)
	listResp, err := client.Do(listReq)
	if err != nil {
		t.Fatalf("GET /docs while draining: %v", err)
	}
	listResp.Body.Close()
	if listResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /docs while draining: %d, want 200 (metadata is not gated)", listResp.StatusCode)
	}

	// Shutdown leaves no goroutines behind: the idle pool drains back to
	// the pre-server count (with slack for runtime/test goroutines).
	ts.Close()
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+3
	})
}

// TestQueueWaitDeadline: a request whose deadline expires while queued is
// shed as 429 — it never evaluates, because it has no budget left.
func TestQueueWaitDeadline(t *testing.T) {
	s := mustServer(t, Config{MaxInFlight: 1, MaxQueue: 4, QueueWait: 30 * time.Second})
	h := s.Handler()
	loadFleet(t, h)

	block := make(chan struct{})
	s.hook = func(*http.Request) { <-block }
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := ts.Client()

	done := make(chan struct{})
	go func() {
		defer close(done)
		post(t, client, ts.URL, `{"query": "descB", "mode": "bool"}`, nil)
	}()
	waitFor(t, "slot to fill", func() bool { return s.InFlight() == 1 })

	resp, _ := post(t, client, ts.URL, `{"query": "descB", "mode": "bool", "timeout_ms": 30}`, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued-past-deadline request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queued-past-deadline request: no Retry-After")
	}
	close(block)
	<-done
}

// TestPanicRecovery: a panicking evaluation becomes a structured 500, its
// admission slot is released, and sibling requests are untouched.
func TestPanicRecovery(t *testing.T) {
	s := mustServer(t, Config{MaxInFlight: 1})
	h := s.Handler()
	loadFleet(t, h)

	s.hook = func(r *http.Request) {
		if r.Header.Get("X-Boom") != "" {
			panic("evaluator exploded")
		}
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := ts.Client()
	body := `{"query": "descB", "mode": "bool"}`

	resp, raw := post(t, client, ts.URL, body, map[string]string{"X-Boom": "1"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking eval: %d, want 500", resp.StatusCode)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &apiErr); err != nil || apiErr.Error == "" {
		t.Fatalf("500 body not structured: %q", raw)
	}

	// The slot was released (MaxInFlight is 1: a leak would wedge this)
	// and siblings are unaffected.
	resp, _ = post(t, client, ts.URL, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: %d, want 200", resp.StatusCode)
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in-flight after panic: %d, want 0 (slot leaked)", got)
	}
}

// ndLine is a decoded NDJSON row line.
type ndLine struct {
	Doc       string  `json:"doc"`
	Sat       *bool   `json:"sat"`
	Nodes     []int32 `json:"nodes"`
	Tuple     []int32 `json:"tuple"`
	Done      bool    `json:"done"`
	Count     *int    `json:"count"`
	Truncated bool    `json:"truncated"`
	Error     string  `json:"error"`
}

// ndSum is the decoded final summary line.
type ndSum struct {
	Summary   bool   `json:"summary"`
	Mode      string `json:"mode"`
	Docs      int    `json:"docs"`
	Errors    int    `json:"errors"`
	Truncated int    `json:"truncated"`
	TimedOut  bool   `json:"timed_out"`
}

// ndjsonEval runs POST /eval with the NDJSON accept header and decodes
// every line: the row lines, then exactly one trailing summary.
func ndjsonEval(t *testing.T, h http.Handler, body string) (int, string, []ndLine, ndSum) {
	t.Helper()
	req := httptest.NewRequest("POST", "/eval", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)

	var lines []ndLine
	var sum ndSum
	sawSummary := false
	sc := bufio.NewScanner(rr.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		if sawSummary {
			t.Fatalf("line after summary: %q", sc.Text())
		}
		var probe struct {
			Summary bool `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if probe.Summary {
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatalf("bad summary line %q: %v", sc.Text(), err)
			}
			sawSummary = true
			continue
		}
		var l ndLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if !sawSummary {
		t.Fatalf("stream has no summary terminator; %d lines", len(lines))
	}
	return rr.Code, rr.Header().Get("Content-Type"), lines, sum
}

// TestEvalNDJSON: the streaming path emits per-tuple lines, per-document
// terminators with counts, and a final summary — and honors the answer
// cap with explicit truncation markers.
func TestEvalNDJSON(t *testing.T) {
	h := testServer(t)
	loadFleet(t, h)

	code, ctype, lines, sum := ndjsonEval(t, h, `{"query": "descB"}`)
	if code != http.StatusOK || ctype != "application/x-ndjson" {
		t.Fatalf("status %d, content-type %q", code, ctype)
	}
	if sum.Mode != "tuples" || sum.Docs != 3 || sum.Errors != 0 || sum.Truncated != 0 {
		t.Fatalf("summary: %+v", sum)
	}
	tuples, dones := map[string]int{}, map[string]int{}
	for _, l := range lines {
		switch {
		case l.Tuple != nil:
			tuples[l.Doc]++
		case l.Done:
			if l.Count == nil {
				t.Fatalf("done line without count: %+v", l)
			}
			dones[l.Doc] = *l.Count
			if l.Truncated {
				t.Fatalf("uncapped stream marked truncated: %+v", l)
			}
		default:
			t.Fatalf("unexpected line: %+v", l)
		}
	}
	want := map[string]int{"two": 2, "one": 1, "zero": 0}
	for doc, n := range want {
		if tuples[doc] != n || dones[doc] != n {
			t.Fatalf("doc %s: %d tuple lines, done count %d, want %d", doc, tuples[doc], dones[doc], n)
		}
	}

	// Bool mode streams one sat line per document.
	_, _, lines, _ = ndjsonEval(t, h, `{"query": "descB", "mode": "bool"}`)
	sats := map[string]bool{}
	for _, l := range lines {
		if l.Sat == nil {
			t.Fatalf("bool line without sat: %+v", l)
		}
		sats[l.Doc] = *l.Sat
	}
	if !sats["two"] || !sats["one"] || sats["zero"] {
		t.Fatalf("bool stream: %v", sats)
	}

	// Explicitly named missing documents are per-doc error rows.
	_, _, lines, _ = ndjsonEval(t, h, `{"query": "descB", "docs": ["two", "ghost"]}`)
	foundErr := false
	for _, l := range lines {
		if l.Doc == "ghost" && l.Error != "" {
			foundErr = true
		}
	}
	if !foundErr {
		t.Fatalf("missing doc not reported in stream: %+v", lines)
	}
}

// TestEvalNDJSONTruncation: max_answers caps each document's tuple
// stream; the done line and the summary both say so, and a document with
// exactly cap answers is NOT marked truncated.
func TestEvalNDJSONTruncation(t *testing.T) {
	h := testServer(t)
	loadFleet(t, h)

	_, _, lines, sum := ndjsonEval(t, h, `{"query": "descB", "max_answers": 1}`)
	if sum.Truncated != 1 {
		t.Fatalf("summary truncated = %d, want 1 (only doc two is cut)", sum.Truncated)
	}
	for _, l := range lines {
		switch {
		case l.Done && l.Doc == "two":
			if *l.Count != 1 || !l.Truncated {
				t.Fatalf("capped doc two: %+v", l)
			}
		case l.Done && l.Doc == "one":
			// Exactly at the cap: complete, not truncated.
			if *l.Count != 1 || l.Truncated {
				t.Fatalf("exact-cap doc one: %+v", l)
			}
		}
	}

	// The buffered path enforces the same cap with the same semantics,
	// with and without the result cache in front of it.
	for _, cfg := range []Config{{}, {CacheBytes: 1 << 20}} {
		h := mustServer(t, cfg).Handler()
		loadFleet(t, h)
		var resp evalResp
		rr := do(t, h, "POST", "/eval", `{"query": "descB", "max_answers": 1}`, &resp)
		wantStatus(t, rr, http.StatusOK)
		if resp.Truncated != 1 {
			t.Fatalf("cache bytes %d: buffered truncated count = %d, want 1", cfg.CacheBytes, resp.Truncated)
		}
		for _, r := range resp.Results {
			switch r.Doc {
			case "two":
				if len(r.Tuples) != 1 || !r.Truncated {
					t.Fatalf("cache bytes %d: capped row two: %+v", cfg.CacheBytes, r)
				}
			case "one":
				if len(r.Tuples) != 1 || r.Truncated {
					t.Fatalf("cache bytes %d: exact-cap row one: %+v", cfg.CacheBytes, r)
				}
			case "zero":
				if len(r.Tuples) != 0 || r.Truncated {
					t.Fatalf("cache bytes %d: empty row zero: %+v", cfg.CacheBytes, r)
				}
			}
		}
	}
}

// TestMaxAnswersServerCap: the operator's -max-answers is a ceiling the
// request may tighten but never extend. A capped row holds the first cap
// tuples of the engine's stream, sorted, whether the result cache is off
// or a cached complete relation is re-capped.
func TestMaxAnswersServerCap(t *testing.T) {
	// Backtracking emits this relation out of lexicographic order, so the
	// stream's cap-prefix differs from the sorted relation's.
	const term, src, capN = "A(B(C),C,B,C(C))", "Q(z, y) <- A(x), Child(x, y), B(y), Child+(x, z), C(z), Following(y, z)", 3
	pq := cqtrees.MustCompile(src)
	doc := cqtrees.Index(cqtrees.MustParseTree(term))
	var streamed [][]cqtrees.NodeID
	for tuple := range pq.Tuples(doc) {
		if len(streamed) == capN {
			break
		}
		streamed = append(streamed, tuple)
	}
	slices.SortFunc(streamed, slices.Compare[[]cqtrees.NodeID])
	full, err := pq.AllErr(doc)
	if err != nil || len(full) <= capN || reflect.DeepEqual(streamed, full[:capN]) {
		t.Fatalf("fixture does not separate the capped renderings: %v vs %v (%v)", streamed, full, err)
	}

	for _, cfg := range []Config{{MaxAnswers: 1}, {MaxAnswers: 1, CacheBytes: 1 << 20}} {
		h := mustServer(t, cfg).Handler()
		loadFleet(t, h)

		var resp evalResp
		wantStatus(t, do(t, h, "POST", "/eval", `{"query": "descB", "max_answers": 100}`, &resp), http.StatusOK)
		for _, r := range resp.Results {
			if r.Doc == "two" && (len(r.Tuples) != 1 || !r.Truncated) {
				t.Fatalf("cache bytes %d: client extended the server cap: %+v", cfg.CacheBytes, r)
			}
		}

		cfg.MaxAnswers = capN
		h = mustServer(t, cfg).Handler()
		wantStatus(t, do(t, h, "PUT", "/docs/mixed", fmt.Sprintf(`{"term": %q}`, term), nil), http.StatusCreated)
		var capped struct {
			Results []struct {
				Tuples    [][]cqtrees.NodeID `json:"tuples"`
				Truncated bool               `json:"truncated"`
			} `json:"results"`
		}
		// The second request is a cache hit when the cache is on.
		for pass := 0; pass < 2; pass++ {
			capped.Results = nil
			wantStatus(t, do(t, h, "POST", "/eval", fmt.Sprintf(`{"source": %q, "docs": ["mixed"]}`, src), &capped), http.StatusOK)
			if len(capped.Results) != 1 || !capped.Results[0].Truncated || !reflect.DeepEqual(capped.Results[0].Tuples, streamed) {
				t.Fatalf("cache bytes %d pass %d: capped row %+v, want truncated %v", cfg.CacheBytes, pass, capped.Results, streamed)
			}
		}
	}
}
