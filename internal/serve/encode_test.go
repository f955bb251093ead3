package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	cqtrees "repro"
)

// stdEncode is the reference the appending encoder must match byte for
// byte: a json.Encoder with HTML escaping off, as writeJSON used.
func stdEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("json encode %#v: %v", v, err)
	}
	return buf.Bytes()
}

// checkResponse compares writeEval against stdEncode on one response.
func checkResponse(t testing.TB, resp *evalResponse) {
	t.Helper()
	rr := httptest.NewRecorder()
	writeEval(rr, http.StatusTeapot, resp)
	if rr.Code != http.StatusTeapot || rr.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", rr.Code, rr.Header().Get("Content-Type"))
	}
	if want := stdEncode(t, resp); !bytes.Equal(rr.Body.Bytes(), want) {
		t.Fatalf("writeEval mismatch\n got: %q\nwant: %q", rr.Body.Bytes(), want)
	}
}

// checkLine compares an NDJSON line appender against stdEncode.
func checkLine[T any](t testing.TB, appendLine func([]byte, *T) []byte, v *T) {
	t.Helper()
	if got, want := appendLine(nil, v), stdEncode(t, v); !bytes.Equal(got, want) {
		t.Fatalf("NDJSON line mismatch\n got: %q\nwant: %q", got, want)
	}
}

// TestEncodeParity walks every omitempty field of every /eval response
// shape through its empty, zero and set values, plus strings that take
// the encoding/json fallback.
func TestEncodeParity(t *testing.T) {
	tr, fa := true, false
	zero, seven := 0, 7
	sats := []*bool{nil, &tr, &fa}
	nodeSets := [][]cqtrees.NodeID{nil, {}, {0}, {1, 2, 2147483647, -2147483648}}
	tupleSets := [][][]cqtrees.NodeID{nil, {}, {{1, 2}}, {{1, 2}, nil, {}, {3}}}
	counts := []*int{nil, &zero, &seven}
	strs := []string{"", "a", "plain ASCII ~!@#$%^&*()<>&", `q"uote`, `back\slash`,
		"tab\there", "nl\n", "\x00\x1f\x7f", "caf\u00e9", "\u2028\u2029", "bad\xff\xfeutf8", "<script>&amp;"}

	for _, sat := range sats {
		for _, nodes := range nodeSets {
			for _, tuples := range tupleSets {
				for _, truncated := range []bool{false, true} {
					row := evalResult{Doc: "d", Sat: sat, Nodes: nodes, Tuples: tuples, Truncated: truncated}
					checkResponse(t, &evalResponse{Mode: "tuples", Plan: "p", Results: []evalResult{row}})
					for _, count := range counts {
						checkLine(t, appendNDRow, &ndRow{Doc: "d", Sat: sat, Nodes: nodes, Tuple: nodes,
							Done: truncated, Count: count, Truncated: truncated})
					}
				}
			}
		}
	}
	for _, s := range strs {
		row := evalResult{Doc: s, Error: s, Reason: s}
		for _, results := range [][]evalResult{nil, {}, {row}, {row, {Doc: "b"}}} {
			for _, n := range []int{0, 1, -3} {
				for _, timedOut := range []bool{false, true} {
					checkResponse(t, &evalResponse{Mode: s, Plan: s, Docs: n, Errors: n, Results: results,
						Truncated: n, TimedOut: timedOut, NextCursor: s})
					checkLine(t, appendNDSummary, &ndSummary{Summary: timedOut, Mode: s, Plan: s, Docs: n, Errors: n,
						Truncated: n, TimedOut: timedOut})
				}
			}
		}
		checkLine(t, appendNDRow, &ndRow{Doc: s, Error: s, Reason: s})
	}
}

// FuzzEvalEncode checks writeEval and the NDJSON appenders against
// encoding/json on arbitrary strings (invalid UTF-8, control bytes,
// quotes, backslashes, HTML characters, line separators), arbitrary
// NodeIDs, and every omitempty combination that flags selects.
func FuzzEvalEncode(f *testing.F) {
	f.Add("doc", "", "", "acyclic", "", []byte{1, 0, 0, 0, 2, 0, 0, 0}, uint16(0))
	f.Add(`d"q\`, "corpus: \"x\": unknown document", "quarantined", "<plan>&", "AQA0", []byte{0xff, 0xff, 0xff, 0x7f}, uint16(0xffff))
	f.Add("caf\u00e9\u2028", "\x00\x1f\x7f", "bad\xff", "\u2029", "c\tc", []byte{}, uint16(0x0a5a))
	f.Fuzz(func(t *testing.T, doc, errMsg, reason, plan, cursor string, raw []byte, flags uint16) {
		bit := func(i uint) bool { return flags&(1<<i) != 0 }
		var ids []cqtrees.NodeID
		if bit(0) {
			ids = []cqtrees.NodeID{}
		}
		for ; len(raw) >= 4; raw = raw[4:] {
			ids = append(ids, cqtrees.NodeID(int32(binary.LittleEndian.Uint32(raw))))
		}
		for _, c := range raw {
			ids = append(ids, cqtrees.NodeID(c))
		}
		var sat *bool
		if bit(1) {
			v := bit(2)
			sat = &v
		}
		var tuples [][]cqtrees.NodeID
		if bit(3) {
			tuples = [][]cqtrees.NodeID{ids}
			if bit(4) {
				tuples = append(tuples, nil, []cqtrees.NodeID{}, ids)
			}
		}
		var count *int
		if bit(5) {
			n := len(ids) - int(flags>>12)
			count = &n
		}
		n := int(flags>>8) - 8
		row := evalResult{Doc: doc, Sat: sat, Nodes: ids, Tuples: tuples, Truncated: bit(6), Error: errMsg, Reason: reason}
		var results []evalResult
		if bit(7) {
			results = []evalResult{row, {Doc: reason, Nodes: ids}}
		}
		checkResponse(t, &evalResponse{Mode: reason, Plan: plan, Docs: n, Errors: -n, Results: results,
			Truncated: n, TimedOut: bit(6), NextCursor: cursor})
		checkLine(t, appendNDRow, &ndRow{Doc: doc, Sat: sat, Nodes: ids, Tuple: ids, Done: bit(3), Count: count,
			Truncated: bit(6), Error: errMsg, Reason: reason})
		checkLine(t, appendNDSummary, &ndSummary{Summary: bit(4), Mode: cursor, Plan: plan, Docs: n, Errors: -n,
			Truncated: n, TimedOut: bit(6)})
	})
}

// TestEvalResponsesReencode drives every /eval path — buffered, cached,
// paginated and NDJSON, in every mode, with error rows and a document
// name that takes the string fallback — and checks each body is exactly
// what encoding/json writes for the values it decodes to.
func TestEvalResponsesReencode(t *testing.T) {
	docs := map[string]string{"two": "A(B,C(B))", "zero": "A(C,C)", "caf\u00e9": "A(B(B))", "chain": chainTerm(6)}
	for _, cfg := range []Config{{}, {CacheBytes: 1 << 20}, {MaxAnswers: 2}} {
		h := mustServer(t, cfg).Handler()
		for name, term := range docs {
			path := "/docs/" + strings.ReplaceAll(name, "\u00e9", "%C3%A9")
			wantStatus(t, do(t, h, "PUT", path, fmt.Sprintf(`{"term": %q}`, term), nil), http.StatusCreated)
		}
		bodies := []string{
			`{"source": "Q(y) <- A(x), Child+(x, y), B(y)", "mode": "bool"}`,
			`{"source": "Q(y) <- A(x), Child+(x, y), B(y)", "mode": "nodes"}`,
			`{"source": "Q(x, y) <- A(x), Child+(x, y), B(y)"}`,
			`{"source": "Q(x, y) <- A(x), Child+(x, y), B(y)", "docs": ["two", "nope", "caf\u00e9"]}`,
			`{"source": "Q() <- A(x), Child(x, y), B(y)", "mode": "tuples", "docs": ["zero", "two"]}`,
			pageReq("chain", 4, ""),
			pageReq("chain", 100, ""),
			pageReq("nope", 4, ""),
		}
		for _, body := range bodies {
			rr := do(t, h, "POST", "/eval", body, nil)
			if !bytes.Contains(rr.Body.Bytes(), []byte(`"results":`)) {
				t.Fatalf("%s: status %d, not an /eval body: %s", body, rr.Code, rr.Body.String())
			}
			var resp evalResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			if want := stdEncode(t, &resp); !bytes.Equal(rr.Body.Bytes(), want) {
				t.Fatalf("%+v %s:\n got: %q\nwant: %q", cfg, body, rr.Body.Bytes(), want)
			}
			if strings.Contains(body, `"limit"`) {
				continue // pagination has no NDJSON form
			}
			req := httptest.NewRequest("POST", "/eval", strings.NewReader(body))
			req.Header.Set("Accept", "application/x-ndjson")
			nd := httptest.NewRecorder()
			h.ServeHTTP(nd, req)
			sc := bufio.NewScanner(nd.Body)
			lines := 0
			for sc.Scan() {
				line := append(sc.Bytes(), '\n')
				var v any = &ndRow{}
				if bytes.HasPrefix(line, []byte(`{"summary":`)) {
					v = &ndSummary{}
				}
				if err := json.Unmarshal(line, v); err != nil {
					t.Fatalf("%s: line %q: %v", body, line, err)
				}
				if want := stdEncode(t, v); !bytes.Equal(line, want) {
					t.Fatalf("%+v %s NDJSON:\n got: %q\nwant: %q", cfg, body, line, want)
				}
				lines++
			}
			if lines < 2 {
				t.Fatalf("%s NDJSON: %d lines: %q", body, lines, nd.Body.String())
			}
		}
	}
}

// discardResponse is a ResponseWriter that drops the body, so the
// benchmark times the encoder and not a growing recorder.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header         { return d.h }
func (d discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d discardResponse) WriteHeader(int)             {}

// BenchmarkWriteEval encodes an eight-row nodes response of ~100 NodeIDs
// per row, the shape of a cached multi-document read: append is the
// /eval encoder, encoding_json the json.Encoder it replaced.
func BenchmarkWriteEval(b *testing.B) {
	resp := &evalResponse{Mode: "nodes", Plan: "acyclic(Q(y) <- A(x), Child+(x, y), B(y))", Docs: 8}
	for d := 0; d < 8; d++ {
		nodes := make([]cqtrees.NodeID, 100)
		for i := range nodes {
			nodes[i] = cqtrees.NodeID(37*i + d)
		}
		resp.Results = append(resp.Results, evalResult{Doc: fmt.Sprintf("doc%02d", d), Nodes: nodes})
	}
	w := discardResponse{h: http.Header{}}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeEval(w, http.StatusOK, resp)
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeJSON(w, http.StatusOK, resp)
		}
	})
}
