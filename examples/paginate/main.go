// Command paginate walks a very large answer relation page by page over
// HTTP, using the serving tier's resumable cursors: an in-process cqserve
// holds one deep B-chain document whose chain query has ~depth²/2 answers
// (about a million at the default depth), and the client fetches it in
// fixed-size pages, each request resuming exactly where the previous
// page ended via the opaque next_cursor token. No page re-enumerates
// earlier ones — every resume re-runs the document's reduction and then
// seeks in O(depth + page) — and the program verifies that the
// reassembled union has exactly the closed-form answer count, plus that
// the cursor dies with 410 Gone the moment the document's content
// changes.
//
// Run it small (the examples smoke in CI does) or at the full million:
//
//	go run ./examples/paginate -depth 200 -page 1000
//	go run ./examples/paginate                      # depth 1414, ~1M answers
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/serve"
)

func main() {
	depth := flag.Int("depth", 1414, "B-chain depth; answers = depth*(depth-1)/2")
	page := flag.Int("page", 10000, "page size per request")
	flag.Parse()

	// An in-process server over loopback: the same handler cqserve runs.
	srv, err := serve.New(serve.Config{})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Seed one deep document: A over a chain of depth B nodes.
	var b strings.Builder
	for i := 0; i < *depth-1; i++ {
		b.WriteString("B(")
	}
	b.WriteString("B")
	term := "A(" + b.String() + strings.Repeat(")", *depth)
	put(ts.URL+"/docs/big", map[string]string{"term": term})
	total := *depth * (*depth - 1) / 2
	fmt.Printf("seeded chain of depth %d: %d answers expected\n", *depth, total)

	// Page through Q(x, y) <- B(x), Child+(x, y), B(y) in document order.
	answers, pages := 0, 0
	cursor := ""
	var firstCursor string
	for {
		req := map[string]any{
			"source": "Q(x, y) <- B(x), Child+(x, y), B(y)",
			"mode":   "tuples",
			"docs":   []string{"big"},
			"order":  []string{"asc", "asc"},
			"limit":  *page,
		}
		if cursor != "" {
			req["cursor"] = cursor
		}
		var resp struct {
			Results []struct {
				Tuples []json.RawMessage `json:"tuples"`
			} `json:"results"`
			NextCursor string `json:"next_cursor"`
		}
		status := post(ts.URL+"/eval", req, &resp)
		if status != http.StatusOK {
			log.Fatalf("page %d: status %d", pages, status)
		}
		answers += len(resp.Results[0].Tuples)
		pages++
		if pages == 1 && resp.NextCursor != "" {
			firstCursor = resp.NextCursor
			fmt.Printf("cursor after page 1 (%d bytes): %.40s...\n", len(firstCursor), firstCursor)
		}
		if resp.NextCursor == "" {
			break
		}
		cursor = resp.NextCursor
	}
	fmt.Printf("walked %d pages of %d: %d answers\n", pages, *page, answers)
	if answers != total {
		log.Fatalf("union has %d answers, want %d", answers, total)
	}
	fmt.Println("union matches the closed form: OK")

	// Cursors are bound to document content: replace the document and the
	// old cursor is rejected as 410 Gone, not silently misapplied.
	put(ts.URL+"/docs/big", map[string]string{"term": "A(B(B))"})
	req := map[string]any{
		"source": "Q(x, y) <- B(x), Child+(x, y), B(y)",
		"mode":   "tuples",
		"docs":   []string{"big"},
		"order":  []string{"asc", "asc"},
		"cursor": firstCursor,
	}
	if status := post(ts.URL+"/eval", req, nil); status != http.StatusGone {
		log.Fatalf("stale cursor: status %d, want %d", status, http.StatusGone)
	}
	fmt.Println("stale cursor rejected with 410 Gone: OK")
}

func put(url string, body any) {
	blob, _ := json.Marshal(body)
	req, _ := http.NewRequest("PUT", url, bytes.NewReader(blob))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		log.Fatalf("PUT %s: status %d", url, resp.StatusCode)
	}
}

func post(url string, body, out any) int {
	blob, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			log.Fatal(err)
		}
	}
	return resp.StatusCode
}
