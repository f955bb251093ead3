package serve

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"time"

	cqtrees "repro"
)

// The NDJSON streaming path: POST /eval with Accept: application/x-ndjson
// answers 200 immediately and emits one JSON object per line as results
// are produced, so the server's memory footprint stays flat however large
// the answer relation is — nothing is ever materialized beyond one tuple.
//
// Line protocol (every line carries "doc" except the final summary):
//
//	{"doc": "a", "sat": true}                      one per doc, mode bool
//	{"doc": "a", "nodes": [1, 2]}                  one per doc, mode nodes
//	{"doc": "a", "tuple": [1, 2]}                  one per answer tuple, mode tuples
//	{"doc": "a", "done": true, "count": 2}         per-doc terminator, mode tuples
//	                                               (+ "truncated": true at the cap)
//	{"doc": "a", "error": "..."}                   per-doc failure
//	{"summary": true, "mode": ..., "docs": N, ...} final line, always last
//
// A missing summary line means the stream was cut (panic, connection
// loss): consumers must treat such a response as incomplete. Because the
// status is committed before evaluation, deadline expiry cannot become a
// 504 here — the summary carries "timed_out": true instead.
//
// Documents evaluate sequentially in list order (workers is ignored):
// interleaving tuple streams from a fan-out pool would force per-document
// buffering, which is exactly what this path exists to avoid.

// ndRow is one streamed NDJSON line.
type ndRow struct {
	Doc       string           `json:"doc"`
	Sat       *bool            `json:"sat,omitempty"`
	Nodes     []cqtrees.NodeID `json:"nodes,omitempty"`
	Tuple     []cqtrees.NodeID `json:"tuple,omitempty"`
	Done      bool             `json:"done,omitempty"`
	Count     *int             `json:"count,omitempty"`
	Truncated bool             `json:"truncated,omitempty"`
	Error     string           `json:"error,omitempty"`
	// Reason mirrors evalResult.Reason: "quarantined" or "unavailable"
	// when the error came from the persistence layer, empty otherwise.
	Reason string `json:"reason,omitempty"`
}

// ndSummary is the final stream line.
type ndSummary struct {
	Summary   bool   `json:"summary"`
	Mode      string `json:"mode"`
	Plan      string `json:"plan"`
	Docs      int    `json:"docs"`
	Errors    int    `json:"errors"`
	Truncated int    `json:"truncated,omitempty"`
	TimedOut  bool   `json:"timed_out,omitempty"`
}

// flushEvery bounds how many tuple lines may sit in the buffer before a
// forced flush: progress stays visible to the client and the buffered
// bytes stay bounded even inside one enormous document.
const flushEvery = 4096

func (s *Server) evalNDJSON(ctx context.Context, w http.ResponseWriter, req evalRequest, pq *cqtrees.PreparedQuery, mode string, start time.Time) {
	docs, rule := s.selectDocs(req)
	capN := s.answerCap(req.MaxAnswers)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 32<<10)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		_ = bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Each line is appended into the writer's free buffer space (growing
	// past it only for a line longer than the buffer) and written.
	emit := func(row ndRow) { _, _ = bw.Write(appendNDRow(bw.AvailableBuffer(), &row)) }

	sum := ndSummary{Summary: true, Mode: mode, Plan: pq.PlanText()}
	// The batch row rule; the status is already committed 200, so a
	// failure's reason is the whole signal here.
	fail := func(name string, err error) {
		if reason, row := rule.fail(err); row {
			emit(ndRow{Doc: name, Error: err.Error(), Reason: reason})
			sum.Docs++
		}
	}
	for _, name := range docs {
		if ctx.Err() != nil {
			break // summary reports timed_out below
		}
		doc, err := s.corpus.GetErr(name)
		if err != nil {
			fail(name, err)
			continue
		}
		s.metrics.evalsTotal.With(strategySlug(pq.Plan())).Inc()
		switch mode {
		case "bool":
			if sat, err := pq.BoolErr(doc, cqtrees.WithContext(ctx)); err != nil {
				fail(name, err)
			} else {
				emit(ndRow{Doc: name, Sat: &sat})
				sum.Docs++
			}
		case "nodes":
			if nodes, err := pq.NodesErr(doc, cqtrees.WithContext(ctx)); err != nil {
				fail(name, err)
			} else {
				emit(ndRow{Doc: name, Nodes: nodes})
				sum.Docs++
			}
		case "tuples":
			n, truncated := 0, false
			for tuple := range pq.Tuples(doc, cqtrees.WithContext(ctx)) {
				// One-past-cap detection: a document with exactly capN
				// answers is complete, not truncated.
				if capN > 0 && n >= capN {
					truncated = true
					break
				}
				emit(ndRow{Doc: name, Tuple: tuple})
				n++
				if n%flushEvery == 0 {
					flush()
				}
			}
			// The iterator goes silent on cancellation; distinguish a
			// finished stream from a cut one afterwards.
			if err := ctx.Err(); err != nil && !truncated {
				fail(name, err)
			} else {
				count := n
				emit(ndRow{Doc: name, Done: true, Count: &count, Truncated: truncated})
				sum.Docs++
				if truncated {
					sum.Truncated++
				}
			}
		}
		flush()
	}
	sum.Errors = rule.errors
	sum.TimedOut = errors.Is(ctx.Err(), context.DeadlineExceeded)
	outcome := "ok"
	if sum.TimedOut {
		outcome = "timeout"
	}
	s.metrics.observeEval(start, pq, outcome)
	_, _ = bw.Write(appendNDSummary(bw.AvailableBuffer(), &sum))
	flush()
}
