package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	cqtrees "repro"
)

// The /eval success path's JSON encoder. encoding/json reflects over every
// row, field and NodeID; on a cached read that serialization dominates the
// request. These helpers append the four response shapes — evalResponse
// (with its evalResult rows), ndRow and ndSummary — straight into a byte
// slice, with the structs' field order and omitempty rules written out by
// hand. The output is byte-identical to a json.Encoder with
// SetEscapeHTML(false), trailing newline included; encode_test.go checks
// that on a table and under FuzzEvalEncode. Strings that are not plain
// printable ASCII fall back to encoding/json for that one string, so the
// escaping of control bytes, invalid UTF-8 and U+2028/U+2029 stays exactly
// the library's.

// maxPooledBuf caps the buffers bufPool retains, as encoding/json's own
// encodeState pool does: one huge response must not pin its buffer for
// the life of the process.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// writeEval writes resp as the JSON body of a buffered /eval response:
// one w.Write from a pooled buffer.
func writeEval(w http.ResponseWriter, status int, resp *evalResponse) {
	bp := bufPool.Get().(*[]byte)
	b := appendEvalResponse((*bp)[:0], resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBuf {
		*bp = b
		bufPool.Put(bp)
	}
}

func appendEvalResponse(b []byte, r *evalResponse) []byte {
	b = append(b, `{"mode":`...)
	b = appendString(b, r.Mode)
	b = append(b, `,"plan":`...)
	b = appendString(b, r.Plan)
	b = append(b, `,"docs":`...)
	b = strconv.AppendInt(b, int64(r.Docs), 10)
	b = append(b, `,"errors":`...)
	b = strconv.AppendInt(b, int64(r.Errors), 10)
	b = append(b, `,"results":`...)
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendEvalResult(b, &r.Results[i])
		}
		b = append(b, ']')
	}
	if r.Truncated != 0 {
		b = append(b, `,"truncated":`...)
		b = strconv.AppendInt(b, int64(r.Truncated), 10)
	}
	if r.TimedOut {
		b = append(b, `,"timed_out":true`...)
	}
	if r.NextCursor != "" {
		b = append(b, `,"next_cursor":`...)
		b = appendString(b, r.NextCursor)
	}
	return append(b, "}\n"...)
}

func appendEvalResult(b []byte, r *evalResult) []byte {
	b = append(b, `{"doc":`...)
	b = appendString(b, r.Doc)
	b = appendSat(b, r.Sat)
	if len(r.Nodes) > 0 {
		b = append(b, `,"nodes":`...)
		b = appendIDs(b, r.Nodes)
	}
	if len(r.Tuples) > 0 {
		b = append(b, `,"tuples":[`...)
		for i, t := range r.Tuples {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendIDs(b, t)
		}
		b = append(b, ']')
	}
	if r.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	return appendErrorReason(b, r.Error, r.Reason)
}

func appendNDRow(b []byte, r *ndRow) []byte {
	b = append(b, `{"doc":`...)
	b = appendString(b, r.Doc)
	b = appendSat(b, r.Sat)
	if len(r.Nodes) > 0 {
		b = append(b, `,"nodes":`...)
		b = appendIDs(b, r.Nodes)
	}
	if len(r.Tuple) > 0 {
		b = append(b, `,"tuple":`...)
		b = appendIDs(b, r.Tuple)
	}
	if r.Done {
		b = append(b, `,"done":true`...)
	}
	if r.Count != nil {
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, int64(*r.Count), 10)
	}
	if r.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	b = appendErrorReason(b, r.Error, r.Reason)
	return append(b, '\n')
}

func appendNDSummary(b []byte, s *ndSummary) []byte {
	b = append(b, `{"summary":`...)
	b = strconv.AppendBool(b, s.Summary)
	b = append(b, `,"mode":`...)
	b = appendString(b, s.Mode)
	b = append(b, `,"plan":`...)
	b = appendString(b, s.Plan)
	b = append(b, `,"docs":`...)
	b = strconv.AppendInt(b, int64(s.Docs), 10)
	b = append(b, `,"errors":`...)
	b = strconv.AppendInt(b, int64(s.Errors), 10)
	if s.Truncated != 0 {
		b = append(b, `,"truncated":`...)
		b = strconv.AppendInt(b, int64(s.Truncated), 10)
	}
	if s.TimedOut {
		b = append(b, `,"timed_out":true`...)
	}
	return append(b, "}\n"...)
}

// appendSat appends the omitempty "sat" field of a row.
func appendSat(b []byte, sat *bool) []byte {
	if sat == nil {
		return b
	}
	b = append(b, `,"sat":`...)
	return strconv.AppendBool(b, *sat)
}

// appendErrorReason appends a row's omitempty "error" and "reason" fields
// and closes the object.
func appendErrorReason(b []byte, errMsg, reason string) []byte {
	if errMsg != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, errMsg)
	}
	if reason != "" {
		b = append(b, `,"reason":`...)
		b = appendString(b, reason)
	}
	return append(b, '}')
}

// appendIDs appends a NodeID list; nil is null, as encoding/json writes
// a nil slice.
func appendIDs(b []byte, ids []cqtrees.NodeID) []byte {
	if ids == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

// appendString appends s as a JSON string. Plain printable ASCII without
// '"' or '\\' is copied between quotes; anything else goes through
// encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return appendStringSlow(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendStringSlow(b []byte, s string) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(s) // a string always encodes
	return append(b, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
}
