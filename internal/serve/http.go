package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// ---- JSON plumbing --------------------------------------------------------

// writeJSON encodes metadata and error bodies; /eval responses go through
// writeEval (encode.go).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// apiError is the uniform error body: {"error": "..."}.
type apiError struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes the request body as strict JSON into v. The body is
// already bounded by the withBodyLimit middleware; oversized bodies
// surface here as *http.MaxBytesError and map to a structured 413
// (shrink the payload), malformed ones to 400 (fix the payload).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}
