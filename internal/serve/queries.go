package serve

import (
	"net/http"
	"sort"

	cqtrees "repro"
)

// ---- queries --------------------------------------------------------------

// queryInfo describes one registered query.
type queryInfo struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Arity  int    `json:"arity"`
	Plan   string `json:"plan"`
}

func info(name string, sq *storedQuery) queryInfo {
	return queryInfo{
		Name:   name,
		Source: sq.src,
		Arity:  len(sq.pq.Query().Head),
		Plan:   sq.pq.PlanText(),
	}
}

func (s *Server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	infos := make([]queryInfo, 0, len(s.queries))
	for name, sq := range s.queries {
		infos = append(infos, info(name, sq))
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"queries": infos})
}

func (s *Server) handleGetQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	sq, ok := s.queries[name]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown query %q", name)
		return
	}
	writeJSON(w, http.StatusOK, info(name, sq))
}

type putQueryRequest struct {
	Query string `json:"query"`
}

func (s *Server) handlePutQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req putQueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Query == "" {
		httpError(w, http.StatusBadRequest, "query is required")
		return
	}
	pq, err := cqtrees.Compile(req.Query)
	if err != nil {
		httpError(w, http.StatusBadRequest, "compile: %v", err)
		return
	}
	sq := &storedQuery{src: req.Query, pq: pq}
	s.mu.Lock()
	_, replaced := s.queries[name]
	s.queries[name] = sq
	s.mu.Unlock()
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	writeJSON(w, status, info(name, sq))
}

func (s *Server) handleDeleteQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, ok := s.queries[name]
	delete(s.queries, name)
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown query %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
