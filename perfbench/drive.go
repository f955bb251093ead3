package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	cqtrees "repro"
	"repro/internal/serve"
)

// Server settings other than the workload's own are cqserve's flag
// defaults.
const (
	maxInFlight = 64
	maxQueue    = 128
	queueWait   = 5 * time.Second
)

// serverConfig is the serve.Config workload w runs with. corpusBytes is
// the accounted size of the initial corpus; doc_churn's residency budget
// is half of it, so about half the reads meet a dehydrated document.
func serverConfig(w workload, corpusBytes int64, dataDir string) serve.Config {
	cfg := serve.Config{MaxInFlight: maxInFlight, MaxQueue: maxQueue, QueueWait: queueWait, CacheBytes: w.cacheBytes}
	if w.persistent {
		cfg.DataDir = dataDir
		cfg.NoFsync = true
		cfg.MaxCorpusBytes = corpusBytes / 2
	}
	return cfg
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *recorder) Flush() {}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.body.Reset()
}

func newRequest(r *request) *http.Request {
	req, err := http.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	if err != nil {
		panic(err) // paths are generated, always valid
	}
	if r.ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	return req
}

// call sends one request through the handler and returns the response.
func call(h http.Handler, rec *recorder, r *request) {
	rec.reset()
	h.ServeHTTP(rec, newRequest(r))
}

// instance is one set-up server.
type instance struct {
	srv *serve.Server
	h   http.Handler
	dir string
}

// setup builds a server for in and loads it through the handler: every
// registered query and every initial document is PUT. It returns the time
// from serve.New until the last PUT returned.
func setup(in *inputs, cfg serve.Config) (*instance, time.Duration, error) {
	rec := &recorder{hdr: http.Header{}}
	start := time.Now()
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	h := srv.Handler()
	for _, q := range registered {
		body := fmt.Sprintf(`{"query":%q}`, q.src)
		call(h, rec, &request{method: "PUT", path: "/queries/" + q.name, body: []byte(body)})
		if rec.code != http.StatusCreated {
			return nil, 0, fmt.Errorf("PUT query %s: %d %s", q.name, rec.code, rec.body.String())
		}
	}
	for d := 0; d < numDocs; d++ {
		call(h, rec, &request{method: "PUT", path: "/docs/" + docName(d), body: in.putBodies[d]})
		if rec.code != http.StatusCreated {
			return nil, 0, fmt.Errorf("PUT %s: %d %s", docName(d), rec.code, rec.body.String())
		}
	}
	return &instance{srv: srv, h: h, dir: cfg.DataDir}, time.Since(start), nil
}

// scrape reads the server's /metrics through the handler and sums each
// family over its label sets.
func scrape(h http.Handler) (map[string]float64, error) {
	rec := &recorder{hdr: http.Header{}}
	call(h, rec, &request{method: "GET", path: "/metrics"})
	if rec.code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", rec.code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&rec.body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			// Labels may contain spaces; the value follows the closing brace.
			name = line[:i]
			j := strings.LastIndexByte(line, '}')
			rest, ok = strings.TrimSpace(line[j+1:]), j > 0
		}
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, nil
}

// exactFamilies are the /metrics counters that must repeat exactly for a
// seed; the latency histograms are timings, not counts.
var exactFamilies = []string{
	"cqtrees_http_requests_total", "cqtrees_evals_total",
	"cqtrees_cache_hits_total", "cqtrees_cache_misses_total", "cqtrees_cache_evictions_total",
	"cqtrees_cache_invalidations_total", "cqtrees_cache_collapsed_total", "cqtrees_cache_too_large_total",
	"cqtrees_corpus_hydrations_total",
}

// counters are the exact counts of one phase: /metrics families plus the
// process-global index counters, which only this single-client process
// reads.
type counters struct {
	m                       map[string]float64
	indexBuilds, indexLoads int64
}

func readCounters(h http.Handler) (counters, error) {
	m, err := scrape(h)
	if err != nil {
		return counters{}, err
	}
	return counters{m: m, indexBuilds: cqtrees.IndexBuildCount(), indexLoads: cqtrees.IndexLoadCount()}, nil
}

// delta is after − before for every /metrics family.
func (c counters) delta(before counters) counters {
	d := counters{m: map[string]float64{}, indexBuilds: c.indexBuilds - before.indexBuilds,
		indexLoads: c.indexLoads - before.indexLoads}
	for k, v := range c.m {
		d.m[k] = v - before.m[k]
	}
	return d
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLive is HeapAlloc after forced collections. Two cycles: objects a
// sync.Pool still holds in its victim cache survive the first.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// scratchDir makes a fresh directory under the checkout's build
// directory; the benchmark writes nowhere else.
func scratchDir(pattern string) (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}
