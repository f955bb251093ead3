// Command cqload is a closed-loop load generator for cqserve: it drives a
// query mix against the /eval endpoint with a fixed worker pool for a
// fixed duration and reports throughput, latency percentiles, and
// per-status-class counts as JSON — the measurement half of the serving
// hardening work (admission control and graceful degradation live in
// internal/serve; this command tells you whether they hold up).
//
// Usage:
//
//	cqload -self -duration 10s -workers 16            # in-process server
//	cqload -addr http://host:8080 -duration 30s ...   # external server
//
// Closed loop means each worker issues its next request only after the
// previous one completes: offered load adapts to the server instead of
// piling up unboundedly, which is the right shape for measuring an
// admission-controlled server (an open loop would just measure its own
// queue). Overload responses (429/503) are retried with jittered backoff
// honoring Retry-After, up to -retries attempts; what cannot be retried
// is counted by status class, never silently dropped.
//
// With -self, cqload builds the server in-process (internal/serve) on a
// loopback listener, seeds -docs documents of -depth B-chain depth,
// registers the query mix, runs the load, then drains the server and
// checks two robustness invariants from the inside:
//
//   - goroutine hygiene: after shutdown the goroutine count returns to
//     the pre-server baseline (leak => "goroutine_leak": true);
//   - streaming memory flatness: one NDJSON tuples query with a ~depth²/2
//     answer relation is streamed while a sampler polls the heap; the
//     report carries peak-over-idle ("stream") so a regression that
//     buffers the relation shows up as a ratio jump.
//
// With -repeat R (0..1), a fraction R of requests replays a recently
// issued (query, document) pair from a bounded pool instead of a fresh
// one; every request then targets a single document, so a cache-enabled
// server (-cache-bytes here for -self, or cqserve's flag) answers the
// replays from its result cache. The run scrapes /metrics before shutdown
// and reports cache hits, misses, and the hit rate in the JSON summary —
// the knob that turns cqload into a cache-effectiveness harness.
//
// With -data DIR (-self only), the in-process server persists every
// seeded document to DIR through the crash-durable snapshot path; the
// same /metrics scrape then fills the report's "persistence" section
// (hydration errors, quarantines, persist errors), which the load gate
// asserts is all zeros — no snapshot may corrupt or fail while the
// server is under pressure.
//
// The JSON report (stdout, or -o FILE) is consumed by scripts/bench.sh -l
// and gated by scripts/perfgate.sh -l in CI's load-smoke job.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

var errFlagParse = errors.New("flag parse error")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		switch {
		case errors.Is(err, flag.ErrHelp):
			return
		case errors.Is(err, errFlagParse):
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// loadConfig is the resolved run configuration, echoed into the report.
type loadConfig struct {
	Addr     string `json:"addr"`
	Self     bool   `json:"self"`
	Docs     int    `json:"docs"`
	Depth    int    `json:"depth"`
	Workers  int    `json:"workers"`
	Duration string `json:"duration"`
	Mix      string `json:"mix"`
	Timeout  string `json:"timeout"`
	Retries  int    `json:"retries"`

	MaxInFlight int     `json:"max_inflight,omitempty"`
	MaxQueue    int     `json:"max_queue,omitempty"`
	MaxAnswers  int     `json:"max_answers,omitempty"`
	Repeat      float64 `json:"repeat,omitempty"`
	CacheBytes  int64   `json:"cache_bytes,omitempty"`
	Data        string  `json:"data,omitempty"`
	NoFsync     bool    `json:"no_fsync,omitempty"`
	Paginate    int     `json:"paginate,omitempty"`
}

// latencyStats are the sorted-percentile summaries, in milliseconds.
type latencyStats struct {
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// streamStats reports the NDJSON heap-flatness probe.
type streamStats struct {
	Tuples       int     `json:"tuples"`
	IdleHeap     uint64  `json:"idle_heap_bytes"`
	PeakHeap     uint64  `json:"peak_heap_bytes"`
	PeakOverIdle float64 `json:"peak_over_idle"`
}

// cacheStats is the result-cache section of the report, scraped from the
// server's /metrics endpoint after the load completes. HitRate is
// hits/(hits+misses) — the fraction of /eval documents answered without
// re-running the engine.
type cacheStats struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// paginateStats is the -paginate self-check section of the report: a
// full cursor walk over a dedicated >= 100k-answer document, page by
// page, with the reassembled union compared byte-for-byte against a
// second walk at jumbo page size. ParityOK false or any 5xx along the
// walk means resumable pagination is broken, whatever the latencies say.
type paginateStats struct {
	PageSize int  `json:"page_size"`
	Pages    int  `json:"pages"`
	Answers  int  `json:"answers"`
	ParityOK bool `json:"parity_ok"`
	HTTP5xx  int  `json:"http_5xx"`
}

// persistenceStats is the persistence-health section of the report,
// scraped from /metrics after the load. A clean run reads all zeros —
// the load gate asserts no snapshot corrupted, no quarantine fired, and
// no persist failed while the server was under pressure.
type persistenceStats struct {
	HydrationErrors int64 `json:"hydration_errors"`
	Quarantines     int64 `json:"quarantines"`
	PersistErrors   int64 `json:"persist_errors"`
	QuarantinedDocs int64 `json:"quarantined_docs"`
}

// report is the full JSON output.
type report struct {
	Config        loadConfig        `json:"config"`
	DurationS     float64           `json:"duration_s"`
	Requests      int64             `json:"requests"`
	ThroughputRPS float64           `json:"throughput_rps"`
	Latency       latencyStats      `json:"latency"`
	Status        map[string]int    `json:"status"`
	Retries       int64             `json:"retries"`
	ClientErrors  int64             `json:"client_errors"`
	Server5xx     int64             `json:"server_5xx"`
	GoroutineLeak *bool             `json:"goroutine_leak,omitempty"`
	Stream        *streamStats      `json:"stream,omitempty"`
	Cache         *cacheStats       `json:"cache,omitempty"`
	Persistence   *persistenceStats `json:"persistence,omitempty"`
	Paginate      *paginateStats    `json:"paginate,omitempty"`
}

// op is one entry of the query mix rotation. eval is the request template
// (kept as a map so -repeat can derive single-document variants of it).
type op struct {
	name string
	mode string
	body string
	eval map[string]any
}

// keyPool is the bounded pool of recently issued request bodies that
// -repeat replays from. A ring: fresh keys overwrite the oldest, so
// replays always come from the recent past — the working set a result
// cache can actually hold — rather than from the whole run's history.
type keyPool struct {
	mu   sync.Mutex
	keys []string
	size int
	next int
}

func newKeyPool(size int) *keyPool {
	return &keyPool{keys: make([]string, 0, size), size: size}
}

func (p *keyPool) add(k string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.keys) < p.size {
		p.keys = append(p.keys, k)
		return
	}
	p.keys[p.next] = k
	p.next = (p.next + 1) % p.size
}

// pick returns a uniformly random pooled key. The caller's rng is used
// under the pool lock; each worker owns its rng, so this is race-free.
func (p *keyPool) pick(rng *rand.Rand) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.keys) == 0 {
		return "", false
	}
	return p.keys[rng.Intn(len(p.keys))], true
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cqload", flag.ContinueOnError)
	addr := fs.String("addr", "", "base URL of a running cqserve (e.g. http://localhost:8080)")
	self := fs.Bool("self", false, "spin up an in-process server on loopback instead of -addr")
	docs := fs.Int("docs", 8, "corpus size: documents seeded before the run")
	depth := fs.Int("depth", 200, "B-chain depth of each seeded document (answer relation ~ depth^2/2)")
	workers := fs.Int("workers", 8, "closed-loop client goroutines")
	duration := fs.Duration("duration", 10*time.Second, "load run length")
	mix := fs.String("mix", "bool,nodes,tuples", "comma-separated /eval mode rotation")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request client timeout")
	retries := fs.Int("retries", 3, "max retries per request on 429/503 (honoring Retry-After)")
	maxAnswers := fs.Int("max-answers", 1000, "max_answers sent with tuples requests (0 = uncapped)")
	maxInFlight := fs.Int("max-inflight", 0, "-self server: max concurrent evals (0 = unlimited)")
	maxQueue := fs.Int("max-queue", 0, "-self server: admission queue length")
	queueWait := fs.Duration("queue-wait", time.Second, "-self server: max queued wait")
	repeat := fs.Float64("repeat", 0, "fraction of requests replaying a recent (query, doc) pair from a bounded pool (0..1; >0 makes every request target one document)")
	poolSize := fs.Int("repeat-pool", 64, "recent-key pool size -repeat replays from")
	cacheBytes := fs.Int64("cache-bytes", 0, "-self server: result cache byte budget (0 = disabled)")
	cacheMaxEntry := fs.Int64("cache-max-entry", 0, "-self server: per-result cache size cap")
	dataDir := fs.String("data", "", "-self server: snapshot directory (every seeded PUT persists; exercises the crash-durable write path under load)")
	noFsync := fs.Bool("no-fsync", false, "-self server: skip fsync in the persist path")
	streamCheck := fs.Bool("stream-check", false, "after the run, probe NDJSON streaming heap flatness (-self only)")
	paginate := fs.Int("paginate", 0, "after the run, cursor-walk a >= 100k-answer document at this page size and parity-check the union against a one-shot walk (0 = off)")
	out := fs.String("o", "", "write the JSON report to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlagParse
	}
	if (*addr == "") == !*self {
		return fmt.Errorf("give exactly one of -addr or -self")
	}
	if *streamCheck && !*self {
		return fmt.Errorf("-stream-check needs -self (the heap is sampled in-process)")
	}
	if *repeat < 0 || *repeat > 1 {
		return fmt.Errorf("-repeat %v out of range [0, 1]", *repeat)
	}
	if *paginate < 0 {
		return fmt.Errorf("-paginate must be >= 0")
	}
	if *poolSize <= 0 {
		return fmt.Errorf("-repeat-pool must be positive")
	}
	if *cacheBytes > 0 && !*self {
		return fmt.Errorf("-cache-bytes configures the -self server; pass it to cqserve for -addr runs")
	}
	if (*dataDir != "" || *noFsync) && !*self {
		return fmt.Errorf("-data and -no-fsync configure the -self server; pass them to cqserve for -addr runs")
	}

	rep := report{
		Config: loadConfig{
			Addr: *addr, Self: *self, Docs: *docs, Depth: *depth, Workers: *workers,
			Duration: duration.String(), Mix: *mix, Timeout: timeout.String(),
			Retries: *retries, MaxInFlight: *maxInFlight, MaxQueue: *maxQueue,
			MaxAnswers: *maxAnswers, Repeat: *repeat, CacheBytes: *cacheBytes,
			Data: *dataDir, NoFsync: *noFsync, Paginate: *paginate,
		},
		Status: map[string]int{},
	}

	// -self: build the server, note the goroutine baseline first so the
	// post-shutdown leak check covers everything the server spawned.
	var srv *serve.Server
	var httpSrv *http.Server
	baseline := runtime.NumGoroutine()
	if *self {
		var err error
		srv, err = serve.New(serve.Config{
			MaxInFlight: *maxInFlight, MaxQueue: *maxQueue, QueueWait: *queueWait,
			CacheBytes: *cacheBytes, CacheMaxEntry: *cacheMaxEntry,
			DataDir: *dataDir, NoFsync: *noFsync,
		})
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		httpSrv = &http.Server{Handler: srv.Handler()}
		go func() { _ = httpSrv.Serve(ln) }()
		*addr = "http://" + ln.Addr().String()
		rep.Config.Addr = *addr
	}

	client := &http.Client{Timeout: *timeout}
	if err := seed(client, *addr, *docs, *depth); err != nil {
		return fmt.Errorf("seed corpus: %w", err)
	}
	ops, err := buildMix(client, *addr, *mix, *maxAnswers)
	if err != nil {
		return fmt.Errorf("register mix: %w", err)
	}

	// -repeat targets every request at a single document so that repeated
	// (query, doc) pairs are whole-request cache hits on a cache-enabled
	// server. The op × doc bodies are precomputed; the pool replays them.
	var targeted [][]string
	var pool *keyPool
	if *repeat > 0 {
		pool = newKeyPool(*poolSize)
		targeted = make([][]string, len(ops))
		for i, o := range ops {
			targeted[i] = make([]string, *docs)
			for j := 0; j < *docs; j++ {
				eval := make(map[string]any, len(o.eval)+1)
				for k, v := range o.eval {
					eval[k] = v
				}
				eval["docs"] = []string{fmt.Sprintf("load%03d", j)}
				blob, err := json.Marshal(eval)
				if err != nil {
					return err
				}
				targeted[i][j] = string(blob)
			}
		}
	}

	// The closed loop: each worker cycles through the mix, one request in
	// flight per worker, retrying shed requests with jittered backoff.
	var (
		mu        sync.Mutex
		latencies []float64
		requests  atomic.Int64
		retried   atomic.Int64
		clientErr atomic.Int64
	)
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	next := atomic.Int64{}
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for ctx.Err() == nil {
				i := int(next.Add(1)) % len(ops)
				body := ops[i].body
				if pool != nil {
					// Replay a recent pair with probability -repeat; fresh
					// requests pick a random document and enter the pool.
					if b, ok := pool.pick(rng); ok && rng.Float64() < *repeat {
						body = b
					} else {
						body = targeted[i][rng.Intn(*docs)]
						pool.add(body)
					}
				}
				start := time.Now()
				status, nRetries, err := doEval(ctx, client, *addr, body, *retries, rng)
				elapsed := time.Since(start)
				retried.Add(nRetries)
				if err != nil {
					// Timeouts and run-end cancellations; the run's own end
					// is not an error of the server's.
					if ctx.Err() == nil {
						clientErr.Add(1)
						requests.Add(1)
					}
					continue
				}
				requests.Add(1)
				mu.Lock()
				latencies = append(latencies, float64(elapsed.Microseconds())/1000)
				rep.Status[strconv.Itoa(status)]++
				if status >= 500 {
					rep.Server5xx++
				}
				mu.Unlock()
			}
		}(int64(w) + 1)
	}
	runStart := time.Now()
	wg.Wait()
	elapsed := time.Since(runStart)

	rep.DurationS = elapsed.Seconds()
	rep.Requests = requests.Load()
	rep.Retries = retried.Load()
	rep.ClientErrors = clientErr.Load()
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / elapsed.Seconds()
	}
	rep.Latency = percentiles(latencies)

	// Cache effectiveness comes from the server's own accounting — a
	// /metrics scrape after the load, before shutdown — not from guessing
	// client-side. Servers without the endpoint just omit the section.
	if cs, ps, err := scrapeMetrics(client, *addr); err == nil {
		rep.Cache = cs
		rep.Persistence = ps
	}

	// The streaming probe runs after the load so the heap is quiet: idle
	// baseline after GC, then one huge NDJSON answer relation streamed
	// while a sampler records the peak. A flat stream keeps the ratio
	// small however many tuples pass through.
	if *streamCheck {
		st, err := streamProbe(client, *addr, *depth)
		if err != nil {
			return fmt.Errorf("stream probe: %w", err)
		}
		rep.Stream = &st
	}

	// The pagination probe also runs after the load: a full cursor walk
	// over a dedicated large document, self-checked against a jumbo-page
	// walk of the same relation.
	if *paginate > 0 {
		ps, err := paginateProbe(client, *addr, *depth, *paginate)
		if err != nil {
			return fmt.Errorf("paginate probe: %w", err)
		}
		rep.Paginate = &ps
	}

	// Drain the self server and verify goroutine hygiene.
	if *self {
		srv.BeginShutdown()
		shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer shCancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		leak := !goroutinesSettle(baseline, 5*time.Second)
		rep.GoroutineLeak = &leak
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out != "" {
		return os.WriteFile(*out, blob, 0o644)
	}
	_, err = stdout.Write(blob)
	return err
}

// seed loads the corpus: -docs documents, each a root A over a B-chain of
// -depth nodes, so "Q(x, y) <- B(x), Child+(x, y), B(y)" has ~depth^2/2
// answers per document and monadic descendant queries have depth answers.
func seed(client *http.Client, addr string, docs, depth int) error {
	for i := 0; i < docs; i++ {
		if err := seedOne(client, addr, fmt.Sprintf("load%03d", i), depth); err != nil {
			return err
		}
	}
	return nil
}

// buildMix registers one query per mode and returns the request rotation.
func buildMix(client *http.Client, addr, mix string, maxAnswers int) ([]op, error) {
	queries := map[string]string{
		"bool":   "Q() <- A(x), Child+(x, y), B(y)",
		"nodes":  "Q(y) <- A(x), Child+(x, y), B(y)",
		"tuples": "Q(x, y) <- B(x), Child+(x, y), B(y)",
	}
	var ops []op
	for _, mode := range strings.Split(mix, ",") {
		mode = strings.TrimSpace(mode)
		src, ok := queries[mode]
		if !ok {
			return nil, fmt.Errorf("unknown mode %q in -mix", mode)
		}
		name := "load_" + mode
		body, _ := json.Marshal(map[string]string{"query": src})
		req, err := http.NewRequest("PUT", addr+"/queries/"+name, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("PUT query %s: status %d", name, resp.StatusCode)
		}
		evalBody := map[string]any{"query": name, "mode": mode}
		if mode == "tuples" && maxAnswers > 0 {
			evalBody["max_answers"] = maxAnswers
		}
		blob, _ := json.Marshal(evalBody)
		ops = append(ops, op{name: name, mode: mode, body: string(blob), eval: evalBody})
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("-mix selected no modes")
	}
	return ops, nil
}

// doEval issues one POST /eval, retrying overload responses (429/503)
// with jittered exponential backoff that honors Retry-After. It returns
// the final status and how many retries were spent.
func doEval(ctx context.Context, client *http.Client, addr, body string, retries int, rng *rand.Rand) (int, int64, error) {
	backoff := 10 * time.Millisecond
	var nRetries int64
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, "POST", addr+"/eval", strings.NewReader(body))
		if err != nil {
			return 0, nRetries, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return 0, nRetries, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status := resp.StatusCode
		if (status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable) ||
			attempt >= retries {
			return status, nRetries, nil
		}
		// Shed: back off and retry. Retry-After (whole seconds) takes
		// precedence over the local schedule; jitter desynchronizes the
		// retrying herd.
		wait := backoff
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				wait = time.Duration(secs) * time.Second
			}
		}
		wait += time.Duration(rng.Int63n(int64(backoff)/2 + 1))
		backoff = min(2*backoff, time.Second)
		nRetries++
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return status, nRetries, ctx.Err()
		}
	}
}

// scrapeMetrics reads the server's result-cache and persistence counters
// from /metrics (Prometheus text exposition: "name value" lines).
func scrapeMetrics(client *http.Client, addr string) (*cacheStats, *persistenceStats, error) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	cs := &cacheStats{}
	ps := &persistenceStats{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch fields[0] {
		case "cqtrees_cache_hits_total":
			cs.Hits = int64(v)
		case "cqtrees_cache_misses_total":
			cs.Misses = int64(v)
		case "cqtrees_corpus_hydration_errors_total":
			ps.HydrationErrors = int64(v)
		case "cqtrees_corpus_quarantines_total":
			ps.Quarantines = int64(v)
		case "cqtrees_corpus_persist_errors_total":
			ps.PersistErrors = int64(v)
		case "cqtrees_corpus_quarantined_docs":
			ps.QuarantinedDocs = int64(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if total := cs.Hits + cs.Misses; total > 0 {
		cs.HitRate = float64(cs.Hits) / float64(total)
	}
	return cs, ps, nil
}

// percentiles summarizes latencies (ms) by sorted rank.
func percentiles(ms []float64) latencyStats {
	if len(ms) == 0 {
		return latencyStats{}
	}
	sort.Float64s(ms)
	at := func(q float64) float64 {
		i := int(q * float64(len(ms)-1))
		return ms[i]
	}
	return latencyStats{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: ms[len(ms)-1]}
}

// streamProbe runs one uncapped NDJSON tuples query against the deepest
// relation in the corpus while sampling the process heap, and reports
// peak-over-idle: a streaming regression that materializes the relation
// shows up as a multiple of the tuple count, a flat stream stays near 1.
func streamProbe(client *http.Client, addr string, depth int) (streamStats, error) {
	runtime.GC()
	var idle runtime.MemStats
	runtime.ReadMemStats(&idle)

	stop := make(chan struct{})
	peakCh := make(chan uint64)
	go func() {
		peak := idle.HeapAlloc
		var m runtime.MemStats
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				peakCh <- peak
				return
			case <-ticker.C:
				runtime.ReadMemStats(&m)
				peak = max(peak, m.HeapAlloc)
			}
		}
	}()

	// Inline source, independent of the -mix rotation's registrations.
	body := `{"source": "Q(x, y) <- B(x), Child+(x, y), B(y)", "docs": ["load000"]}`
	req, err := http.NewRequest("POST", addr+"/eval", strings.NewReader(body))
	if err != nil {
		return streamStats{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	// No client timeout here: a million-tuple stream takes as long as it
	// takes, and progress (not latency) is what the probe measures.
	streamClient := &http.Client{}
	resp, err := streamClient.Do(req)
	if err != nil {
		return streamStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return streamStats{}, fmt.Errorf("stream eval: status %d", resp.StatusCode)
	}
	tuples := 0
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"tuple"`)) {
			tuples++
		} else if bytes.Contains(line, []byte(`"summary"`)) {
			sawSummary = true
		}
	}
	if err := sc.Err(); err != nil {
		return streamStats{}, err
	}
	if !sawSummary {
		return streamStats{}, fmt.Errorf("stream cut: no summary line after %d tuples", tuples)
	}

	close(stop)
	peak := <-peakCh
	st := streamStats{Tuples: tuples, IdleHeap: idle.HeapAlloc, PeakHeap: peak}
	if idle.HeapAlloc > 0 {
		st.PeakOverIdle = float64(peak) / float64(idle.HeapAlloc)
	}
	return st, nil
}

// paginateMinDepth makes the probe's dedicated document carry >= 100k
// answers (~depth²/2 for the B-chain relation) regardless of the load
// run's -depth, so the walk exercises genuinely deep pagination.
const paginateMinDepth = 450

// paginateProbe seeds one dedicated deep document and cursor-walks its
// whole ~depth²/2-tuple answer relation twice — once at the requested
// page size, once at jumbo pages — checking that both unions are
// byte-identical and that no page request ever 5xx'd. A cursor resume
// costs one reduction of the document plus O(depth + page), so the paged
// walk's total work is the pages times the reduction plus the answer
// count; a quadratic blowup in the answers surfaces as a hung probe.
func paginateProbe(client *http.Client, addr string, depth, pageSize int) (paginateStats, error) {
	if depth < paginateMinDepth {
		depth = paginateMinDepth
	}
	if err := seedOne(client, addr, "paginate0", depth); err != nil {
		return paginateStats{}, err
	}
	st := paginateStats{PageSize: pageSize, ParityOK: true}
	// walk follows next_cursor to exhaustion, returning the union as raw
	// tuple JSON (byte-level comparison needs no decoding).
	walk := func(limit int) ([]string, int, error) {
		var union []string
		cursor := ""
		pages := 0
		for {
			req := map[string]any{
				"source": "Q(x, y) <- B(x), Child+(x, y), B(y)",
				"mode":   "tuples",
				"docs":   []string{"paginate0"},
				"order":  []string{"asc", "asc"},
				"limit":  limit,
			}
			if cursor != "" {
				req["cursor"] = cursor
			}
			blob, _ := json.Marshal(req)
			resp, err := client.Post(addr+"/eval", "application/json", bytes.NewReader(blob))
			if err != nil {
				return nil, pages, err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, pages, err
			}
			if resp.StatusCode >= 500 {
				st.HTTP5xx++
			}
			if resp.StatusCode != http.StatusOK {
				return nil, pages, fmt.Errorf("page %d: status %d: %s", pages, resp.StatusCode, body)
			}
			var page struct {
				Results []struct {
					Tuples []json.RawMessage `json:"tuples"`
					Error  string            `json:"error"`
				} `json:"results"`
				NextCursor string `json:"next_cursor"`
			}
			if err := json.Unmarshal(body, &page); err != nil {
				return nil, pages, err
			}
			if len(page.Results) != 1 || page.Results[0].Error != "" {
				return nil, pages, fmt.Errorf("page %d: bad result rows: %s", pages, body)
			}
			for _, t := range page.Results[0].Tuples {
				union = append(union, string(t))
			}
			pages++
			if page.NextCursor == "" {
				return union, pages, nil
			}
			cursor = page.NextCursor
		}
	}
	paged, pages, err := walk(pageSize)
	if err != nil {
		return st, err
	}
	oneShot, _, err := walk(1 << 30)
	if err != nil {
		return st, err
	}
	st.Pages = pages
	st.Answers = len(paged)
	if len(paged) != len(oneShot) {
		st.ParityOK = false
	} else {
		for i := range paged {
			if paged[i] != oneShot[i] {
				st.ParityOK = false
				break
			}
		}
	}
	return st, nil
}

// seedOne PUTs a single named B-chain document of the given depth.
func seedOne(client *http.Client, addr, name string, depth int) error {
	var b strings.Builder
	b.Grow(depth*2 + 16)
	for i := 0; i < depth; i++ {
		b.WriteString("B(")
	}
	b.WriteString("B")
	for i := 0; i < depth; i++ {
		b.WriteString(")")
	}
	body, _ := json.Marshal(map[string]string{"term": "A(" + b.String() + ")"})
	req, err := http.NewRequest("PUT", addr+"/docs/"+name, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT %s: status %d", name, resp.StatusCode)
	}
	return nil
}

// goroutinesSettle polls until the goroutine count returns to (near) the
// baseline or the deadline passes. The +2 slack covers runtime helpers
// and the sampler teardown.
func goroutinesSettle(baseline int, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}
