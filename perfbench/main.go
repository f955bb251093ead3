// Command perfbench is the repository's benchmark: one single-client,
// closed-loop, in-process drive of the cqserve serving stack
// (serve.New(cfg).Handler().ServeHTTP) over a seeded random corpus.
//
//	bash perfbench/run.sh --workload eval_cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics; the lines before it are the
// human-readable report. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	cqtrees "repro"
)

const (
	// sliceOps is how many ops run between two untimed check pauses: one
	// round of the op sequence, so every slice carries the whole mix.
	sliceOps = roundOps
	// warmOps ops of the sequence run untimed before the timed phase.
	warmOps = 3 * roundOps
	// exactOps is the fixed prefix of the timed phase over which the exact
	// counts are taken, so they repeat whatever the machine's speed. A run
	// always completes at least this many timed ops.
	exactOps = 20 * roundOps
	// setupReps is how many times a run sets the server up; setup_s is
	// the median. One set-up takes about 0.1 s and two in a row can differ
	// by a third, so the median needs many.
	setupReps = 30
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "eval_cold, eval_hot or doc_churn")
	seed := flag.Int64("seed", 1, "input seed: corpus, op sequence and cursors derive from it")
	seconds := flag.Int("seconds", 10, "timed-phase length in seconds")
	trace := flag.Int("trace", 0, "1: add the traced replay and report per-layer metrics instead of end-to-end ones")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", workloadOrder)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// phase is what the untimed-check, timed-call loop measured.
type phase struct {
	ops        int64
	failed     int64
	wall       time.Duration
	cpu        time.Duration
	alloc      uint64
	lat        []time.Duration
	cls        []class
	exact      counters // deltas over the first exactOps timed ops
	exactBytes int64    // response bytes over the same prefix
	exactPuts  int64
	start      int // sequence position of the first timed op
}

func run(w workload, seed int64, seconds time.Duration, traced bool) (*result, error) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%s trace=%v GOMAXPROCS=%d %s\n",
		w.name, seed, seconds, traced, runtime.GOMAXPROCS(0), runtime.Version())
	in := generate(w, seed)
	ex, err := expect(in)
	if err != nil {
		return nil, err
	}
	if err := crossCheckReference(in, ex, seed); err != nil {
		return nil, err
	}
	scratch := cqtrees.NewCorpus()
	for d := 0; d < numDocs; d++ {
		if err := scratch.Add(docName(d), ex.docs[d]); err != nil {
			return nil, err
		}
	}
	corpusBytes := scratch.Bytes()
	fmt.Printf("corpus: %d docs x %d nodes = %.1f MB accounted; pool %d trees\n",
		numDocs, docNodes, float64(corpusBytes)/(1<<20), len(in.trees))

	defer os.RemoveAll(".bench_build/tmp")

	// Set up setupReps times on fresh servers; the last one is driven.
	var setups []float64
	var inst *instance
	for i := 0; i < setupReps; i++ {
		if inst != nil && inst.dir != "" {
			os.RemoveAll(inst.dir)
		}
		inst = nil
		runtime.GC()
		dir := ""
		if w.persistent {
			if dir, err = scratchDir("churn-"); err != nil {
				return nil, err
			}
		}
		cfg := serverConfig(w, corpusBytes, dir)
		var d time.Duration
		if inst, d, err = setup(in, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	cfg := serverConfig(w, corpusBytes, inst.dir)
	fmt.Printf("server: cache_bytes=%d max_corpus_bytes=%d data_dir=%v no_fsync=%v max_inflight=%d\n",
		cfg.CacheBytes, cfg.MaxCorpusBytes, cfg.DataDir != "", cfg.NoFsync, cfg.MaxInFlight)
	err = encodePages(in, ex, func(d int) uint64 {
		v, _ := inst.srv.Corpus().Version(docName(d))
		return v
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("ops: sequence %d ops, sha256 %s, distinct requests %d, shares %s\n",
		len(in.seq), in.seqHash(), len(in.reqs), in.describe())

	chk := newChecker(in, ex)
	ph, err := drive(inst, in, chk, seconds)
	if err != nil {
		return nil, err
	}
	// The server's footprint: live heap with the server minus live heap
	// without it; the benchmark's own data is in both.
	withServer := heapLive()
	runtime.KeepAlive(inst)
	heapMB := float64(int64(withServer)-int64(heapLive())) / (1 << 20)

	res := &result{Correct: ph.failed == 0, Attempted: ph.ops, Failed: ph.failed, Metrics: map[string]metric{}}
	e2e := endToEnd(ph, setups, heapMB)
	printReport(w, ph, e2e)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	layers, err := traceRun(w, in, ex, corpusBytes, ph)
	if err != nil {
		return nil, err
	}
	res.Metrics = layers
	return res, nil
}

// drive runs the warm-up and the timed phase on inst. Ops run in slices of
// sliceOps: requests are built, the slice is timed call by call, then the
// clock stops while every response is checked.
func drive(inst *instance, in *inputs, chk *checker, seconds time.Duration) (*phase, error) {
	recs := make([]*recorder, sliceOps)
	for i := range recs {
		recs[i] = &recorder{hdr: http.Header{}}
	}
	pos := 0
	if in.w.warm {
		// Fill the result cache: every distinct request once.
		for ri := range in.reqs {
			call(inst.h, recs[0], &in.reqs[ri])
			if err := chk.check(ri, recs[0].code, recs[0].body.Bytes()); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	} else {
		for ; pos < warmOps; pos++ {
			ri := int(in.seq[pos])
			call(inst.h, recs[0], &in.reqs[ri])
			if err := chk.check(ri, recs[0].code, recs[0].body.Bytes()); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}

	ph := &phase{start: pos}
	before, err := readCounters(inst.h)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	reqs := make([]*http.Request, sliceOps)
	ris := make([]int, sliceOps)
	for ph.ops < exactOps || ph.wall < seconds {
		for j := range reqs {
			ris[j] = int(in.seq[(pos+j)%len(in.seq)])
			recs[j].reset()
			reqs[j] = newRequest(&in.reqs[ris[j]])
		}
		a0, c0 := totalAlloc(), cpuTime()
		t0 := time.Now()
		for j, req := range reqs {
			s := time.Now()
			inst.h.ServeHTTP(recs[j], req)
			ph.lat = append(ph.lat, time.Since(s))
		}
		wall, cpu := time.Since(t0), cpuTime()-c0
		ph.wall += wall
		ph.cpu += cpu
		ph.alloc += totalAlloc() - a0
		for j := range reqs {
			r := &in.reqs[ris[j]]
			ph.cls = append(ph.cls, r.cls)
			if err := chk.check(ris[j], recs[j].code, recs[j].body.Bytes()); err != nil {
				if ph.failed < 5 {
					fmt.Printf("FAIL op %d (%s %s): %v\n", ph.ops+int64(j), r.method, r.path, err)
				}
				ph.failed++
			}
			if ph.ops < exactOps {
				ph.exactBytes += int64(recs[j].body.Len())
				if r.method == "PUT" {
					ph.exactPuts++
				}
			}
		}
		pos += sliceOps
		ph.ops += sliceOps
		if ph.ops == exactOps {
			after, err := readCounters(inst.h)
			if err != nil {
				return nil, err
			}
			ph.exact = after.delta(before)
		}
	}
	return ph, nil
}

// quantile is the q-quantile of sorted durations, in milliseconds.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / 1e6
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd takes every timing over the whole timed phase: ops per timed
// second, percentiles of all its latencies, CPU per op. The host's speed
// switches between states every few seconds (a factor of up to 1.6 on
// eval_hot), so a run's figures are a mix of those states; pooled over the
// run they move with the mix, where a median over sub-second windows jumps
// from one state to the other when the mix is near half.
func endToEnd(ph *phase, setups []float64, heapMB float64) map[string]metric {
	lat := slices.Clone(ph.lat)
	slices.Sort(lat)
	n := float64(ph.ops)
	return map[string]metric{
		"throughput_ops_s": {n / ph.wall.Seconds(), "1/s"},
		"latency_p50_ms":   {quantile(lat, 0.50), "ms"},
		"latency_p99_ms":   {quantile(lat, 0.99), "ms"},
		"cpu_ms_per_op":    {float64(ph.cpu) / 1e6 / n, "ms"},
		"alloc_kb_per_op":  {float64(ph.alloc) / 1024 / n, "KiB"},
		"heap_live_mb":     {heapMB, "MiB"},
		"setup_s":          {median(setups), "s"},
	}
}

// classLatencies returns p50 and p99 per op class, in milliseconds.
func classLatencies(ph *phase) (p50, p99 [numClasses]float64, count [numClasses]int) {
	var by [numClasses][]time.Duration
	for i, d := range ph.lat {
		by[ph.cls[i]] = append(by[ph.cls[i]], d)
	}
	for c := range by {
		slices.Sort(by[c])
		p50[c], p99[c], count[c] = quantile(by[c], 0.5), quantile(by[c], 0.99), len(by[c])
	}
	return
}

func printReport(w workload, ph *phase, e2e map[string]metric) {
	fmt.Printf("timed: %d ops in %.3fs wall (closed loop, 1 client), %d failed, fail_ratio %.6f, %d latency samples (%d beyond p99)\n",
		ph.ops, ph.wall.Seconds(), ph.failed, float64(ph.failed)/float64(ph.ops), len(ph.lat), len(ph.lat)/100)
	for _, k := range []string{"throughput_ops_s", "latency_p50_ms", "latency_p99_ms", "cpu_ms_per_op", "alloc_kb_per_op", "heap_live_mb", "setup_s"} {
		fmt.Printf("  %-18s %12.4f %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	p50, p99, count := classLatencies(ph)
	for c := class(0); c < numClasses; c++ {
		if count[c] > 0 {
			fmt.Printf("  op.%-10s n=%-7d p50 %.4f ms  p99 %.4f ms\n", c, count[c], p50[c], p99[c])
		}
	}
	x := ph.exact
	fmt.Printf("exact over the first %d timed ops: cache hits %.0f misses %.0f evictions %.0f invalidations %.0f; hydrations %.0f; evals %.0f; index builds %d loads %d; puts %d; response bytes %d\n",
		exactOps, x.m["cqtrees_cache_hits_total"], x.m["cqtrees_cache_misses_total"],
		x.m["cqtrees_cache_evictions_total"], x.m["cqtrees_cache_invalidations_total"],
		x.m["cqtrees_corpus_hydrations_total"], x.m["cqtrees_evals_total"],
		x.indexBuilds, x.indexLoads, ph.exactPuts, ph.exactBytes)
}
