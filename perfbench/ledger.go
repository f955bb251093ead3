package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"time"
)

// traceOps caps how many of the timed phase's ops the traced run replays;
// the untraced mean it reconciles against is taken over the same ops.
const traceOps = 10000

// traceRun replays the timed phase's ops on a replica with tracing on and
// returns the per-layer metrics: the layer ledger, reconciled against the
// untraced run's mean latency, plus the exact counts.
func traceRun(w workload, in *inputs, ex *expectations, corpusBytes int64, ph *phase) (map[string]metric, error) {
	dir := ""
	if w.persistent {
		var err error
		if dir, err = scratchDir("replay-"); err != nil {
			return nil, err
		}
	}
	r, err := newReplica(in, serverConfig(w, corpusBytes, dir))
	if err != nil {
		return nil, err
	}
	// Every replayed response goes through the same checker as the
	// server's, so a replica that drifts from the server fails the run
	// instead of hiding in serve.residual.
	chk := newChecker(in, ex)
	replay := func(ri int) (int, error) {
		n, body, err := r.do(&in.reqs[ri])
		if err == nil {
			err = chk.check(ri, http.StatusOK, body)
		}
		return n, err
	}
	// Warm up exactly as drive did, untraced.
	if w.warm {
		for ri := range in.reqs {
			if _, err := replay(ri); err != nil {
				return nil, fmt.Errorf("replay warm-up: %w", err)
			}
		}
	} else {
		for pos := 0; pos < ph.start; pos++ {
			if _, err := replay(int(in.seq[pos])); err != nil {
				return nil, fmt.Errorf("replay warm-up: %w", err)
			}
		}
	}

	counts := engineCounts{backtrackSteps: map[[2]int]int{}, revisions: map[[2]int]int{}}
	var answers, steps, revisions int64
	hydrated := r.corpus.Hydrations()
	n := min(ph.ops, traceOps)
	r.tr = newTracer(int(n) * 12)
	t := r.tr
	for i := int64(0); i < n; i++ {
		ri := int(in.seq[(int64(ph.start)+i)%int64(len(in.seq))])
		req := &in.reqs[ri]
		if i < exactOps && req.method == "POST" && req.cls != clsPage {
			q := req.query
			for _, d := range req.docs {
				switch tree := r.current[d]; in.queries[q].strat {
				case stratBacktrack:
					steps += int64(counts.steps(ex, q, in.queries[q].mode, tree))
				case stratXProp:
					revisions += int64(counts.revise(ex, q, tree))
				}
			}
		}
		t.op = int32(i)
		t.begin(lOp)
		n, body, err := r.do(req)
		t.end()
		if err == nil {
			err = chk.check(ri, http.StatusOK, body)
		}
		if err != nil {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		if i < exactOps {
			answers += int64(n)
		}
	}
	real, shadow := t.selfTimes()
	if err := t.write(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.tsv", w.name, in.seed))); err != nil {
		return nil, err
	}
	nspans := len(t.spans)
	perSpan := spanCost()

	ops := float64(n)
	var untraced time.Duration
	for _, d := range ph.lat[:n] {
		untraced += d
	}
	perOp := func(d time.Duration) float64 { return float64(d) / 1e6 / ops } // ms per op
	// Move the batch shadow re-execution time from the batch span to the
	// modules that did the work.
	get := real[lGet] + shadow[lGet]
	batch := real[lBatch] - shadow[lGet] - shadow[lEvalAcyclic] - shadow[lEvalXProp] - shadow[lEvalBacktrack]
	eval := func(l layer) time.Duration { return real[l] + shadow[l] }
	var layerSum time.Duration
	for l := lDecode; l < numLayers; l++ {
		if l != lLoad {
			layerSum += real[l]
		}
	}
	residual := perOp(untraced) - perOp(layerSum)

	x := ph.exact
	kop := func(v float64) float64 { return 1000 * v / exactOps }
	hits, misses := x.m["cqtrees_cache_hits_total"], x.m["cqtrees_cache_misses_total"]
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	hydrations := x.m["cqtrees_corpus_hydrations_total"]
	puts := countPuts(in, ph.start, n)
	perPut := func(d time.Duration) float64 {
		if puts == 0 {
			return 0
		}
		return float64(d) / 1e6 / float64(puts)
	}
	replayHydrations := r.corpus.Hydrations() - hydrated
	perLoad := 0.0
	if replayHydrations > 0 {
		perLoad = float64(shadow[lLoad]) / 1e6 / float64(replayHydrations)
	}

	m := map[string]metric{
		"serve.residual_ms_per_op":           {residual, "ms"},
		"serve.decode_us_per_op":             {1000 * perOp(real[lDecode]), "us"},
		"serve.encode_us_per_op":             {1000 * perOp(real[lEncode]), "us"},
		"serve.response_bytes_per_op":        {float64(ph.exactBytes) / exactOps, "B"},
		"cache.hit_ratio":                    {hitRatio, "ratio"},
		"cache.lookup_us_per_op":             {1000 * perOp(real[lLookup]), "us"},
		"cache.fill_us_per_op":               {1000 * perOp(real[lFill]), "us"},
		"cache.evictions_per_kop":            {kop(x.m["cqtrees_cache_evictions_total"]), "count"},
		"cache.invalidations_per_kop":        {kop(x.m["cqtrees_cache_invalidations_total"]), "count"},
		"core.compile_us_per_op":             {1000 * perOp(real[lCompile]), "us"},
		"corpus.hydrations_per_kop":          {kop(hydrations), "count"},
		"corpus.get_ms_per_op":               {perOp(get), "ms"},
		"corpus.batch_self_ms_per_op":        {perOp(batch), "ms"},
		"corpus.swap_ms_per_op":              {perOp(real[lSwap]), "ms"},
		"core.eval_ms_per_op.acyclic":        {perOp(eval(lEvalAcyclic)), "ms"},
		"core.eval_ms_per_op.xprop":          {perOp(eval(lEvalXProp)), "ms"},
		"core.eval_ms_per_op.backtrack":      {perOp(eval(lEvalBacktrack)), "ms"},
		"core.page_ms_per_op":                {perOp(real[lPage]), "ms"},
		"core.answers_per_op":                {float64(answers) / exactOps, "count"},
		"core.backtrack_steps_per_op":        {float64(steps) / exactOps, "count"},
		"consistency.revisions_per_op":       {float64(revisions) / exactOps, "count"},
		"consistency.index_build_ms_per_put": {perPut(real[lIndex]), "ms"},
		"consistency.index_builds_per_kop":   {kop(float64(x.indexBuilds)), "count"},
		"consistency.index_loads_per_kop":    {kop(float64(x.indexLoads)), "count"},
		"tree.parse_ms_per_put":              {perPut(real[lParse]), "ms"},
		"snapshot.persist_ms_per_put":        {perPut(real[lPersist]), "ms"},
		"snapshot.load_ms_per_hydration":     {perLoad, "ms"},
		"trace.overhead_us_per_op":           {float64(nspans) / ops * perSpan, "us"},
	}
	p50, p99, _ := classLatencies(ph)
	for c := class(0); c < numClasses; c++ {
		m["op."+c.String()+".latency_p50_ms"] = metric{p50[c], "ms"}
		m["op."+c.String()+".latency_p99_ms"] = metric{p99[c], "ms"}
	}

	// The ledger: every module's self time per op; the rows sum to the
	// untraced run's mean latency.
	fmt.Printf("ledger %s: self time per op over %d replayed ops (%d spans, %.3f us tracing overhead per op)\n",
		w.name, n, nspans, m["trace.overhead_us_per_op"].Value)
	rows := []struct {
		name string
		ms   float64
	}{
		{"serve.decode", perOp(real[lDecode])},
		{"core.compile", perOp(real[lCompile])},
		{"cache.lookup", perOp(real[lLookup])},
		{"cache.fill", perOp(real[lFill])},
		{"corpus.get", perOp(get)},
		{"corpus.batch (self)", perOp(batch)},
		{"corpus.swap", perOp(real[lSwap])},
		{"core.eval.acyclic", perOp(eval(lEvalAcyclic))},
		{"core.eval.xprop", perOp(eval(lEvalXProp))},
		{"core.eval.backtrack", perOp(eval(lEvalBacktrack))},
		{"core.page", perOp(real[lPage])},
		{"tree.parse", perOp(real[lParse])},
		{"consistency.index", perOp(real[lIndex])},
		{"snapshot.persist", perOp(real[lPersist])},
		{"serve.encode", perOp(real[lEncode])},
		{"serve.residual", residual},
	}
	total := 0.0
	for _, row := range rows {
		total += row.ms
		fmt.Printf("  %-32s %10.4f ms/op\n", row.name, row.ms)
	}
	fmt.Printf("  %-32s %10.4f ms/op (untraced mean latency %.4f ms; traced op mean %.4f ms, benchmark glue %.4f ms)\n",
		"sum", total, perOp(untraced), perOp(real[lOp]+layerSum), perOp(real[lOp]))
	if replayHydrations > 0 {
		fmt.Printf("  corpus.get includes %d hydrations; a snapshot load re-run alone takes %.4f ms each\n",
			replayHydrations, perLoad)
	}
	return m, nil
}

// countPuts is the number of PUT ops among the n ops from start.
func countPuts(in *inputs, start int, n int64) int64 {
	var puts int64
	for i := int64(0); i < n; i++ {
		if in.reqs[in.seq[(int64(start)+i)%int64(len(in.seq))]].method == "PUT" {
			puts++
		}
	}
	return puts
}

// spanCost is the measured cost of recording one span, in microseconds.
func spanCost() float64 {
	const n = 200000
	t := newTracer(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.begin(lOp)
		t.end()
	}
	return float64(time.Since(start)) / 1e3 / n
}
