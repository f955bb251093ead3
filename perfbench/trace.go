package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	cqtrees "repro"
	"repro/internal/cache"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/serve"
)

// The traced run replays the timed phase's ops as the chain of library
// calls the server makes for each of them, with one span per call under a
// per-op root span. Spans are recorded from the benchmark's own files,
// around the calls into each module; the program itself is not changed.

// layer is one module boundary of the replay.
type layer uint8

const (
	lOp            layer = iota // root: one op
	lShadow                     // root: a re-execution only used to split a span
	lDecode                     // serve: JSON decode of the request body
	lEncode                     // serve: JSON / NDJSON encode of the response
	lCompile                    // cq+core: cqtrees.Compile of an inline source
	lLookup                     // cache: Cache.Get
	lFill                       // cache: Cache.Do around a miss's computation
	lGet                        // corpus: Corpus.Version / Corpus.GetErr
	lBatch                      // corpus: Corpus.Bool/Nodes/Tuples
	lSwap                       // corpus: Corpus.Swap
	lEvalAcyclic                // core: PreparedQuery evaluation, acyclic plan
	lEvalXProp                  // core: PreparedQuery evaluation, X-property plan
	lEvalBacktrack              // core: PreparedQuery evaluation, backtracking plan
	lPage                       // core: PreparedQuery.Paginate
	lParse                      // tree: cqtrees.ParseTree
	lIndex                      // consistency: cqtrees.Index
	lPersist                    // snapshot: Corpus.PersistDoc
	lLoad                       // snapshot: cqtrees.LoadDocumentFile
	numLayers
)

var layerNames = [numLayers]string{"op", "shadow", "serve.decode", "serve.encode", "core.compile",
	"cache.lookup", "cache.fill", "corpus.get", "corpus.batch", "corpus.swap", "core.eval.acyclic",
	"core.eval.xprop", "core.eval.backtrack", "core.page", "tree.parse", "consistency.index",
	"snapshot.persist", "snapshot.load"}

type span struct {
	op         int32
	parent     int32 // index into tracer.spans; -1 for roots
	layer      layer
	start, end int64 // ns since tracer.base
}

// tracer keeps spans in memory, preallocated; they are written out when
// the run ends.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32
	op    int32
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity), stack: make([]int32, 0, 8)}
}

func (t *tracer) begin(l layer) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, span{op: t.op, parent: parent, layer: l, start: int64(time.Since(t.base))})
}

func (t *tracer) end() {
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].end = int64(time.Since(t.base))
}

// selfTimes returns each layer's summed self time — a span's duration
// minus the part its child spans cover — separately for real spans and
// for spans under a shadow root.
func (t *tracer) selfTimes() (real, shadow [numLayers]time.Duration) {
	child := make([]int64, len(t.spans))
	under := make([]bool, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
			under[i] = under[s.parent]
		}
		under[i] = under[i] || s.layer == lShadow
	}
	for i, s := range t.spans {
		d := time.Duration(s.end - s.start - child[i])
		if under[i] {
			shadow[s.layer] += d
		} else {
			real[s.layer] += d
		}
	}
	return real, shadow
}

// write stores the spans as TSV: op, span, parent, layer, start_ns, end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "op\tspan\tparent\tlayer\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, i, s.parent, layerNames[s.layer], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replica mirrors what serve.New builds — corpus, result cache and
// invalidation hook — so the replay calls the same library code on the
// same state the server held.
type replica struct {
	cfg     serve.Config
	corpus  *cqtrees.Corpus
	cache   *cache.Cache
	queries map[string]*cqtrees.PreparedQuery
	tr      *tracer
	current []int // pool tree per document slot
}

func newReplica(in *inputs, cfg serve.Config) (*replica, error) {
	r := &replica{cfg: cfg, queries: map[string]*cqtrees.PreparedQuery{},
		cache: cache.New(cfg.CacheBytes, cfg.CacheMaxEntry), current: make([]int, numDocs)}
	var opts []cqtrees.CorpusOption
	if cfg.MaxCorpusBytes > 0 {
		opts = append(opts, cqtrees.WithMaxBytes(cfg.MaxCorpusBytes))
	}
	if cfg.NoFsync {
		opts = append(opts, cqtrees.WithNoFsync())
	}
	if r.cache != nil {
		opts = append(opts, cqtrees.WithInvalidationHook(func(name string) { r.cache.InvalidateDoc(name) }))
	}
	r.corpus = cqtrees.NewCorpus(opts...)
	r.tr = newTracer(0)
	for _, q := range registered {
		pq, err := cqtrees.Compile(q.src)
		if err != nil {
			return nil, err
		}
		r.queries[q.name] = pq
	}
	for d := 0; d < numDocs; d++ {
		req := request{method: "PUT", path: "/docs/" + docName(d), body: in.putBodies[d], docs: []int{d}, tree: d}
		if _, err := r.put(&req); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// evalRow and evalOut mirror the server's response rows and body.
type evalRow struct {
	Doc    string             `json:"doc"`
	Sat    *bool              `json:"sat,omitempty"`
	Nodes  []cqtrees.NodeID   `json:"nodes,omitempty"`
	Tuples [][]cqtrees.NodeID `json:"tuples,omitempty"`
}

type evalOut struct {
	Mode       string    `json:"mode"`
	Plan       string    `json:"plan"`
	Docs       int       `json:"docs"`
	Errors     int       `json:"errors"`
	Results    []evalRow `json:"results"`
	NextCursor string    `json:"next_cursor,omitempty"`
}

func evalLayer(pq *cqtrees.PreparedQuery) layer {
	switch pq.Plan().Strategy {
	case core.StrategyAcyclic:
		return lEvalAcyclic
	case core.StrategyXProperty:
		return lEvalXProp
	}
	return lEvalBacktrack
}

// do replays one op and returns its answer rows and the response body it
// encoded, which the caller checks like the server's.
func (r *replica) do(req *request) (answers int, resp []byte, err error) {
	if req.method == "PUT" {
		resp, err = r.put(req)
		return 0, resp, err
	}
	t := r.tr
	t.begin(lDecode)
	var body evalBody
	dec := json.NewDecoder(bytes.NewReader(req.body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&body)
	t.end()
	if err != nil {
		return 0, nil, err
	}
	pq := r.queries[body.Query]
	if body.Source != "" {
		t.begin(lCompile)
		pq, err = cqtrees.Compile(body.Source)
		t.end()
		if err != nil {
			return 0, nil, err
		}
	}
	ctx := context.Background()
	out := evalOut{Mode: body.Mode, Plan: pq.Plan().String()}
	switch {
	case req.cls == clsPage:
		return r.page(pq, &body, &out)
	case req.ndjson:
		return r.stream(pq, &body)
	case r.cache != nil:
		fp := pq.Query().Fingerprint()
		for _, name := range body.Docs {
			t.begin(lGet)
			ver, _ := r.corpus.Version(name)
			t.end()
			k := cache.Key{Query: fp, Doc: name, Version: ver, Mode: body.Mode}
			t.begin(lLookup)
			v, ok := r.cache.Get(k)
			t.end()
			if !ok {
				t.begin(lFill)
				v, err = r.cache.Do(ctx, k, func() (any, int64, error) { return r.compute(pq, body.Mode, name) })
				t.end()
				if err != nil {
					return 0, nil, err
				}
			}
			answers += addRow(&out, name, body.Mode, v)
		}
	default:
		t.begin(lBatch)
		opts := []cqtrees.BatchOption{cqtrees.WithBatchContext(ctx), cqtrees.WithDocs(body.Docs...)}
		switch body.Mode {
		case "bool":
			for res := range r.corpus.Bool(pq, opts...) {
				answers += addRow(&out, res.Doc, "bool", res.Sat)
				err = errors.Join(err, res.Err)
			}
		case "nodes":
			for res := range r.corpus.Nodes(pq, opts...) {
				answers += addRow(&out, res.Doc, "nodes", res.Nodes)
				err = errors.Join(err, res.Err)
			}
		default:
			for res := range r.corpus.Tuples(pq, opts...) {
				answers += addRow(&out, res.Doc, "tuples", res.Tuples)
				err = errors.Join(err, res.Err)
			}
		}
		t.end()
		if err != nil {
			return 0, nil, err
		}
		// The batch fans out to worker goroutines the replay cannot span;
		// re-running its per-document work directly splits the batch span
		// into engine time and the corpus's own.
		t.begin(lShadow)
		for _, name := range body.Docs {
			if _, _, err := r.compute(pq, body.Mode, name); err != nil {
				return 0, nil, err
			}
		}
		t.end()
	}
	out.Docs = len(out.Results)
	resp, err = encode(t, out)
	return answers, resp, err
}

// encode is the server's JSON encode of a response, spanned.
func encode(t *tracer, v any) ([]byte, error) {
	var buf bytes.Buffer
	t.begin(lEncode)
	err := json.NewEncoder(&buf).Encode(v)
	t.end()
	return buf.Bytes(), err
}

// compute is the server's per-document evaluation behind a cache miss.
func (r *replica) compute(pq *cqtrees.PreparedQuery, mode, name string) (any, int64, error) {
	doc, err := r.get(name)
	if err != nil {
		return nil, 0, err
	}
	t := r.tr
	t.begin(evalLayer(pq))
	defer t.end()
	switch mode {
	case "bool":
		v, err := pq.BoolErr(doc)
		return v, 16, err
	case "nodes":
		v, err := pq.NodesErr(doc)
		return v, 48 + 4*int64(len(v)), err
	}
	var rows [][]cqtrees.NodeID
	size := int64(64)
	for tuple := range pq.Tuples(doc) {
		// The server copies each tuple, as here; its answer cap is off in
		// every workload (serve.Config.MaxAnswers is 0).
		rows = append(rows, slices.Clone(tuple))
		size += 32 + 4*int64(len(tuple))
	}
	slices.SortFunc(rows, slices.Compare[[]cqtrees.NodeID])
	return rows, size, nil
}

// get is Corpus.GetErr; a hydration it triggers is re-run as a shadow
// snapshot load so the ledger can split it from the corpus's own time.
func (r *replica) get(name string) (*cqtrees.Document, error) {
	t := r.tr
	before := r.corpus.Hydrations()
	t.begin(lGet)
	doc, err := r.corpus.GetErr(name)
	t.end()
	if err == nil && r.corpus.Hydrations() != before {
		t.begin(lShadow)
		t.begin(lLoad)
		_, err = cqtrees.LoadDocumentFile(filepath.Join(r.cfg.DataDir, corpus.FileName(name)))
		t.end()
		t.end()
	}
	return doc, err
}

func addRow(out *evalOut, doc, mode string, v any) int {
	row := evalRow{Doc: doc}
	n := 0
	switch mode {
	case "bool":
		sat := v.(bool)
		row.Sat = &sat
		if sat {
			n = 1
		}
	case "nodes":
		row.Nodes = v.([]cqtrees.NodeID)
		n = len(row.Nodes)
	default:
		row.Tuples = v.([][]cqtrees.NodeID)
		n = len(row.Tuples)
	}
	out.Results = append(out.Results, row)
	return n
}

func (r *replica) page(pq *cqtrees.PreparedQuery, body *evalBody, out *evalOut) (int, []byte, error) {
	t := r.tr
	name := body.Docs[0]
	doc, err := r.get(name)
	if err != nil {
		return 0, nil, err
	}
	ver, _ := r.corpus.Version(name)
	opts := []cqtrees.EvalOption{cqtrees.WithLimit(body.Limit), cqtrees.WithDocVersion(ver)}
	if body.Cursor != "" {
		opts = append(opts, cqtrees.WithCursor(body.Cursor))
	} else {
		dirs := make([]cqtrees.Dir, len(body.Order))
		for i, o := range body.Order {
			dirs[i], _ = cqtrees.ParseDir(o)
		}
		opts = append(opts, cqtrees.WithOrder(dirs...))
	}
	t.begin(lPage)
	page, err := pq.Paginate(doc, opts...)
	t.end()
	if err != nil {
		return 0, nil, err
	}
	out.Results = append(out.Results, evalRow{Doc: name, Tuples: page.Tuples})
	out.NextCursor = page.Next
	out.Docs = 1
	b, err := encode(t, out)
	return len(page.Tuples), b, err
}

func (r *replica) stream(pq *cqtrees.PreparedQuery, body *evalBody) (int, []byte, error) {
	t := r.tr
	type line struct {
		Doc   string           `json:"doc"`
		Tuple []cqtrees.NodeID `json:"tuple,omitempty"`
		Done  bool             `json:"done,omitempty"`
		Count *int             `json:"count,omitempty"`
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	answers := 0
	for _, name := range body.Docs {
		doc, err := r.get(name)
		if err != nil {
			return 0, nil, err
		}
		var rows [][]cqtrees.NodeID
		t.begin(evalLayer(pq))
		for tuple := range pq.Tuples(doc) {
			rows = append(rows, tuple)
		}
		t.end()
		t.begin(lEncode)
		for _, row := range rows {
			_ = enc.Encode(line{Doc: name, Tuple: row})
		}
		n := len(rows)
		_ = enc.Encode(line{Doc: name, Done: true, Count: &n})
		t.end()
		answers += n
	}
	t.begin(lEncode)
	_ = enc.Encode(struct {
		Summary bool `json:"summary"`
		Docs    int  `json:"docs"`
		Errors  int  `json:"errors"`
	}{true, len(body.Docs), 0})
	t.end()
	return answers, buf.Bytes(), nil
}

// put replays PUT /docs/{name}: decode, parse, index, swap, persist.
func (r *replica) put(req *request) ([]byte, error) {
	t := r.tr
	t.begin(lDecode)
	var body struct {
		Term string `json:"term"`
	}
	err := json.Unmarshal(req.body, &body)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin(lParse)
	tr, err := cqtrees.ParseTree(body.Term)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin(lIndex)
	doc := cqtrees.Index(tr)
	t.end()
	name := docName(req.docs[0])
	t.begin(lSwap)
	_, err = r.corpus.Swap(name, doc)
	t.end()
	if err != nil {
		return nil, err
	}
	if r.cfg.DataDir != "" {
		t.begin(lPersist)
		err = r.corpus.PersistDoc(r.cfg.DataDir, name)
		t.end()
		if err != nil {
			return nil, err
		}
	}
	st, _ := r.corpus.Stat(name)
	b, err := encode(t, docRow{Name: name, Nodes: st.Nodes, Bytes: st.Bytes, Hydrated: st.Hydrated})
	r.current[req.docs[0]] = req.tree
	return b, err
}

// docRow mirrors the server's PUT /docs response.
type docRow struct {
	Name     string `json:"name"`
	Nodes    int    `json:"nodes"`
	Bytes    int64  `json:"bytes"`
	Hydrated bool   `json:"hydrated"`
}

// engineCounts are the exact per-op engine counts of the replayed prefix,
// taken from dedicated instrumented calls on the same query and tree.
type engineCounts struct {
	backtrackSteps map[[2]int]int
	revisions      map[[2]int]int
}

func (c *engineCounts) steps(ex *expectations, q int, mode string, tree int) int {
	k := [2]int{q, tree}
	if n, ok := c.backtrackSteps[k]; ok {
		return n
	}
	e := core.NewBacktrackEngine()
	t, cq := ex.docs[tree].Tree(), ex.pqs[q].Query()
	if mode == "bool" {
		e.EvalBoolean(t, cq)
	} else {
		e.EvalAll(t, cq)
	}
	c.backtrackSteps[k] = e.Steps()
	return e.Steps()
}

func (c *engineCounts) revise(ex *expectations, q, tree int) int {
	k := [2]int{q, tree}
	if n, ok := c.revisions[k]; ok {
		return n
	}
	t, cq := ex.docs[tree].Tree(), ex.pqs[q].Query()
	_, st, _ := consistency.NewScratch().FastACFromStats(t, cq, consistency.NewPrevaluation(t, cq))
	c.revisions[k] = st.Revisions
	return st.Revisions
}
