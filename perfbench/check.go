package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	cqtrees "repro"
	"repro/internal/core"
	"repro/internal/tree"
)

// answer is one (query, tree) result as the library computes it.
type answer struct {
	sat    bool
	nodes  []cqtrees.NodeID
	tuples [][]cqtrees.NodeID
}

// expectations holds every answer a run can be checked against, computed
// through the library before anything is timed.
type expectations struct {
	pqs  []*cqtrees.PreparedQuery
	docs []*cqtrees.Document // indexed pool trees, own copies
	ans  map[[2]int]*answer  // (query, pool tree)
	// walkRel[w] is the first walkPages pages of walk w's relation in the
	// walk's order; cursors[w][p] is the cursor page p is requested with
	// ("" for page 0).
	walkRel [][][]cqtrees.NodeID
	cursors [][]string
}

// compile prepares every query and checks that the engine plans it with
// the strategy its class stands for.
func compileQueries(qs []querySpec) ([]*cqtrees.PreparedQuery, error) {
	out := make([]*cqtrees.PreparedQuery, len(qs))
	for i, q := range qs {
		pq, err := cqtrees.Compile(q.src)
		if err != nil {
			return nil, fmt.Errorf("compile %q: %w", q.src, err)
		}
		var got strategy
		switch pq.Plan().Strategy {
		case core.StrategyAcyclic:
			got = stratAcyclic
		case core.StrategyXProperty:
			got = stratXProp
		default:
			got = stratBacktrack
		}
		if got != q.strat {
			return nil, fmt.Errorf("query %q planned %s, want %s", q.src, got, q.strat)
		}
		out[i] = pq
	}
	return out, nil
}

// maxRefuteSteps bounds the search steps a backtracking Boolean query may
// take on a tree where it is false.
const maxRefuteSteps = 64

// expect precomputes the answers of every (query, tree) pair the op
// sequence can observe. On doc_churn a read may meet any pool tree (PUTs
// move trees between documents), so every read query is computed on
// every pool tree.
func expect(in *inputs) (*expectations, error) {
	pqs, err := compileQueries(in.queries)
	if err != nil {
		return nil, err
	}
	ex := &expectations{pqs: pqs, ans: map[[2]int]*answer{}}
	for _, t := range in.trees {
		ex.docs = append(ex.docs, cqtrees.Index(t))
	}
	need := func(q, t int) error {
		k := [2]int{q, t}
		if ex.ans[k] != nil {
			return nil
		}
		a, err := evalAnswer(pqs[q], in.queries[q].mode, ex.docs[t])
		if err != nil {
			return fmt.Errorf("expect %q on tree %d: %w", in.queries[q].src, t, err)
		}
		if in.queries[q].mode == "tuples" && len(a.tuples) == 0 ||
			in.queries[q].mode == "nodes" && len(a.nodes) == 0 {
			// An empty answer would let a server that returns nothing pass.
			return fmt.Errorf("query %q has no answers on tree %d", in.queries[q].src, t)
		}
		if in.queries[q].strat == stratBacktrack && in.queries[q].mode == "bool" && !a.sat {
			// An unsatisfiable backtracking query may search its whole space;
			// it is only allowed where the search refutes it at once.
			e := core.NewBacktrackEngine()
			e.EvalBoolean(ex.docs[t].Tree(), pqs[q].Query())
			if e.Steps() > maxRefuteSteps {
				return fmt.Errorf("query %q: refuting it on tree %d took %d search steps", in.queries[q].src, t, e.Steps())
			}
		}
		ex.ans[k] = a
		return nil
	}
	for _, r := range in.reqs {
		if r.method != "POST" {
			continue
		}
		for _, d := range r.docs {
			trees := []int{d}
			if in.w.persistent {
				trees = trees[:0]
				for t := range in.trees {
					trees = append(trees, t)
				}
			}
			for _, t := range trees {
				if err := need(r.query, t); err != nil {
					return nil, err
				}
			}
		}
	}
	// Each plan's Boolean answers must take both values over the trees the
	// run can observe; otherwise a server that answers a constant passes.
	seen := map[strategy][2]bool{}
	for k, a := range ex.ans {
		if q := in.queries[k[0]]; q.mode == "bool" {
			s := seen[q.strat]
			if a.sat {
				s[1] = true
			} else {
				s[0] = true
			}
			seen[q.strat] = s
		}
	}
	for strat, s := range seen {
		if !s[0] || !s[1] {
			return nil, fmt.Errorf("%s Boolean queries answer only %v on this corpus", strat, s[1])
		}
	}
	for _, w := range in.walks {
		dirs := make([]cqtrees.Dir, len(w.order))
		for i, o := range w.order {
			if dirs[i], err = cqtrees.ParseDir(o); err != nil {
				return nil, err
			}
		}
		rel, err := pqs[pageQuery].AllErr(ex.docs[w.doc], cqtrees.WithOrder(dirs...))
		if err != nil {
			return nil, err
		}
		if len(rel) <= walkPages*pageSize {
			return nil, fmt.Errorf("walk on %s: %d answers, need more than %d", docName(w.doc), len(rel), walkPages*pageSize)
		}
		sorted := slices.Clone(rel)
		slices.SortFunc(sorted, slices.Compare[[]cqtrees.NodeID])
		if !sameRel(sorted, ex.ans[[2]int{pageQuery, w.doc}].tuples) {
			return nil, fmt.Errorf("walk on %s: ordered relation differs from the one-shot relation", docName(w.doc))
		}
		// Keep only the pages the walk asks for: the benchmark's own live
		// heap sets how often the collector runs during set-up.
		ex.walkRel = append(ex.walkRel, slices.Clone(rel[:walkPages*pageSize]))
	}
	for _, w := range in.walks {
		delete(ex.ans, [2]int{pageQuery, w.doc}) // page responses are checked against walkRel
	}
	return ex, nil
}

func evalAnswer(pq *cqtrees.PreparedQuery, mode string, doc *cqtrees.Document) (*answer, error) {
	a := &answer{}
	var err error
	switch mode {
	case "bool":
		a.sat, err = pq.BoolErr(doc)
	case "nodes":
		a.nodes, err = pq.NodesErr(doc)
	default:
		a.tuples, err = pq.AllErr(doc)
	}
	return a, err
}

// encodePages mints the cursor of every page of every walk through the
// library, bound to the server's document versions, and encodes the page
// requests with them. The server must answer page p with exactly the
// tuples of that slice of the walk's relation and the next page's cursor.
func encodePages(in *inputs, ex *expectations, version func(doc int) uint64) error {
	pq := ex.pqs[pageQuery]
	ex.cursors = make([][]string, len(in.walks))
	for wi, w := range in.walks {
		dirs := make([]cqtrees.Dir, len(w.order))
		for i, o := range w.order {
			dirs[i], _ = cqtrees.ParseDir(o)
		}
		ver := version(w.doc)
		cur := ""
		for p := 0; p <= walkPages; p++ {
			ex.cursors[wi] = append(ex.cursors[wi], cur)
			opts := []cqtrees.EvalOption{cqtrees.WithLimit(pageSize), cqtrees.WithDocVersion(ver)}
			if cur == "" {
				opts = append(opts, cqtrees.WithOrder(dirs...))
			} else {
				opts = append(opts, cqtrees.WithCursor(cur))
			}
			page, err := pq.Paginate(ex.docs[w.doc], opts...)
			if err != nil {
				return fmt.Errorf("walk %d page %d: %w", wi, p, err)
			}
			cur = page.Next
		}
	}
	for i := range in.reqs {
		r := &in.reqs[i]
		if r.cls == clsPage {
			r.body = encodeBody(in, r, ex.cursors[r.walk][r.page])
		}
	}
	return nil
}

// crossCheckReference compares every query's PreparedQuery answers with
// core.ReferenceEvalAll, the brute-force semantics, on a few small trees
// drawn from the same distribution as the corpus.
func crossCheckReference(in *inputs, ex *expectations, seed int64) error {
	small := []*tree.Tree{}
	for i := 0; i < 3; i++ {
		small = append(small, randomTree(seed+int64(i), 10))
	}
	for qi, pq := range ex.pqs {
		for ti, t := range small {
			got, err := pq.AllErr(cqtrees.Index(t))
			if err != nil {
				return err
			}
			want := core.ReferenceEvalAll(t, pq.Query())
			slices.SortFunc(want, slices.Compare[[]cqtrees.NodeID])
			if !sameRel(got, want) {
				return fmt.Errorf("query %q on small tree %d: engine %v, reference %v", in.queries[qi].src, ti, got, want)
			}
		}
	}
	return nil
}

func sameRel(a, b [][]cqtrees.NodeID) bool {
	return slices.EqualFunc(a, b, func(x, y []cqtrees.NodeID) bool { return slices.Equal(x, y) })
}

// evalResp mirrors the server's buffered /eval response.
type evalResp struct {
	Results []struct {
		Doc    string             `json:"doc"`
		Sat    *bool              `json:"sat"`
		Nodes  []cqtrees.NodeID   `json:"nodes"`
		Tuples [][]cqtrees.NodeID `json:"tuples"`
		Error  string             `json:"error"`
	} `json:"results"`
	Errors     int    `json:"errors"`
	NextCursor string `json:"next_cursor"`
}

// ndLine is one NDJSON stream line.
type ndLine struct {
	Doc     string           `json:"doc"`
	Tuple   []cqtrees.NodeID `json:"tuple"`
	Done    bool             `json:"done"`
	Count   *int             `json:"count"`
	Error   string           `json:"error"`
	Summary bool             `json:"summary"`
	Errors  int              `json:"errors"`
}

// checker verifies responses in op order. It tracks which pool tree each
// document currently holds, so a PUT changes the answers expected of that
// document's next version.
type checker struct {
	in      *inputs
	ex      *expectations
	current []int // pool tree per document slot
	// verified holds each request's last verified response. Where no PUT
	// can change an answer, a byte-identical response is verified by the
	// comparison alone.
	verified map[int][]byte
}

func newChecker(in *inputs, ex *expectations) *checker {
	c := &checker{in: in, ex: ex, current: make([]int, numDocs), verified: map[int][]byte{}}
	for d := range c.current {
		c.current[d] = d
	}
	return c
}

// check returns nil when the response to request ri is right.
func (c *checker) check(ri int, code int, body []byte) error {
	if v, ok := c.verified[ri]; ok && code == http.StatusOK && bytes.Equal(v, body) {
		return nil
	}
	err := c.verify(ri, code, body)
	if err == nil && !c.in.w.persistent && c.in.reqs[ri].method == "POST" {
		c.verified[ri] = bytes.Clone(body)
	}
	return err
}

func (c *checker) verify(ri int, code int, body []byte) error {
	r := &c.in.reqs[ri]
	if code < 200 || code > 299 {
		return fmt.Errorf("status %d: %.200s", code, body)
	}
	switch {
	case r.method == "PUT":
		var row struct {
			Nodes int `json:"nodes"`
		}
		if err := json.Unmarshal(body, &row); err != nil {
			return err
		}
		if row.Nodes != c.in.trees[r.tree].Len() {
			return fmt.Errorf("PUT %s: %d nodes, want %d", r.path, row.Nodes, c.in.trees[r.tree].Len())
		}
		c.current[r.docs[0]] = r.tree
		return nil
	case r.ndjson:
		return c.checkStream(r, body)
	}
	var resp evalResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Errors != 0 || len(resp.Results) != len(r.docs) {
		return fmt.Errorf("%d rows, %d errors: %.200s", len(resp.Results), resp.Errors, body)
	}
	if r.cls == clsPage {
		rel := c.ex.walkRel[r.walk]
		want := rel[r.page*pageSize : (r.page+1)*pageSize]
		if !sameRel(resp.Results[0].Tuples, want) {
			return fmt.Errorf("walk %d page %d: tuples differ from the one-shot relation's slice", r.walk, r.page)
		}
		if resp.NextCursor != c.ex.cursors[r.walk][r.page+1] {
			return fmt.Errorf("walk %d page %d: next_cursor %q, want %q", r.walk, r.page, resp.NextCursor, c.ex.cursors[r.walk][r.page+1])
		}
		return nil
	}
	mode := c.in.queries[r.query].mode
	for i, row := range resp.Results {
		d := r.docs[i]
		if row.Doc != docName(d) {
			return fmt.Errorf("row %d is %s, want %s", i, row.Doc, docName(d))
		}
		want := c.ex.ans[[2]int{r.query, c.current[d]}]
		ok := false
		switch mode {
		case "bool":
			ok = row.Sat != nil && *row.Sat == want.sat
		case "nodes":
			ok = slices.Equal(row.Nodes, want.nodes)
		default:
			ok = sameRel(row.Tuples, want.tuples)
		}
		if !ok {
			return fmt.Errorf("%s on %s: answer differs from the library's", c.in.queries[r.query].src, row.Doc)
		}
	}
	return nil
}

func (c *checker) checkStream(r *request, body []byte) error {
	got := map[string][][]cqtrees.NodeID{}
	counts := map[string]int{}
	summary := false
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var l ndLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return err
		}
		switch {
		case l.Summary:
			if l.Errors != 0 {
				return fmt.Errorf("stream summary reports %d errors", l.Errors)
			}
			summary = true
		case l.Error != "":
			return fmt.Errorf("stream row %s: %s", l.Doc, l.Error)
		case l.Done:
			if l.Count == nil {
				return fmt.Errorf("stream terminator for %s without count", l.Doc)
			}
			counts[l.Doc] = *l.Count
		default:
			got[l.Doc] = append(got[l.Doc], l.Tuple)
		}
	}
	if !summary {
		return fmt.Errorf("stream cut: no summary line")
	}
	for _, d := range r.docs {
		name := docName(d)
		rel := got[name]
		slices.SortFunc(rel, slices.Compare[[]cqtrees.NodeID])
		want := c.ex.ans[[2]int{r.query, c.current[d]}].tuples
		if !sameRel(rel, want) || counts[name] != len(want) {
			return fmt.Errorf("stream %s: %d tuples (count %d), want %d", name, len(rel), counts[name], len(want))
		}
	}
	return nil
}
