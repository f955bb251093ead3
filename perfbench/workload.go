package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/tree"
)

// Corpus shape shared by every workload: tree.Random with
// DefaultRandomConfig (fan-out <= 4, labels A-E).
const (
	numDocs  = 32
	docNodes = 4000
	// poolExtra is the number of replacement trees doc_churn's PUTs draw
	// from, on top of the initial corpus.
	poolExtra = 32
	// seqLen is the length of the generated op sequence. A run replays it
	// cyclically (eval_hot wraps several times); the checker follows PUTs
	// as they are answered, so answers stay checkable across a wrap.
	seqLen = 655 * roundOps
	// roundOps is the length of one round of the op sequence: every
	// workload's class weights sum to it.
	roundOps = 100
	// pageSize is the limit of every paginated request.
	pageSize = 100
)

// class is an op class; each has its own latency percentiles.
type class int

const (
	clsAcyclic class = iota
	clsXProp
	clsBacktrack
	clsInline
	clsPage
	clsStream
	clsRead
	clsPut
	numClasses
)

var classNames = [numClasses]string{"acyclic", "xprop", "backtrack", "inline", "page", "stream", "read", "put"}

func (c class) String() string { return classNames[c] }

// strategy is the plan a query must get; setup fails if the engine plans
// it otherwise, so a class never silently changes meaning.
type strategy string

const (
	stratAcyclic   strategy = "acyclic"
	stratXProp     strategy = "xproperty"
	stratBacktrack strategy = "backtrack"
)

// querySpec is one query the benchmark sends: registered (name set) or
// inline (sent as source).
type querySpec struct {
	name  string // registered name; "" for inline
	src   string
	mode  string
	strat strategy
}

// registered are the named queries PUT at setup. Label choices keep
// every nodes and tuples answer set non-empty on DefaultRandomConfig trees
// of docNodes. The *_rare Boolean queries hinge on a parent-child chain of
// five A nodes, which about one tree in three lacks, so each plan's
// Boolean answers are false on a share of the corpus (checked by expect).
var registered = []querySpec{
	{"ac_nodes", "Q(y) <- A(x), Child+(x, y), B(y)", "nodes", stratAcyclic},
	{"ac_tuples", "Q(x, y) <- C(x), Child(x, y), D(y)", "tuples", stratAcyclic},
	{"ac_bool", "Q() <- A(x), Child(x, y), B(y), NextSibling+(y, z), C(z)", "bool", stratAcyclic},
	{"xp_bool", "Q() <- A(x), Child+(x, y), B(y), Child*(y, z), C(z), Child+(x, z)", "bool", stratXProp},
	{"xp_nodes", "Q(z) <- A(x), Child+(x, y), B(y), Child*(y, z), C(z), Child+(x, z)", "nodes", stratXProp},
	{"bt_nodes", "Q(y) <- A(x), Child(x, y), B(y), NextSibling+(y, z), C(z), Child+(x, z)", "nodes", stratBacktrack},
	{"bt_bool", "Q() <- D(x), Child(x, y), E(y), Child+(x, z), A(z), Following(y, z)", "bool", stratBacktrack},
	{"bt_bool2", "Q() <- A(x), Child(x, y), B(y), Child+(x, z), C(z), Following(y, z)", "bool", stratBacktrack},
	{"pg_tuples", "Q(x, y) <- B(x), Child+(x, y)", "tuples", stratAcyclic},
	{"st_tuples", "Q(x, y) <- A(x), Child+(x, y), E(y)", "tuples", stratAcyclic},
	{"ac_rare", "Q() <- A(x), Child(x, y), A(y), Child(y, z), A(z), Child(z, u), A(u), Child(u, v), A(v)", "bool", stratAcyclic},
	{"xp_rare", "Q() <- A(x), Child(x, y), A(y), Child(x, z), A(z), NextSibling(y, z), Child(y, u), A(u), Child(z, v), A(v)", "bool", stratXProp},
	{"bt_rare", "Q() <- A(x), Child(x, y), A(y), Child(y, z), A(z), Child(z, u), A(u), Child(u, v), A(v), Child+(x, w), B(w), Following(v, w)", "bool", stratBacktrack},
}

// Registered query indices by class.
var (
	acyclicQueries   = []int{0, 1, 2, 10}
	xpropQueries     = []int{3, 4, 11}
	backtrackQueries = []int{5, 6, 7, 12}
	pageQuery        = 8
	streamQuery      = 9
	// churnCyclicQueries are doc_churn's cyclic reads: the Boolean ones.
	// The monadic cyclic queries cost 1-50 ms depending on the tree, and
	// would set doc_churn's p99 by which trees a seed draws instead of by
	// the write path this workload exists for.
	churnCyclicQueries = []int{3, 6, 7, 11, 12}
)

// inlineQueries are the ad-hoc sources: two acyclic templates over every
// ordered pair of distinct labels (40 sources).
func inlineQueries() []querySpec {
	labels := []string{"A", "B", "C", "D", "E"}
	var out []querySpec
	for _, a := range labels {
		for _, b := range labels {
			if a == b {
				continue
			}
			out = append(out,
				querySpec{src: fmt.Sprintf("Q(y) <- %s(x), Child(x, y), %s(y)", a, b), mode: "nodes", strat: stratAcyclic},
				querySpec{src: fmt.Sprintf("Q(x, y) <- %s(x), NextSibling(x, y), %s(y)", a, b), mode: "tuples", strat: stratAcyclic})
		}
	}
	return out
}

// share is one op class's weight in a workload's mix.
type share struct {
	cls    class
	weight int
}

// workload fixes what one benchmark run drives.
type workload struct {
	name string
	mix  []share
	// cacheBytes is the result cache budget (0: no cache); persistent
	// backs the corpus with snapshots under a residency budget (see
	// serverConfig).
	cacheBytes int64
	persistent bool
	// warm runs every distinct request once before timing.
	warm bool
	// readDocs is how many documents each read names (0 means 1). The
	// documents are dealt into fixed groups of readDocs at generation.
	readDocs int
}

// Class shares. eval_cold's are chosen so that neither p50 nor p99 sits
// on the boundary between two classes of very different cost: p50 falls
// inside the large acyclic+inline block, p99 inside the backtrack tail.
var workloads = map[string]workload{
	"eval_cold": {name: "eval_cold", mix: []share{
		{clsAcyclic, 30}, {clsInline, 30}, {clsPage, 15}, {clsXProp, 10}, {clsStream, 5}, {clsBacktrack, 10},
	}},
	// eval_hot's cache is far above its key working set (~5 MiB): the timed
	// phase sees no eviction and no miss. Each read names a group of eight
	// documents, so an op renders eight cached rows: a one-row hit costs
	// about 20 us, too little to time steadily, and with four rows the
	// latency distribution was still so broad around its median that p50
	// moved twice as much as throughput with the host's speed.
	// Its shares put p50 well inside the inline block, whose reads render
	// in 70-100 us; most reads of the other classes are cheaper (the
	// Boolean ones about 20 us). With inline at 60, p50 sat on the lower
	// edge of the inline block, where the ops between the 45th and 55th
	// percentile spanned up to 22% of the median's latency, and p50 moved
	// more than throughput with the host's speed; at 80 they span 6-8%.
	"eval_hot": {name: "eval_hot", cacheBytes: 256 << 20, warm: true, readDocs: 8, mix: []share{
		{clsAcyclic, 10}, {clsInline, 80}, {clsXProp, 5}, {clsBacktrack, 5},
	}},
	"doc_churn": {name: "doc_churn", cacheBytes: 64 << 20, persistent: true, mix: []share{
		{clsRead, 90}, {clsPut, 10},
	}},
}

var workloadOrder = []string{"eval_cold", "eval_hot", "doc_churn"}

// request is one distinct pre-encoded request; ops refer to it by index.
type request struct {
	cls    class
	method string
	path   string
	ndjson bool
	body   []byte

	// What the response must equal (see check.go).
	query int   // index into inputs.queries
	docs  []int // document slots named by the request
	walk  int   // page ops: index into inputs.walks
	page  int   // page ops: page number within the walk
	tree  int   // PUT: pool tree the document becomes
}

// walk is one cursor walk: the first walkPages pages of the page query
// on one document in one order.
type walk struct {
	doc   int
	order []string
}

// inputs is everything a seed determines.
type inputs struct {
	seed  int64
	w     workload
	trees []*tree.Tree // pool: [0,numDocs) is the initial corpus
	// putBodies[i] is the PUT /docs body that loads pool tree i.
	putBodies [][]byte
	queries   []querySpec // registered first, then inline
	reqs      []request
	walks     []walk
	seq       []int32 // request index per op
}

// randomTree is a corpus-shaped tree of n nodes drawn from seed.
func randomTree(seed int64, n int) *tree.Tree {
	return tree.Random(rand.New(rand.NewSource(seed)), tree.DefaultRandomConfig(n))
}

func docName(slot int) string { return fmt.Sprintf("doc-%02d", slot) }

// generate builds the corpus, the request table and the op sequence for
// workload w from seed. Page requests get their bodies later (encodePages)
// because their cursors are bound to the server's document versions.
func generate(w workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, w: w}
	npool := numDocs
	if w.persistent {
		npool += poolExtra
	}
	for i := 0; i < npool; i++ {
		// The pool keeps the tree as the server will hold it: parsed from
		// the PUT payload, so NodeIDs are the parser's (pre-order) ones.
		term := tree.Random(rng, tree.DefaultRandomConfig(docNodes)).String()
		t := tree.MustParseTerm(term)
		body, err := json.Marshal(map[string]string{"term": term})
		if err != nil {
			panic(err) // a string map always marshals
		}
		in.trees = append(in.trees, t)
		in.putBodies = append(in.putBodies, body)
	}
	in.queries = append(append([]querySpec{}, registered...), inlineQueries()...)

	// Request table: one entry per distinct (query, document) read, so the
	// key working set is exactly the table.
	index := map[string]int{}
	addReq := func(r request) int {
		key := fmt.Sprintf("%d|%d|%v|%d|%d|%d", r.cls, r.query, r.docs, r.walk, r.page, r.tree)
		if i, ok := index[key]; ok {
			return i
		}
		index[key] = len(in.reqs)
		in.reqs = append(in.reqs, r)
		return len(in.reqs) - 1
	}
	groups := [][]int{}
	groupOf := make([]int, numDocs)
	if n := max(w.readDocs, 1); n > 1 {
		perm := rng.Perm(numDocs)
		for g := 0; g < numDocs/n; g++ {
			group := slices.Clone(perm[g*n : (g+1)*n])
			slices.Sort(group)
			for _, d := range group {
				groupOf[d] = g
			}
			groups = append(groups, group)
		}
	}
	readReq := func(cls class, q, doc int) int {
		docs := []int{doc}
		if len(groups) > 0 {
			docs = groups[groupOf[doc]]
		}
		return addReq(request{cls: cls, method: "POST", path: "/eval", query: q, docs: docs})
	}

	// The sequence is made of rounds that each hold every class exactly
	// weight times, shuffled: any window of a few rounds carries the
	// workload's mix, so run-to-run variation is not mix variation.
	var round []class
	for _, s := range w.mix {
		for i := 0; i < s.weight; i++ {
			round = append(round, s.cls)
		}
	}
	if len(round) != roundOps {
		panic(fmt.Sprintf("workload %s: weights sum to %d, want %d", w.name, len(round), roundOps))
	}
	for d := 0; d < numDocs && slices.Contains(round, clsPage); d++ {
		in.walks = append(in.walks, walk{doc: d, order: []string{"asc", "asc"}}, walk{doc: d, order: []string{"desc", "asc"}})
	}
	// Within a class, queries are taken in turn from a seed-shuffled deck,
	// so every stretch of the sequence asks each query equally often;
	// documents are drawn uniformly.
	var inline []int
	for q := len(registered); q < len(in.queries); q++ {
		inline = append(inline, q)
	}
	decks := map[string][]int{"acyclic": acyclicQueries, "xprop": xpropQueries,
		"backtrack": backtrackQueries, "inline": inline, "churn_cyclic": churnCyclicQueries}
	taken := map[string]int{}
	for _, k := range []string{"acyclic", "xprop", "backtrack", "inline", "churn_cyclic"} {
		qs := slices.Clone(decks[k])
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		decks[k] = qs
	}
	pick := func(k string) int {
		q := decks[k][taken[k]%len(decks[k])]
		taken[k]++
		return q
	}
	nRead := 0
	curWalk, curPage := -1, 0
	for len(in.seq) < seqLen {
		if len(in.seq)%len(round) == 0 {
			rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		}
		cls := round[len(in.seq)%len(round)]
		doc := rng.Intn(numDocs)
		var ri int
		switch cls {
		case clsAcyclic, clsXProp, clsBacktrack, clsInline:
			ri = readReq(cls, pick(cls.String()), doc)
		case clsRead:
			// doc_churn reads take acyclic, inline and cyclic queries in turn.
			ri = readReq(cls, pick([]string{"acyclic", "inline", "churn_cyclic"}[nRead%3]), doc)
			nRead++
		case clsStream:
			ri = addReq(request{cls: cls, method: "POST", path: "/eval", ndjson: true,
				query: streamQuery, docs: []int{doc}})
		case clsPage:
			// A walk runs to its last page before the next one starts. There
			// is one walk per (document, order), so the page requests form a
			// fixed set of 2*numDocs*walkPages.
			if curWalk < 0 {
				curWalk, curPage = 2*doc+rng.Intn(2), 0
			}
			ri = addReq(request{cls: cls, method: "POST", path: "/eval", query: pageQuery,
				docs: []int{in.walks[curWalk].doc}, walk: curWalk, page: curPage})
			curPage++
			if curPage == walkPages {
				curWalk = -1
			}
		case clsPut:
			t := numDocs + rng.Intn(poolExtra)
			if rng.Intn(2) == 0 {
				t = rng.Intn(numDocs)
			}
			ri = addReq(request{cls: cls, method: "PUT", path: "/docs/" + docName(doc), docs: []int{doc}, tree: t})
		}
		in.seq = append(in.seq, int32(ri))
	}
	for i := range in.reqs {
		in.reqs[i].body = encodeBody(in, &in.reqs[i], "")
	}
	return in
}

// walkPages is how many pages the generator asks of each walk. Walks are
// cut here rather than run to exhaustion so every walk costs the same
// number of ops whatever the relation size; the last page must still
// carry a next_cursor (checked), so the resume path runs on every page.
const walkPages = 8

// evalBody is the /eval request as the server decodes it.
type evalBody struct {
	Query  string   `json:"query,omitempty"`
	Source string   `json:"source,omitempty"`
	Docs   []string `json:"docs,omitempty"`
	Mode   string   `json:"mode"`
	Order  []string `json:"order,omitempty"`
	Limit  int      `json:"limit,omitempty"`
	Cursor string   `json:"cursor,omitempty"`
}

func encodeBody(in *inputs, r *request, cursor string) []byte {
	if r.method == "PUT" {
		return in.putBodies[r.tree]
	}
	q := in.queries[r.query]
	body := evalBody{Query: q.name, Mode: q.mode}
	if q.name == "" {
		body.Source = q.src
	}
	for _, d := range r.docs {
		body.Docs = append(body.Docs, docName(d))
	}
	if r.cls == clsPage {
		body.Order = in.walks[r.walk].order
		body.Limit = pageSize
		body.Cursor = cursor
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain strings and ints always marshal
	}
	return b
}

// seqHash is the SHA-256 of the op sequence as the server receives it:
// method, path, Accept and body of every op in order.
func (in *inputs) seqHash() string {
	h := sha256.New()
	for _, ri := range in.seq {
		r := &in.reqs[ri]
		fmt.Fprintf(h, "%s %s %v %d\n", r.method, r.path, r.ndjson, len(r.body))
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// describe summarises the class shares actually generated.
func (in *inputs) describe() string {
	var n [numClasses]int
	for _, ri := range in.seq {
		n[in.reqs[ri].cls]++
	}
	var parts []string
	for c := class(0); c < numClasses; c++ {
		if n[c] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.1f%%", c, 100*float64(n[c])/float64(len(in.seq))))
		}
	}
	return strings.Join(parts, " ")
}
