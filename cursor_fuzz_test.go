package cqtrees

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
)

// FuzzCursorDecode: hostile cursor tokens must never panic — every input
// either decodes to a shape-valid cursor or fails wrapping
// ErrCursorMalformed — and valid decodes must re-encode to the identical
// token (the format has no redundant encodings).
func FuzzCursorDecode(f *testing.F) {
	f.Add("")
	f.Add("AQ")
	f.Add("!!!not base64!!!")
	// A genuine token, to seed structure-aware mutation.
	f.Add(encodeCursor(cursor{qhash: 0xdeadbeef, version: 42, dirs: []Dir{Asc, Desc}, ranks: []int32{7, 3}}))
	// Arity 255 with no payload: exercises the truncation checks.
	f.Add(encodeCursor(cursor{dirs: make([]Dir, 255), ranks: make([]int32, 255)})[:20])
	f.Fuzz(func(t *testing.T, token string) {
		c, err := decodeCursor(token)
		if err != nil {
			if !errors.Is(err, ErrCursorMalformed) {
				t.Fatalf("decode error %v does not wrap ErrCursorMalformed", err)
			}
			return
		}
		if len(c.dirs) != len(c.ranks) {
			t.Fatalf("decoded dirs/ranks length mismatch: %d vs %d", len(c.dirs), len(c.ranks))
		}
		if re := encodeCursor(c); re != token {
			t.Fatalf("re-encode drift: %q -> %q", token, re)
		}
	})
}

// cursorResumeQueries are FuzzCursorResume's queries: an acyclic one whose
// head the axis-image walk serves in head order, an acyclic one that
// falls back to the pinned descent (x and z are not adjacent), an
// X-property one, and two more walked ones whose second position ranges
// over a sibling chain and over the ancestor chain.
var cursorResumeQueries = []struct {
	src      string
	strategy core.Strategy
}{
	{"Q(x, y) <- B(x), Child+(x, y)", core.StrategyAcyclic},
	{"Q(x, z) <- A(x), Child+(x, y), B(y), Child+(y, z), C(z)", core.StrategyAcyclic},
	{"Q(x, y) <- A(x), Child+(x, y), B(y), Child*(y, z), Child+(x, z)", core.StrategyXProperty},
	{"Q(x, y) <- B(x), NextSibling*(x, y)", core.StrategyAcyclic},
	{"Q(x, y) <- C(x), Ancestor+(x, y)", core.StrategyAcyclic},
}

// FuzzCursorResume: a forged cursor that carries the right query hash and
// document version but arbitrary directions and pre ranks (decodeCursor
// admits any rank up to MaxInt32) never panics Paginate, which returns
// exactly the reference answers that sort strictly after the forged key,
// and whose own next cursor resumes with the answers after those. Each
// rank input is either one of the edge ranks 0, n-1, n, n+63, MaxInt32
// (even raw values) or a rank below 2n (odd ones).
func FuzzCursorResume(f *testing.F) {
	doc := Index(MustParseTree("A(B(C,B(A|B,C)),B(B(C|A),A(B,C|B)),C(B(A(B,C))),A(B(B(C))),B)"))
	tr := doc.Tree()
	n := int32(tr.Len())
	const version = 7
	type fixture struct {
		pq   *PreparedQuery
		hash uint64
		ref  [][]NodeID
	}
	var fixtures []fixture
	for _, c := range cursorResumeQueries {
		pq := MustCompile(c.src)
		if got := pq.Plan().Strategy; got != c.strategy {
			f.Fatalf("%s: strategy %v, want %v", c.src, got, c.strategy)
		}
		ref := core.ReferenceEvalAll(tr, pq.Query())
		if len(ref) < 3 {
			f.Fatalf("%s: %d answers on the fixture, want a few", c.src, len(ref))
		}
		fixtures = append(fixtures, fixture{pq, fingerprintHash(pq.Query().Fingerprint()), ref})
	}
	f.Add(uint8(0), uint8(1), uint32(2), uint32(5), uint8(3))
	f.Fuzz(func(t *testing.T, which, dirBits uint8, raw0, raw1 uint32, limit uint8) {
		fx := fixtures[int(which)%len(fixtures)]
		rank := func(raw uint32) int32 {
			if raw%2 == 0 {
				return []int32{0, n - 1, n, n + 63, math.MaxInt32}[raw/2%5]
			}
			return int32(raw / 2 % uint32(2*n))
		}
		c := cursor{
			qhash:   fx.hash,
			version: version,
			dirs:    []Dir{Dir(dirBits & 1), Dir(dirBits >> 1 & 1)},
			ranks:   []int32{rank(raw0), rank(raw1)},
		}
		key := func(tuple []NodeID) []int32 {
			k := make([]int32, len(tuple))
			for i, v := range tuple {
				k[i] = tr.Pre(v)
				if c.dirs[i] == Desc {
					k[i] = -k[i]
				}
			}
			return k
		}
		forged := slices.Clone(c.ranks)
		for i := range forged {
			if c.dirs[i] == Desc {
				forged[i] = -forged[i]
			}
		}
		var want [][]NodeID
		for _, tuple := range fx.ref {
			if slices.Compare(key(tuple), forged) > 0 {
				want = append(want, tuple)
			}
		}
		slices.SortFunc(want, func(a, b []NodeID) int { return slices.Compare(key(a), key(b)) })

		size := 1 + int(limit%8)
		opts := []EvalOption{WithDocVersion(version), WithLimit(size)}
		page, err := fx.pq.Paginate(doc, append(opts, WithCursor(encodeCursor(c)))...)
		if err != nil {
			t.Fatalf("%s after %v %v: %v", fx.pq.Query(), c.dirs, c.ranks, err)
		}
		same := func(a, b [][]NodeID) bool { return slices.EqualFunc(a, b, slices.Equal[[]NodeID]) }
		first := want[:min(size, len(want))]
		if !same(page.Tuples, first) {
			t.Fatalf("%s after %v %v: page %v, want %v", fx.pq.Query(), c.dirs, c.ranks, page.Tuples, first)
		}
		if (page.Next != "") != (len(want) > size) {
			t.Fatalf("%s after %v %v: next cursor %q with %d answers left", fx.pq.Query(), c.dirs, c.ranks, page.Next, len(want))
		}
		if page.Next == "" {
			return
		}
		next, err := fx.pq.Paginate(doc, append(opts, WithCursor(page.Next))...)
		if rest := want[size:min(2*size, len(want))]; err != nil || !same(next.Tuples, rest) {
			t.Fatalf("%s after %v %v: second page %v (err %v), want %v", fx.pq.Query(), c.dirs, c.ranks, next.Tuples, err, rest)
		}
	})
}
