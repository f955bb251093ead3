package cqtrees

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// Pagination cursors. A cursor is a compact, versioned, opaque token
// binding a resume position to the query, the order, and the document
// content it was produced against:
//
//	version byte | arity | per-position direction | fnv64a(query
//	fingerprint) | document version (uvarint) | per-position pre rank
//	(uvarint)
//
// base64url-encoded (no padding). The pre ranks are the document-order
// ranks of the last delivered tuple's head nodes — exactly the pin prefix
// the ordered descent re-seeks to, so a resume costs one reduction of the
// document plus O(depth + page), not O(answers skipped). Cursor
// stability: pre ranks are a pure function of the tree, and corpus
// versions are stable across dehydrate/hydrate (see Corpus.Version), so a
// cursor stays valid for as long as the document's content does — and is
// rejected as stale the moment it does not.
//
// See docs/pagination.md for the full semantics.

// Dir is one head position's enumeration direction for WithOrder:
// ascending or descending document (pre) order.
type Dir int8

const (
	// Asc enumerates the head position in increasing document order.
	Asc Dir = iota
	// Desc enumerates the head position in decreasing document order.
	Desc
)

// String returns "asc" or "desc" (the serving layer's wire spelling).
func (d Dir) String() string {
	if d == Desc {
		return "desc"
	}
	return "asc"
}

// ParseDir parses the wire spelling of a direction: "asc" or "desc".
func ParseDir(s string) (Dir, error) {
	switch s {
	case "asc":
		return Asc, nil
	case "desc":
		return Desc, nil
	}
	return Asc, fmt.Errorf("cqtrees: unknown direction %q (asc, desc)", s)
}

// Cursor-tier errors. All are returned wrapped (match with errors.Is);
// none of the decode or pagination paths panic on hostile tokens.
var (
	// ErrCursorMalformed is returned for tokens that do not decode:
	// invalid base64, truncated or oversized payloads, unknown versions.
	ErrCursorMalformed = errors.New("malformed cursor")
	// ErrCursorMismatch is returned for well-formed cursors minted by a
	// different query (fingerprint hash differs), a different arity, or
	// under a different order than the request's.
	ErrCursorMismatch = errors.New("cursor does not match query or order")
	// ErrCursorStale is returned when the cursor's document version
	// differs from the evaluated document's (see WithDocVersion and
	// Corpus.Page): the document changed, so resume positions are void.
	ErrCursorStale = errors.New("cursor is stale: document changed")
	// ErrOrderArity is returned when a WithOrder spec has more directions
	// than the query has head variables (shorter specs pad ascending).
	ErrOrderArity = errors.New("order spec longer than query arity")
)

// cursorVersion is the token format version byte.
const cursorVersion = 1

// cursorMaxArity bounds the decoded arity (queries cannot have more head
// positions than variables, and hostile tokens must not size allocations).
const cursorMaxArity = 255

// cursor is the decoded resume token.
type cursor struct {
	qhash   uint64 // fnv64a of the compiled query's fingerprint
	version uint64 // document content version the token was minted against
	dirs    []Dir  // per-head-position direction
	ranks   []int32
}

// fingerprintHash hashes a query fingerprint into the cursor's query tag.
func fingerprintHash(fp string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(fp))
	return h.Sum64()
}

// encodeCursor renders the token.
func encodeCursor(c cursor) string {
	buf := make([]byte, 0, 2+len(c.dirs)+8+binary.MaxVarintLen64*(1+len(c.ranks)))
	buf = append(buf, cursorVersion, byte(len(c.dirs)))
	for _, d := range c.dirs {
		buf = append(buf, byte(d))
	}
	buf = binary.BigEndian.AppendUint64(buf, c.qhash)
	buf = binary.AppendUvarint(buf, c.version)
	for _, r := range c.ranks {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	return base64.RawURLEncoding.EncodeToString(buf)
}

// decodeCursor parses and validates a token's shape (not its bindings:
// query, order, and version checks happen against the evaluation's
// context). Any malformed input — invalid base64, short or trailing
// bytes, unknown version, out-of-range ranks — returns an error wrapping
// ErrCursorMalformed; decode never panics.
func decodeCursor(token string) (cursor, error) {
	fail := func(why string) (cursor, error) {
		return cursor{}, fmt.Errorf("cqtrees: %s: %w", why, ErrCursorMalformed)
	}
	// Strict: non-canonical encodings (nonzero unused trailing bits) are
	// rejected, so every shape-valid token has exactly one spelling.
	raw, err := base64.RawURLEncoding.Strict().DecodeString(token)
	if err != nil {
		return fail("cursor is not base64url")
	}
	if len(raw) < 2 {
		return fail("cursor too short")
	}
	if raw[0] != cursorVersion {
		return fail(fmt.Sprintf("unknown cursor version %d", raw[0]))
	}
	arity := int(raw[1])
	raw = raw[2:]
	if len(raw) < arity+8 {
		return fail("cursor truncated")
	}
	c := cursor{dirs: make([]Dir, arity), ranks: make([]int32, arity)}
	for i := 0; i < arity; i++ {
		switch Dir(raw[i]) {
		case Asc, Desc:
			c.dirs[i] = Dir(raw[i])
		default:
			return fail("invalid cursor direction")
		}
	}
	raw = raw[arity:]
	c.qhash = binary.BigEndian.Uint64(raw[:8])
	raw = raw[8:]
	var n int
	if c.version, n = binary.Uvarint(raw); n <= 0 {
		return fail("cursor version varint truncated")
	}
	raw = raw[n:]
	for i := 0; i < arity; i++ {
		r, n := binary.Uvarint(raw)
		if n <= 0 {
			return fail("cursor rank varint truncated")
		}
		if r > math.MaxInt32 {
			return fail("cursor rank out of range")
		}
		c.ranks[i] = int32(r)
		raw = raw[n:]
	}
	if len(raw) != 0 {
		return fail("trailing bytes after cursor payload")
	}
	return c, nil
}
