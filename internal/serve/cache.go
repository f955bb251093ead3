package serve

import (
	"context"
	"fmt"
	"slices"
	"sort"

	cqtrees "repro"
)

// The result cache behind the buffered /eval path (evalBatch). When the
// server runs with a result cache (-cache-bytes > 0):
//
//   - Keys carry the document's corpus version (see Corpus.Version): a
//     swapped or re-added document gets a new version, so a stale entry
//     can never match a post-swap lookup. The corpus invalidation hook
//     additionally drops the dead entries eagerly.
//   - Values are whole per-document results (computeDoc), re-capped at
//     render time (renderCached), so one entry serves every answer cap.
//
// A cache-off server runs the same path against the nil cache: every
// lookup misses and cache.Do computes without storing. The NDJSON and
// paginated paths never touch the cache.

// cachedRelation is the cached value for mode "tuples": the sorted answer
// relation, with complete=false when enumeration stopped early because
// the relation outgrew the per-entry cache budget (such values are never
// stored — see computeDoc — but are still served to the waiting callers).
//
// A capped row is the first cap tuples of the engine's stream, sorted,
// whether or not a cache is configured. pos[i] is tuples[i]'s position in
// that stream, so one value can serve any cap (renderCached keeps the
// tuples whose position is below it). A cache-off server records no
// positions: its values are never shared, and computeDoc already stops
// at the requesting cap.
type cachedRelation struct {
	tuples   [][]cqtrees.NodeID
	pos      []int32
	complete bool
}

// Len, Less and Swap sort the tuples together with their stream positions.
func (r cachedRelation) Len() int { return len(r.tuples) }
func (r cachedRelation) Less(i, j int) bool {
	return slices.Compare(r.tuples[i], r.tuples[j]) < 0
}
func (r cachedRelation) Swap(i, j int) {
	r.tuples[i], r.tuples[j] = r.tuples[j], r.tuples[i]
	r.pos[i], r.pos[j] = r.pos[j], r.pos[i]
}

// missingDocErr is the error Corpus.GetErr reports for a document the
// corpus does not hold.
func missingDocErr(name string) error {
	return fmt.Errorf("corpus: %q: %w", name, cqtrees.ErrUnknownDocument)
}

// computeDoc evaluates pq on one document — the compute function behind
// cache.Do. It returns (value, size, error) where size is the value's
// approximate resident footprint; Put rejects sizes over the per-entry
// cap, so a deliberately inflated size is how a value opts out of
// caching.
//
// For mode "tuples" the cached value must be the COMPLETE relation —
// cached entries serve every future answer cap, so a capped prefix would
// poison larger requests. Enumeration therefore continues past the
// requesting cap while the accumulated bytes still fit the cache's
// per-entry budget; once the relation has outgrown cacheability, at
// least cap tuples are in hand, and one more arrives, it stops: that
// tuple only witnesses the truncation and is not kept, and the remaining
// work could benefit no one. Under the nil cache (budget 0) the value is
// therefore the first cap tuples of the engine's stream, sorted; under a
// real cache it also records every tuple's stream position (4 bytes a
// tuple, counted in the size) for renderCached.
func (s *Server) computeDoc(ctx context.Context, pq *cqtrees.PreparedQuery, mode, name string, capN int) (any, int64, error) {
	doc, err := s.corpus.GetErr(name)
	if err != nil {
		// Hydration failures keep their classification (quarantined vs
		// transient) so the row and status mapping can distinguish them
		// from a plain unknown document.
		return nil, 0, err
	}
	s.metrics.evalsTotal.With(strategySlug(pq.Plan())).Inc()
	switch mode {
	case "bool":
		v, err := pq.BoolErr(doc, cqtrees.WithContext(ctx))
		return v, 16, err
	case "nodes":
		v, err := pq.NodesErr(doc, cqtrees.WithContext(ctx))
		return v, 48 + 4*int64(len(v)), err
	default: // tuples
		budget := s.cache.MaxEntry()
		var out [][]cqtrees.NodeID
		bytes := int64(64)
		stopped := false
		// Tuples yields freshly allocated, caller-owned tuples: no copy.
		for t := range pq.Tuples(doc, cqtrees.WithContext(ctx)) {
			if capN > 0 && len(out) >= capN && bytes > budget {
				stopped = true
				break
			}
			out = append(out, t)
			bytes += 36 + 4*int64(len(t)) // slice header, position, nodes
		}
		// The tuple iterator goes silent on cancellation; surface it as the
		// row error unless we stopped on purpose first.
		if err := ctx.Err(); err != nil && !stopped {
			return nil, 0, err
		}
		rel := cachedRelation{tuples: out, complete: !stopped}
		if budget > 0 {
			rel.pos = make([]int32, len(out))
			for i := range rel.pos {
				rel.pos[i] = int32(i)
			}
			sort.Sort(rel) // the batch iterators' order
		} else {
			slices.SortFunc(out, slices.Compare[[]cqtrees.NodeID])
		}
		size := bytes
		if stopped {
			size = budget + 1 // incomplete relations must never cache
		}
		return rel, size, nil
	}
}

// renderCached projects a cached (or freshly computed) value onto one
// response row under the request's answer cap. Cached tuple relations are
// complete, so re-capping at render time serves any cap from one entry;
// an incomplete relation (never cached, but shared with singleflight
// followers) is truncated by construction. A capped row keeps the tuples
// among the stream's first capN, in sorted order (see cachedRelation).
func renderCached(row *evalResult, mode string, v any, capN int) {
	switch mode {
	case "bool":
		sat := v.(bool)
		row.Sat = &sat
	case "nodes":
		row.Nodes = v.([]cqtrees.NodeID)
	default: // tuples
		rel := v.(cachedRelation)
		tuples := rel.tuples
		truncated := !rel.complete
		if capN > 0 && len(tuples) > capN {
			// Only a cache-on value (with positions) can exceed the cap.
			tuples = make([][]cqtrees.NodeID, 0, capN)
			for i, p := range rel.pos {
				if int(p) < capN {
					tuples = append(tuples, rel.tuples[i])
				}
			}
			truncated = true
		}
		// The tuples alias the cached value; rows are only ever encoded,
		// never mutated (the cache package's immutability contract).
		row.Tuples = tuples
		row.Truncated = truncated
	}
}
