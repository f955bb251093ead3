// Package cache is the serving tier's result cache: materialized
// evaluation results keyed by (query fingerprint, document name,
// document version, mode), bounded by bytes, invalidated by document
// lifecycle events.
//
// The paper's determinism makes this sound by construction: a prepared
// query's answer on a document is a pure function of (query, document),
// so a result cached under the document's version can be served verbatim
// until the corpus replaces that version. Production CQ serving is
// dominated by repeated (query, document) pairs against slowly-mutating
// documents, which is exactly the shape an LRU result cache converts
// from per-request evaluation cost into a map lookup.
//
// Design:
//
//   - Sharded by document name: invalidating a document on Swap/Remove/
//     evict touches exactly one shard, and concurrent lookups for
//     different documents never contend on one lock.
//   - Byte-bounded: each shard holds budget/shards bytes and evicts its
//     own LRU tail; a per-entry cap keeps million-answer relations from
//     monopolizing (or thrashing) the budget — oversized results simply
//     never cache.
//   - Singleflight: Do collapses concurrent misses on the same key into
//     one computation; followers wait (context-aware) and share the
//     leader's result without re-evaluating.
//
// Values are stored as given and returned to every subsequent caller, so
// they must be treated as immutable by all readers — the serving layer
// stores fully materialized bool/[]NodeID/[][]NodeID results and only
// ever reads them (prefix slicing for capped requests is fine).
package cache

import (
	"context"
	"sync"
	"sync/atomic"
)

// Key identifies one cached result: the query's injective fingerprint,
// the document's corpus name and version, and the evaluation mode
// ("bool", "nodes", "tuples"). Version makes staleness unservable — a
// swapped document gets a new version, so old entries can never match a
// post-swap lookup even before invalidation reclaims them.
type Key struct {
	Query   string
	Doc     string
	Version uint64
	Mode    string
}

// shardCount is the fixed shard fan-out. Shards are selected by document
// name, so invalidation scans one shard's per-document index only.
const shardCount = 16

// entry is one cached result in a shard's intrusive LRU list.
type entry struct {
	key        Key
	val        any
	bytes      int64
	prev, next *entry // LRU list; head = most recent
}

// flight is one in-progress computation under Do: followers block on
// done and read val/err afterwards.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// shard is one lock domain: an LRU-ordered entry map plus the in-flight
// computations for keys hashing here.
type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	byDoc   map[string]map[*entry]struct{}
	head    *entry // most recently used
	tail    *entry // least recently used
	bytes   int64
	flights map[Key]*flight
}

// Stats is a point-in-time snapshot of the cache's counters and
// occupancy; the counters are cumulative since construction.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	Collapsed     int64 // Do followers served by a leader's computation
	TooLarge      int64 // results rejected by the per-entry byte cap
	Entries       int64
	Bytes         int64
}

// Cache is a sharded, byte-bounded, LRU result cache. All methods are
// safe for concurrent use. A nil *Cache is a valid always-miss cache —
// Get misses, Put and Invalidate are no-ops, Do computes without
// caching — so callers can thread one pointer through unconditionally.
type Cache struct {
	shards   [shardCount]shard
	perShard int64
	maxEntry int64

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	collapsed     atomic.Int64
	tooLarge      atomic.Int64
}

// New builds a cache with a total byte budget and a per-entry byte cap.
// maxBytes <= 0 returns nil (the always-miss cache). maxEntry <= 0
// defaults to maxBytes/shardCount — an entry may fill a whole shard but
// no more, so one giant result cannot claim the entire budget.
func New(maxBytes, maxEntry int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	perShard := maxBytes / shardCount
	if perShard < 1 {
		perShard = 1
	}
	if maxEntry <= 0 || maxEntry > perShard {
		maxEntry = perShard
	}
	c := &Cache{perShard: perShard, maxEntry: maxEntry}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*entry)
		c.shards[i].byDoc = make(map[string]map[*entry]struct{})
		c.shards[i].flights = make(map[Key]*flight)
	}
	return c
}

// MaxEntry returns the per-entry byte cap (0 for the nil cache). Callers
// producing results incrementally can use it to stop accumulating once a
// value can no longer cache.
func (c *Cache) MaxEntry() int64 {
	if c == nil {
		return 0
	}
	return c.maxEntry
}

// shardFor hashes the document name (FNV-1a) so all of one document's
// entries — every query, version, and mode — land in the same shard.
func (c *Cache) shardFor(doc string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(doc); i++ {
		h ^= uint64(doc[i])
		h *= prime64
	}
	return &c.shards[h%shardCount]
}

// Get returns the cached value for k, promoting it to most-recently-used.
func (c *Cache) Get(k Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(k.Doc)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.moveToFront(e)
	v := e.val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put stores v under k, charging size bytes. Results over the per-entry
// cap are rejected (counted in Stats.TooLarge): a result too big to be
// worth its residency never displaces many small hot entries. Storing an
// existing key replaces its value and recharges its size.
func (c *Cache) Put(k Key, v any, size int64) {
	if c == nil {
		return
	}
	if size > c.maxEntry {
		c.tooLarge.Add(1)
		return
	}
	if size < 1 {
		size = 1 // even a bool costs bookkeeping; never charge zero
	}
	s := c.shardFor(k.Doc)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.bytes += size - e.bytes
		e.val, e.bytes = v, size
		s.moveToFront(e)
	} else {
		e := &entry{key: k, val: v, bytes: size}
		s.entries[k] = e
		docSet, ok := s.byDoc[k.Doc]
		if !ok {
			docSet = make(map[*entry]struct{})
			s.byDoc[k.Doc] = docSet
		}
		docSet[e] = struct{}{}
		s.pushFront(e)
		s.bytes += size
	}
	// Evict this shard's LRU tail down to budget; the entry just written
	// is at the front and survives unless it alone exceeds the shard.
	evicted := 0
	for s.bytes > c.perShard && s.tail != nil && s.tail != s.head {
		s.removeLocked(s.tail)
		evicted++
	}
	if s.bytes > c.perShard && s.head != nil && s.head.bytes > c.perShard {
		// Degenerate: the fresh entry alone exceeds the shard budget
		// (possible only when maxEntry == perShard exactly).
		s.removeLocked(s.head)
		evicted++
	}
	s.mu.Unlock()
	c.evictions.Add(int64(evicted))
}

// InvalidateDoc drops every entry for the named document — all queries,
// versions, and modes — and returns how many were dropped. Called by the
// corpus invalidation hook on Swap, Remove, memory-only eviction and
// quarantine; dehydration keeps a document's entries.
func (c *Cache) InvalidateDoc(doc string) int {
	if c == nil {
		return 0
	}
	s := c.shardFor(doc)
	s.mu.Lock()
	set := s.byDoc[doc]
	n := len(set)
	for e := range set {
		s.removeLocked(e)
	}
	s.mu.Unlock()
	c.invalidations.Add(int64(n))
	return n
}

// Do returns the cached value for k, or computes it exactly once among
// concurrent callers: the first caller (the leader) runs compute and
// stores the result via Put's policy; followers arriving before the
// leader finishes block until it does — or until their own ctx dies —
// and share the leader's value and error without computing.
//
// compute returns (value, size, error). An error is returned to the
// leader and every follower, and nothing caches. On follower timeout the
// follower gets ctx.Err() while the leader's computation continues for
// the callers still waiting on it.
func (c *Cache) Do(ctx context.Context, k Key, compute func() (any, int64, error)) (any, error) {
	if c == nil {
		v, _, err := compute()
		return v, err
	}
	s := c.shardFor(k.Doc)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.moveToFront(e)
		v := e.val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, nil
	}
	if f, ok := s.flights[k]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
			if f.err == nil {
				c.collapsed.Add(1)
				return f.val, nil
			}
			return nil, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[k] = f
	s.mu.Unlock()
	c.misses.Add(1)

	v, size, err := compute()
	f.val, f.err = v, err

	s.mu.Lock()
	delete(s.flights, k)
	s.mu.Unlock()
	close(f.done)
	if err == nil {
		c.Put(k, v, size)
	}
	return v, err
}

// Stats snapshots the counters and sums shard occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Collapsed:     c.collapsed.Load(),
		TooLarge:      c.tooLarge.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += int64(len(s.entries))
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// ---- intrusive LRU list (caller holds s.mu) -------------------------------

func (s *shard) pushFront(e *entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// removeLocked unlinks e, deletes its map entries, and refunds its bytes.
func (s *shard) removeLocked(e *entry) {
	s.unlink(e)
	delete(s.entries, e.key)
	if set, ok := s.byDoc[e.key.Doc]; ok {
		delete(set, e)
		if len(set) == 0 {
			delete(s.byDoc, e.key.Doc)
		}
	}
	s.bytes -= e.bytes
}
