package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/consistency"
	"repro/internal/tree"
)

// Parallel answer enumeration: the outer candidate loop — the first head
// dimension (X-property) or the first enumeration variable (acyclic) — is
// sharded across workers pulling candidate indexes from an atomic counter.
// Each worker borrows its own pooled evalScratch, so workers share only
// read-only state: the PinBase snapshot or the cloned semijoin-reduced
// sets. Results land in per-candidate slots (no locking), then merge.
//
// The backtracking strategy does not parallelize (its search is stateful
// through a single engine) and falls back to sequential enumeration.

// allParallel runs the parallel k-ary enumeration if the options and
// strategy allow it; ok=false means "use the sequential path".
func (p *Prepared) allParallel(d *Document, o EnumOptions) (out [][]tree.NodeID, ok bool) {
	if o.Parallel <= 1 || len(p.q.Head) == 0 || d.t.Len() == 0 {
		return nil, false
	}
	switch p.plan.Strategy {
	case StrategyXProperty:
		return p.polyAllParallel(d, o.Parallel, o.stop()), true
	case StrategyAcyclic:
		return p.acyclicAllParallel(d, o.Parallel, o.stop()), true
	default:
		return nil, false
	}
}

// monadicParallel runs the parallel monadic enumeration if worthwhile;
// ok=false means "use the sequential path". Only the X-property strategy
// benefits: its per-candidate pinned checks shard perfectly, whereas the
// acyclic monadic fast path is already O(answer) with no outer loop.
func (p *Prepared) monadicParallel(d *Document, o EnumOptions) (out []tree.NodeID, ok bool) {
	if o.Parallel <= 1 || d.t.Len() == 0 || p.plan.Strategy != StrategyXProperty {
		return nil, false
	}
	return p.polyMonadicParallel(d, o.Parallel, o.stop()), true
}

// shard processes every candidate index in [0, n) across the given number
// of workers. Each worker borrows a private evalScratch and calls the
// newWorker factory once, so per-worker state (pin runs, valuations, dedup
// maps) is allocated once per worker, not once per candidate. stop
// (optional) is the cancellation probe: each worker checks it before
// pulling the next candidate and drains without processing once it fires,
// so the shard returns — and every worker goroutine exits — within one
// outer iteration per worker of the cancel.
func (p *Prepared) shard(workers, n int, stop func() bool, newWorker func(s *evalScratch) func(i int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := p.scratch()
			defer p.release(s)
			fn := newWorker(s)
			for {
				if stop != nil && stop() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func (p *Prepared) polyAllParallel(d *Document, workers int, stop func() bool) [][]tree.NodeID {
	// The scratch-pooled PinBase is shared read-only by the workers; the
	// owning scratch is held (not released) until the shard completes, so
	// no concurrent evaluation can rebind it.
	s := p.scratch()
	defer p.release(s)
	pre, ok := s.ac.FastACIx(d.ix, p.q)
	if !ok {
		return nil
	}
	base := s.ac.PinBaseForIx(d.ix, p.q, pre)
	head := p.q.Head
	cands := base.Candidates(head[0]).Members()
	if len(cands) == 0 {
		return nil
	}
	results := make([][][]tree.NodeID, len(cands))
	asc := make([]OrderDir, len(head))
	p.shard(workers, len(cands), stop, func(s *evalScratch) func(i int) {
		var local [][]tree.NodeID
		// Levels >= 1 run the sequential stream's descent; the shard
		// already checks stop between outer candidates.
		e := orderedEnum{
			run:  s.ac.PinRunFor(base),
			head: head,
			dirs: asc,
			fn: func(tp []tree.NodeID) bool {
				local = append(local, copyTuple(tp))
				return true
			},
			tuple: make([]tree.NodeID, len(head)),
		}
		return func(i int) {
			e.tuple[0] = cands[i]
			if !e.run.Push(head[0], cands[i]) {
				return
			}
			local = nil
			e.rec(1, false)
			e.run.Pop()
			results[i] = local
		}
	})
	var out [][]tree.NodeID
	for _, r := range results {
		out = append(out, r...)
	}
	slices.SortFunc(out, slices.Compare[[]tree.NodeID])
	return out
}

func (p *Prepared) polyMonadicParallel(d *Document, workers int, stop func() bool) []tree.NodeID {
	out := []tree.NodeID{}
	s := p.scratch()
	defer p.release(s) // held across the shard; see polyAllParallel
	pre, ok := s.ac.FastACIx(d.ix, p.q)
	if !ok {
		return out
	}
	base := s.ac.PinBaseForIx(d.ix, p.q, pre)
	x := p.q.Head[0]
	cands := base.Candidates(x).Members()
	if len(cands) == 0 {
		return out
	}
	keep := make([]bool, len(cands))
	p.shard(workers, len(cands), stop, func(s *evalScratch) func(i int) {
		run := s.ac.PinRunFor(base)
		return func(i int) {
			if run.Push(x, cands[i]) {
				run.Pop()
				keep[i] = true
			}
		}
	})
	// cands is in increasing NodeID order, so the filtered copy is sorted.
	for i, v := range cands {
		if keep[i] {
			out = append(out, v)
		}
	}
	return out
}

func (p *Prepared) acyclicAllParallel(d *Document, workers int, stop func() bool) [][]tree.NodeID {
	t := d.t
	// Reduce once, then clone the scratch-owned sets so workers (and the
	// merge below) read them without holding the scratch.
	s := p.scratch()
	sets0, ok := acyclicReduce(d, p.q, p.forest, s, p.forest.enumMirror)
	if !ok {
		p.release(s)
		return nil
	}
	sets := make([]*consistency.NodeSet, len(sets0))
	for i, s0 := range sets0 {
		sets[i] = s0.Clone()
	}
	p.release(s)

	order := p.forest.headOrder
	x0 := order[0] // a component root: no parent constraint on its values
	cands := sets[x0].Members()
	if len(cands) == 0 {
		return nil
	}
	results := make([][][]tree.NodeID, len(cands))
	p.shard(workers, len(cands), stop, func(*evalScratch) func(i int) {
		theta := make(consistency.Valuation, p.q.NumVars())
		tuple := make([]tree.NodeID, len(p.q.Head))
		// The dedup map persists across the worker's candidates: a tuple is
		// collected once per worker, and cross-worker repeats merge below.
		var local [][]tree.NodeID
		emit := dedupEmit(map[string]bool{}, func(tp []tree.NodeID) bool {
			local = append(local, copyTuple(tp))
			return true
		})
		return func(i int) {
			theta[x0] = cands[i]
			local = nil
			acyclicEnumFrom(t, p.q, p.forest, sets, order, theta, 1, tuple, nil, emit)
			results[i] = local
		}
	})
	// Distinct head tuples can recur across shards when x0 is not a head
	// variable; dedup while merging, then sort.
	seen := map[string]bool{}
	var out [][]tree.NodeID
	key := make([]byte, 0, len(p.q.Head)*4)
	for _, r := range results {
		for _, tp := range r {
			key = appendTupleKey(key[:0], tp)
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			out = append(out, tp)
		}
	}
	slices.SortFunc(out, slices.Compare[[]tree.NodeID])
	return out
}
