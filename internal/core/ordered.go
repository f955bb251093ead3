package core

import (
	"sort"

	"repro/internal/consistency"
	"repro/internal/cq"
	"repro/internal/tree"
)

// Ordered enumeration: answers stream in lexicographic document order
// over the head tuple — position i ascending or descending over pre-order
// ranks per EnumOptions.Order[i] — with no sort and no buffering, and a
// resume point (EnumOptions.After) seeks each position directly to its
// recorded rank instead of re-enumerating skipped answers.
//
// Three engines serve it, by strategy and head:
//
//   - Acyclic queries whose head is walkable in head order (see
//     shadowForest.inOrder) run the axis-image walk of acyclic.go with a
//     direction and a resume seek per position: the head's first variable
//     roots the forest and every later one is read from its forest
//     parent, so after the bottom-up semijoin pass no step reaches a dead
//     end.
//   - Every other acyclic head, and the X-property strategy, run the
//     pinned-AC descent below, each level's candidate bitset iterated in
//     the requested direction. It is sound and complete for both:
//     under the X-property, pinned arc consistency decides
//     satisfiability exactly (Theorem 3.5), so a fully pinned consistent
//     state IS an answer and every answer survives pinning; for an
//     acyclic query, arc consistency with nonempty domains is
//     decision-complete on forest-structured constraint graphs (Freuder),
//     and pinning head variables keeps the graph a forest. Head tuples
//     are enumerated directly (one pin path per distinct tuple), so no
//     dedup set is needed and the stream is memory-flat.
//   - The backtracking strategy lacks an order-aware search; it
//     materializes, sorts by the requested key, and replays — order and
//     limit are honored, but a cursor restart there costs O(answers), not
//     O(depth).

// orderedForEachTuple streams the distinct answer tuples of p on d in the
// requested document order, resuming strictly after o.After when set.
// o.Order must have exactly one direction per head variable (callers
// validate); the head must be non-empty. The tuple passed to fn is reused.
func (p *Prepared) orderedForEachTuple(d *Document, s *evalScratch, o EnumOptions, stop func() bool, fn func(tuple []tree.NodeID) bool) {
	switch {
	case p.plan.Strategy == StrategyBacktrack:
		p.orderedBacktrack(d, s, o, stop, fn)
	case p.plan.Strategy == StrategyAcyclic && p.forest.inOrder:
		acyclicForEachTuple(d, p.q, p.forest, s, o.Order, o.After, stop, fn)
	default:
		orderedDescent(d, p.q, s, o, stop, fn)
	}
}

// orderedDescent is orderedForEachTuple through the pinned-AC descent.
func orderedDescent(d *Document, q *cq.Query, s *evalScratch, o EnumOptions, stop func() bool, fn func(tuple []tree.NodeID) bool) {
	if !s.ac.FastACPreIx(d.ix, q) {
		return
	}
	e := orderedEnum{
		run:   s.ac.PinRunFor(s.ac.PinBaseAC()),
		head:  q.Head,
		dirs:  o.Order,
		after: o.After,
		stop:  stop,
		fn:    fn,
		tuple: make([]tree.NodeID, len(q.Head)),
	}
	e.rec(0, e.after != nil)
}

// orderedEnum is the state of one ordered pinned-AC descent.
type orderedEnum struct {
	run   *consistency.PinRun
	head  []cq.Var
	dirs  []OrderDir
	after []int32 // resume point (pre ranks per head position), or nil
	stop  func() bool
	fn    func([]tree.NodeID) bool
	tuple []tree.NodeID
}

// rec enumerates dimension d of the head tuple from the current pin state
// in the requested direction. onPrefix tracks whether every pin so far
// equals the resume point's — only then does level d seek to after[d]
// (O(1) into the bitset) instead of starting from the extreme end, and
// only the exact resume tuple itself is skipped, giving strictly-after
// resume semantics. Returns false when enumeration should stop.
func (e *orderedEnum) rec(d int, onPrefix bool) bool {
	if d == len(e.head) {
		return e.fn(e.tuple)
	}
	desc := e.dirs[d] == OrderDesc
	from := int32(-1)
	if onPrefix {
		from = e.after[d]
	}
	last := d == len(e.head)-1
	cont := true
	e.run.ForEachCurrentDir(e.head[d], desc, from, func(v tree.NodeID, pr int32) bool {
		if d == 0 && e.stop != nil && e.stop() {
			cont = false
			return false
		}
		childOnPrefix := onPrefix && pr == e.after[d]
		if childOnPrefix && last {
			return true // the resume tuple itself: already delivered
		}
		e.tuple[d] = v
		if e.run.Push(e.head[d], v) {
			cont = e.rec(d+1, childOnPrefix)
			e.run.Pop()
		}
		return cont
	})
	return cont
}

// orderedBacktrack is the ordered fallback for the NP-hard strategy:
// materialize the distinct answer tuples (discovery order, deduped),
// sort them by the requested document-order key, and replay from the
// resume point. Document-order-optimal only — a resume costs O(answers).
func (p *Prepared) orderedBacktrack(d *Document, s *evalScratch, o EnumOptions, stop func() bool, fn func(tuple []tree.NodeID) bool) {
	var out [][]tree.NodeID
	s.backtracker().forEachTuple(d, p.q, stop, func(tuple []tree.NodeID) bool {
		out = append(out, copyTuple(tuple))
		return true
	})
	t := d.t
	sort.Slice(out, func(i, j int) bool {
		return orderedKeyLess(t, o.Order, out[i], out[j])
	})
	for _, tuple := range out {
		if o.After != nil && !afterResume(t, o.Order, o.After, tuple) {
			continue
		}
		if !fn(tuple) {
			return
		}
	}
}

// orderedKeyLess compares two tuples under the per-position document-order
// key: position k orders by pre rank, ascending or descending per dirs[k].
func orderedKeyLess(t *tree.Tree, dirs []OrderDir, a, b []tree.NodeID) bool {
	for k := range a {
		ra, rb := t.Pre(a[k]), t.Pre(b[k])
		if ra == rb {
			continue
		}
		if dirs[k] == OrderDesc {
			return ra > rb
		}
		return ra < rb
	}
	return false
}

// afterResume reports whether tuple sorts strictly after the resume
// point's pre ranks under the per-position key — i.e. belongs to the
// resumed stream.
func afterResume(t *tree.Tree, dirs []OrderDir, after []int32, tuple []tree.NodeID) bool {
	for k := range tuple {
		r := t.Pre(tuple[k])
		if r == after[k] {
			continue
		}
		if dirs[k] == OrderDesc {
			return r < after[k]
		}
		return r > after[k]
	}
	return false // the resume tuple itself: already delivered
}
