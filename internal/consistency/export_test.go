package consistency

// Test-only constructors and accessors. They are exported from this
// _test.go file so that the external fuzz tests can call them too, while
// production code builds a PinBase only through Scratch.PinBaseAC over a
// shared document index.

import (
	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/tree"
)

// NewPinBase snapshots p — the maximal arc-consistent prevaluation of q on
// t, as returned by FastAC — into a fresh PinBase with its own freshly
// built tree index. p's sets are copied.
func NewPinBase(t *tree.Tree, q *cq.Query, p *Prevaluation) *PinBase {
	sc := NewScratch()
	sc.loadSets(NewTreeIndex(t), q, p)
	return sc.PinBaseAC()
}

// copyFrom makes s an element-wise copy of o, reusing s's storage.
func (s *NodeSet) copyFrom(o *NodeSet) {
	w := bitset.Words(o.n)
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	}
	s.words = s.words[:w]
	copy(s.words, o.words)
	s.n = o.n
	s.count = o.count
}

// preWordsOf returns the words over t's pre ranks of s's members.
func preWordsOf(t *tree.Tree, s *NodeSet) []uint64 {
	w := make([]uint64, bitset.Words(t.Len()))
	s.ForEach(func(v tree.NodeID) bool {
		bitset.Set(w, t.Pre(v))
		return true
	})
	return w
}

// Members returns the members in increasing NodeID order.
func (s *NodeSet) Members() []tree.NodeID {
	out := make([]tree.NodeID, 0, s.count)
	s.ForEach(func(v tree.NodeID) bool { out = append(out, v); return true })
	return out
}
