package consistency

// Test-only constructors and accessors. They are exported from this
// _test.go file so that the external fuzz tests can call them too, while
// production code builds a PinBase only through Scratch.PinBaseForIx over
// a shared document index.

import (
	"repro/internal/cq"
	"repro/internal/tree"
)

// NewPinBase snapshots p — the maximal arc-consistent prevaluation of q on
// t, as returned by FastAC — into a fresh PinBase with its own freshly
// built tree index. p's sets are copied.
func NewPinBase(t *tree.Tree, q *cq.Query, p *Prevaluation) *PinBase {
	b := &PinBase{}
	b.init(NewTreeIndex(t), q, p)
	return b
}

// Members returns the members in increasing NodeID order.
func (s *NodeSet) Members() []tree.NodeID {
	out := make([]tree.NodeID, 0, s.count)
	s.ForEach(func(v tree.NodeID) bool { out = append(out, v); return true })
	return out
}
