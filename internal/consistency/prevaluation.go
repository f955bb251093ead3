// Package consistency implements prevaluations, arc-consistency and
// minimum valuations (§3 of "Conjunctive Queries over Trees").
//
// A prevaluation Π assigns to each query variable a nonempty set of tree
// nodes; it is arc-consistent if every node in every set has a "support"
// in the set of each neighbouring variable along every binary atom, and
// satisfies all unary atoms (Definition in §3). Proposition 3.1 computes
// the unique subset-maximal arc-consistent prevaluation in O(‖A‖·|Q|) via
// Horn-SAT; Lemma 3.4 extracts a consistent valuation by taking minima
// with respect to an order for which the structure has the X-property.
//
// The engine is FastAC, an AC-3-style worklist that never materializes
// relations. Each domain is a set of bitsets over the pre-order,
// sibling-order and (preEnd, pre) numberings, loaded from the initial
// sets in O(|dom| + n/64); a revision either probes each alive candidate
// (a bit test, a child or ancestor walk, or a first-alive-bit scan of an
// interval) or intersects with a whole-domain axis image (kernels.go).
// The same worklist runs the incremental pinned propagation of
// enumeration and MAC search (enumerate.go). Exclusions (exclude.go)
// restore arc consistency after one value leaves a domain by rechecking
// only what that removal could have supported; they drive Lemma 3.4's
// enumeration of monadic answers. The paper-exact Horn-SAT reduction of
// Prop. 3.1, solved by package hornsat, is the test oracle of all three
// and lives in this package's tests only.
package consistency

import (
	"fmt"

	"repro/internal/axis"
	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/tree"
)

// Valuation maps each query variable (by index) to a tree node.
type Valuation []tree.NodeID

// Consistent reports whether θ satisfies every atom of q on t (i.e. θ is a
// satisfaction, §3).
func Consistent(t *tree.Tree, q *cq.Query, theta Valuation) bool {
	for _, la := range q.Labels {
		if !t.HasLabel(theta[la.X], la.Label) {
			return false
		}
	}
	for _, at := range q.Atoms {
		if !axis.Holds(t, at.Axis, theta[at.X], theta[at.Y]) {
			return false
		}
	}
	return true
}

// NodeSet is a fixed-universe bitset over tree nodes with a cardinality
// counter, built on the shared word helpers of internal/bitset.
type NodeSet struct {
	words []uint64
	n     int // universe size
	count int
}

// NewNodeSet returns an empty set over a universe of n nodes.
func NewNodeSet(n int) *NodeSet {
	return &NodeSet{words: make([]uint64, bitset.Words(n)), n: n}
}

// FullNodeSet returns the set of all n nodes.
func FullNodeSet(n int) *NodeSet {
	s := &NodeSet{}
	s.ResetFull(n)
	return s
}

// Has reports membership.
func (s *NodeSet) Has(v tree.NodeID) bool { return bitset.Test(s.words, int32(v)) }

// Add inserts v.
func (s *NodeSet) Add(v tree.NodeID) {
	if !bitset.Test(s.words, int32(v)) {
		bitset.Set(s.words, int32(v))
		s.count++
	}
}

// Remove deletes v.
func (s *NodeSet) Remove(v tree.NodeID) {
	if bitset.Test(s.words, int32(v)) {
		bitset.Clear(s.words, int32(v))
		s.count--
	}
}

// Reset re-initializes s to the empty set over a universe of n nodes,
// reusing the backing storage when it is large enough.
func (s *NodeSet) Reset(n int) {
	s.words = bitset.Grow(s.words, bitset.Words(n))
	s.n = n
	s.count = 0
}

// ResetFull re-initializes s to the full set of n nodes, reusing the
// backing storage when it is large enough.
func (s *NodeSet) ResetFull(n int) {
	s.Reset(n)
	bitset.FillRange(s.words, 0, int32(n)-1)
	s.count = n
}

// Len returns the cardinality.
func (s *NodeSet) Len() int { return s.count }

// Empty reports whether the set is empty.
func (s *NodeSet) Empty() bool { return s.count == 0 }

// SizeBytes returns the approximate heap footprint of the set in bytes
// (the word array plus the fixed header).
func (s *NodeSet) SizeBytes() int64 { return int64(len(s.words))*8 + 16 }

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

// IntersectWith removes every element not in o.
func (s *NodeSet) IntersectWith(o *NodeSet) {
	s.count = bitset.AndInto(s.words, o.words)
}

// ForEach calls fn on every member in increasing NodeID order; stops early
// if fn returns false. fn may Remove the element it was called with (the
// iteration advances on a copied word), but must not otherwise mutate s.
func (s *NodeSet) ForEach(fn func(v tree.NodeID) bool) {
	bitset.ForEach(s.words, func(i int32) bool { return fn(tree.NodeID(i)) })
}

// Equal reports set equality.
func (s *NodeSet) Equal(o *NodeSet) bool {
	if s.count != o.count || s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Prevaluation assigns a NodeSet to each variable of a query.
type Prevaluation struct {
	Sets []*NodeSet // indexed by cq.Var
}

// NewPrevaluation returns the label-filtered initial prevaluation: each
// variable's set is the set of nodes carrying all labels required by the
// query's unary atoms for that variable (all nodes when unconstrained).
func NewPrevaluation(t *tree.Tree, q *cq.Query) *Prevaluation {
	n := t.Len()
	p := &Prevaluation{Sets: make([]*NodeSet, q.NumVars())}
	// Labeled variables build their set from the label index (first label)
	// and filter in place (subsequent labels); unlabeled variables get the
	// full set, word-filled. No per-atom throwaway sets.
	for _, la := range q.Labels {
		if s := p.Sets[la.X]; s == nil {
			s = NewNodeSet(n)
			for _, v := range t.NodesWithLabel(la.Label) {
				s.Add(v)
			}
			p.Sets[la.X] = s
		} else {
			filterByLabel(t, s, la.Label)
		}
	}
	for x, s := range p.Sets {
		if s == nil {
			p.Sets[x] = FullNodeSet(n)
		}
	}
	return p
}

// Empty reports whether some variable's set is empty (no arc-consistent
// prevaluation exists below this one).
func (p *Prevaluation) Empty() bool {
	for _, s := range p.Sets {
		if s.Empty() {
			return true
		}
	}
	return false
}

// Equal reports element-wise equality (used to cross-check engines).
func (p *Prevaluation) Equal(o *Prevaluation) bool {
	if len(p.Sets) != len(o.Sets) {
		return false
	}
	for i := range p.Sets {
		if !p.Sets[i].Equal(o.Sets[i]) {
			return false
		}
	}
	return true
}

// IsArcConsistent verifies the arc-consistency conditions of §3 directly
// (quadratic; used by tests and as an executable definition).
func (p *Prevaluation) IsArcConsistent(t *tree.Tree, q *cq.Query) bool {
	for _, la := range q.Labels {
		ok := true
		p.Sets[la.X].ForEach(func(v tree.NodeID) bool {
			if !t.HasLabel(v, la.Label) {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
	}
	for _, at := range q.Atoms {
		sx, sy := p.Sets[at.X], p.Sets[at.Y]
		ok := true
		sx.ForEach(func(v tree.NodeID) bool {
			found := false
			sy.ForEach(func(w tree.NodeID) bool {
				if axis.Holds(t, at.Axis, v, w) {
					found = true
					return false
				}
				return true
			})
			if !found {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
		sy.ForEach(func(w tree.NodeID) bool {
			found := false
			sx.ForEach(func(v tree.NodeID) bool {
				if axis.Holds(t, at.Axis, v, w) {
					found = true
					return false
				}
				return true
			})
			if !found {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
	}
	return true
}

// MinimumValuation returns the minimum valuation in p with respect to the
// order (Lemma 3.4): θ(x) is the <o-smallest node of Π(x). Panics if some
// set is empty.
func (p *Prevaluation) MinimumValuation(t *tree.Tree, o axis.Order) Valuation {
	theta := make(Valuation, len(p.Sets))
	for x, s := range p.Sets {
		if s.Empty() {
			panic(fmt.Sprintf("consistency: MinimumValuation with empty set for variable %d", x))
		}
		best := tree.NilNode
		var bestRank int32
		s.ForEach(func(v tree.NodeID) bool {
			r := o.Rank(t, v)
			if best == tree.NilNode || r < bestRank {
				best, bestRank = v, r
			}
			return true
		})
		theta[x] = best
	}
	return theta
}
