// Package tree implements the unranked labeled tree substrate of
// "Conjunctive Queries over Trees" (Gottlob, Koch, Schulz; JACM 53(2), 2006).
//
// A tree is a relational structure over a finite set of nodes with unary
// label relations Label_a and binary axis relations (Child, Child+, Child*,
// NextSibling, NextSibling+, NextSibling*, Following; see package axis).
// Nodes may carry multiple labels (§2 of the paper).
//
// The representation is index-based: nodes are dense NodeIDs, and the
// three total orders of §2 (pre-order, post-order, breadth-first
// left-to-right) as well as subtree intervals are precomputed so that every
// axis test costs O(1) (see package axis).
package tree

import (
	"fmt"
	"iter"
	"sort"
	"strings"
)

// NodeID identifies a node of a Tree. IDs are dense indexes in [0, Len()).
// The root of a non-empty tree always has NodeID 0. NilNode is used as the
// "no node" sentinel (e.g. parent of the root).
type NodeID int32

// NilNode is the sentinel "no node" value.
const NilNode NodeID = -1

// Tree is an immutable unranked tree with multi-labeled nodes.
//
// Construct trees with a Builder, one of the parsers (ParseTerm, ParseXML),
// or a generator (see random.go). After construction a Tree must not be
// mutated; all query-evaluation code in this module relies on the
// precomputed orders staying consistent.
//
// Every field is a flat array, the same layout the document snapshot
// stores (see snapshot.go): child lists and label sets are CSR — an
// offsets array of n+1 entries into one flat array — and labels are
// interned to ids in alphabet order. Persisting writes these arrays as
// they are and hydration adopts them, so neither builds per-node objects.
type Tree struct {
	parent   []NodeID // parent[v] or NilNode for the root
	kidsOff  []int32  // n+1 offsets: v's children are kidsFlat[kidsOff[v]:kidsOff[v+1]]
	kidsFlat []NodeID // children, parent-major, left to right
	sibIndex []int32  // position of v among its siblings (root: 0)

	pre    []int32  // pre-order rank (document order), 0-based
	post   []int32  // post-order rank, 0-based
	bflr   []int32  // breadth-first left-to-right rank, 0-based
	depth  []int32  // root depth 0
	preEnd []int32  // max pre-order rank within v's subtree
	byPre  []NodeID // byPre[r] = node with pre rank r
	byPost []NodeID // byPost[r] = node with post rank r
	byBFLR []NodeID // byBFLR[r] = node with bflr rank r

	// Labels. Label id i, in alphabet order, names
	// nameStr[nameOff[i]:nameOff[i+1]]; every label occurs on some node.
	nameStr  string
	nameOff  []int32  // L+1 offsets into nameStr
	labelOff []int32  // n+1 offsets: v's labels are labelIDs/labelOcc[labelOff[v]:labelOff[v+1]]
	labelIDs []int32  // label ids per node, node-major, ascending per node
	labelOcc []string // labelOcc[i] is the name of labelIDs[i]
	idxOff   []int32  // L+1 offsets: label i's nodes are idxFlat[idxOff[i]:idxOff[i+1]]
	idxFlat  []NodeID // label index, each label's nodes in pre-order

	size      int
	structure int // cached encoding size ‖A‖ proxy; see StructureSize
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return t.size }

// Root returns the root node, or NilNode if the tree is empty.
func (t *Tree) Root() NodeID {
	if t.size == 0 {
		return NilNode
	}
	return 0
}

// Parent returns the parent of v, or NilNode for the root.
func (t *Tree) Parent(v NodeID) NodeID { return t.parent[v] }

// Children returns the children of v in left-to-right order.
// The returned slice is owned by the tree and must not be modified.
func (t *Tree) Children(v NodeID) []NodeID {
	lo, hi := t.kidsOff[v], t.kidsOff[v+1]
	return t.kidsFlat[lo:hi:hi]
}

// NumChildren returns the number of children of v.
func (t *Tree) NumChildren(v NodeID) int { return int(t.kidsOff[v+1] - t.kidsOff[v]) }

// SiblingIndex returns v's position among its siblings (leftmost = 0).
// The root has sibling index 0.
func (t *Tree) SiblingIndex(v NodeID) int32 { return t.sibIndex[v] }

// NextSibling returns the right neighboring sibling of v, or NilNode.
func (t *Tree) NextSibling(v NodeID) NodeID {
	p := t.parent[v]
	if p == NilNode {
		return NilNode
	}
	i := t.kidsOff[p] + t.sibIndex[v] + 1
	if i >= t.kidsOff[p+1] {
		return NilNode
	}
	return t.kidsFlat[i]
}

// PrevSibling returns the left neighboring sibling of v, or NilNode.
func (t *Tree) PrevSibling(v NodeID) NodeID {
	p := t.parent[v]
	if p == NilNode {
		return NilNode
	}
	if t.sibIndex[v] == 0 {
		return NilNode
	}
	return t.kidsFlat[t.kidsOff[p]+t.sibIndex[v]-1]
}

// Labels returns the sorted label set of v (possibly empty).
// The returned slice is owned by the tree and must not be modified.
func (t *Tree) Labels(v NodeID) []string {
	lo, hi := t.labelOff[v], t.labelOff[v+1]
	return t.labelOcc[lo:hi:hi]
}

// HasLabel reports whether v carries label a.
func (t *Tree) HasLabel(v NodeID, a string) bool {
	ls := t.Labels(v)
	i := sort.SearchStrings(ls, a)
	return i < len(ls) && ls[i] == a
}

// NodesWithLabel returns all nodes carrying label a, sorted by pre-order.
// The returned slice is owned by the tree and must not be modified.
func (t *Tree) NodesWithLabel(a string) []NodeID {
	i, ok := t.labelID(a)
	if !ok {
		return nil
	}
	lo, hi := t.idxOff[i], t.idxOff[i+1]
	return t.idxFlat[lo:hi:hi]
}

// Alphabet returns the sorted set of labels occurring in the tree.
func (t *Tree) Alphabet() []string {
	out := make([]string, t.numLabels())
	for i := range out {
		out[i] = t.labelName(i)
	}
	return out
}

// numLabels returns the number of distinct labels.
func (t *Tree) numLabels() int { return len(t.nameOff) - 1 }

// labelName returns the name of label id i.
func (t *Tree) labelName(i int) string { return t.nameStr[t.nameOff[i]:t.nameOff[i+1]] }

// labelID returns the id of label a by binary search over the alphabet.
func (t *Tree) labelID(a string) (int, bool) {
	L := t.numLabels()
	i := sort.Search(L, func(i int) bool { return t.labelName(i) >= a })
	return i, i < L && t.labelName(i) == a
}

// Pre returns the pre-order (document order) rank of v, 0-based.
func (t *Tree) Pre(v NodeID) int32 { return t.pre[v] }

// Post returns the post-order rank of v, 0-based.
func (t *Tree) Post(v NodeID) int32 { return t.post[v] }

// BFLR returns the breadth-first left-to-right rank of v, 0-based.
func (t *Tree) BFLR(v NodeID) int32 { return t.bflr[v] }

// Depth returns the depth of v (root depth 0).
func (t *Tree) Depth(v NodeID) int32 { return t.depth[v] }

// PreEnd returns the maximum pre-order rank inside v's subtree, so that
// w is a descendant-or-self of v iff Pre(v) <= Pre(w) <= PreEnd(v).
func (t *Tree) PreEnd(v NodeID) int32 { return t.preEnd[v] }

// ByPre returns the node with pre-order rank r.
func (t *Tree) ByPre(r int32) NodeID { return t.byPre[r] }

// ByPost returns the node with post-order rank r.
func (t *Tree) ByPost(r int32) NodeID { return t.byPost[r] }

// ByBFLR returns the node with breadth-first rank r.
func (t *Tree) ByBFLR(r int32) NodeID { return t.byBFLR[r] }

// SubtreeSize returns the number of nodes in v's subtree (including v).
func (t *Tree) SubtreeSize(v NodeID) int {
	return int(t.preEnd[v]-t.pre[v]) + 1
}

// IsAncestorOrSelf reports Child*(u, v): u lies on the path from the root
// to v (inclusive).
func (t *Tree) IsAncestorOrSelf(u, v NodeID) bool {
	return t.pre[u] <= t.pre[v] && t.pre[v] <= t.preEnd[u]
}

// IsAncestor reports Child+(u, v): u is a proper ancestor of v.
func (t *Tree) IsAncestor(u, v NodeID) bool {
	return t.pre[u] < t.pre[v] && t.pre[v] <= t.preEnd[u]
}

// Height returns the height of the tree (a single node has height 0);
// -1 for the empty tree.
func (t *Tree) Height() int {
	h := int32(-1)
	for _, d := range t.depth {
		if d > h {
			h = d
		}
	}
	return int(h)
}

// StructureSize returns ‖A‖, a proxy for the encoding size of the
// relational structure: nodes + label-atom occurrences + the sizes of the
// materialized Child and NextSibling relations (both O(n)). The transitive
// axes are not counted since they are derived in O(1) from the numbering.
func (t *Tree) StructureSize() int { return t.structure }

// SizeBytes returns the approximate heap footprint of the tree in bytes:
// the flat arrays of the precomputed orders, the CSR child lists, and the
// label storage (interned names, per-node label ids and strings, and the
// label index). It is an accounting figure — it counts the arrays' lengths,
// not allocator rounding — intended for corpus-level memory budgeting, and
// is stable after construction.
func (t *Tree) SizeBytes() int64 {
	n := int64(t.size)
	// Ten int32/NodeID arrays of length n: parent, sibIndex, pre, post,
	// bflr, depth, preEnd, byPre, byPost, byBFLR; the two n+1 offset
	// arrays kidsOff and labelOff; one NodeID per edge in kidsFlat.
	b := 4 * (10*n + 2*(n+1))
	if n > 0 {
		b += 4 * (n - 1)
	}
	// Per label occurrence: its id (4), its string header (16) and its
	// label-index entry (4). Per distinct label: its name bytes and the
	// two L+1 offset arrays nameOff and idxOff.
	b += 24 * int64(len(t.labelIDs))
	b += int64(len(t.nameStr)) + 8*int64(t.numLabels()+1)
	return b
}

// Nodes returns an iterator over all nodes in document (pre) order:
//
//	for v := range t.Nodes() { ... }
//
// Unlike Walk, breaking does not skip subtrees — it stops the iteration.
func (t *Tree) Nodes() iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		for _, v := range t.byPre {
			if !yield(v) {
				return
			}
		}
	}
}

// Walk visits every node in pre-order, calling fn; if fn returns false the
// subtree below the node is skipped.
func (t *Tree) Walk(fn func(v NodeID) bool) {
	if t.size == 0 {
		return
	}
	type frame struct {
		v NodeID
	}
	stack := []frame{{0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fn(f.v) {
			continue
		}
		ks := t.Children(f.v)
		for i := len(ks) - 1; i >= 0; i-- {
			stack = append(stack, frame{ks[i]})
		}
	}
}

// AncestorAtDepth returns the ancestor of v at depth d, or NilNode if
// d exceeds Depth(v).
func (t *Tree) AncestorAtDepth(v NodeID, d int32) NodeID {
	if d > t.depth[v] || d < 0 {
		return NilNode
	}
	for t.depth[v] > d {
		v = t.parent[v]
	}
	return v
}

// Validate checks internal invariants: orders are permutations, subtree
// intervals nest, sibling indexes match child lists, label sets are sorted
// and name the alphabet, and the label index agrees with the label sets.
// It is used by property-based tests.
func (t *Tree) Validate() error {
	n := t.size
	if len(t.parent) != n || len(t.sibIndex) != n || len(t.pre) != n || len(t.post) != n ||
		len(t.bflr) != n || len(t.depth) != n || len(t.preEnd) != n ||
		len(t.byPre) != n || len(t.byPost) != n || len(t.byBFLR) != n ||
		len(t.kidsOff) != n+1 || len(t.labelOff) != n+1 {
		return fmt.Errorf("tree: inconsistent slice lengths for %d nodes", n)
	}
	if n > 0 && len(t.kidsFlat) != n-1 {
		return fmt.Errorf("tree: %d child entries for %d nodes", len(t.kidsFlat), n)
	}
	for _, o := range []struct {
		name    string
		rank    []int32
		inverse []NodeID
	}{{"pre", t.pre, t.byPre}, {"post", t.post, t.byPost}, {"bflr", t.bflr, t.byBFLR}} {
		for v := 0; v < n; v++ {
			r := o.rank[v]
			if r < 0 || int(r) >= n || o.inverse[r] != NodeID(v) {
				return fmt.Errorf("tree: %s rank %d of node %d invalid or not inverted", o.name, r, v)
			}
		}
	}
	if t.kidsOff[0] != 0 || int(t.kidsOff[n]) != len(t.kidsFlat) {
		return fmt.Errorf("tree: child offsets do not span the child array")
	}
	for v := 0; v < n; v++ {
		id := NodeID(v)
		if t.kidsOff[v+1] < t.kidsOff[v] {
			return fmt.Errorf("tree: child offsets decrease at node %d", v)
		}
		for i, c := range t.Children(id) {
			if t.parent[c] != id {
				return fmt.Errorf("tree: child %d of %d has parent %d", c, v, t.parent[c])
			}
			if int(t.sibIndex[c]) != i {
				return fmt.Errorf("tree: child %d of %d has sibIndex %d, want %d", c, v, t.sibIndex[c], i)
			}
			if t.depth[c] != t.depth[v]+1 {
				return fmt.Errorf("tree: depth of %d is %d, parent depth %d", c, t.depth[c], t.depth[v])
			}
			if !(t.pre[c] > t.pre[v] && t.preEnd[c] <= t.preEnd[v]) {
				return fmt.Errorf("tree: subtree interval of child %d not nested in %d", c, v)
			}
		}
		if t.parent[v] == NilNode && v != 0 {
			return fmt.Errorf("tree: non-root node %d has no parent", v)
		}
	}
	L := t.numLabels()
	if L < 0 || len(t.idxOff) != L+1 || t.nameOff[0] != 0 || int(t.nameOff[L]) != len(t.nameStr) {
		return fmt.Errorf("tree: label tables inconsistent with %d labels", L)
	}
	if t.idxOff[0] != 0 || int(t.idxOff[L]) != len(t.idxFlat) {
		return fmt.Errorf("tree: label index offsets do not span the index")
	}
	for i := 0; i < L; i++ {
		if t.nameOff[i] > t.nameOff[i+1] || t.idxOff[i] > t.idxOff[i+1] {
			return fmt.Errorf("tree: label offsets decrease at label %d", i)
		}
	}
	for i := 1; i < L; i++ {
		if t.labelName(i-1) >= t.labelName(i) {
			return fmt.Errorf("tree: alphabet not strictly sorted at label %d", i)
		}
	}
	if t.labelOff[0] != 0 || int(t.labelOff[n]) != len(t.labelIDs) || len(t.labelOcc) != len(t.labelIDs) {
		return fmt.Errorf("tree: label offsets do not span the label arrays")
	}
	for v := 0; v < n; v++ {
		lo, hi := t.labelOff[v], t.labelOff[v+1]
		if hi < lo {
			return fmt.Errorf("tree: label offsets decrease at node %d", v)
		}
		for i := lo; i < hi; i++ {
			id := t.labelIDs[i]
			if id < 0 || int(id) >= L || (i > lo && t.labelIDs[i-1] >= id) || t.labelOcc[i] != t.labelName(int(id)) {
				return fmt.Errorf("tree: label set of node %d unsorted or out of the alphabet", v)
			}
		}
	}
	for i := 0; i < L; i++ {
		a := t.labelName(i)
		nodes := t.NodesWithLabel(a)
		if len(nodes) == 0 {
			return fmt.Errorf("tree: alphabet label %q occurs on no node", a)
		}
		for j, v := range nodes {
			if !t.HasLabel(v, a) {
				return fmt.Errorf("tree: label index lists %q on node %d which lacks it", a, v)
			}
			if j > 0 && t.pre[nodes[j-1]] >= t.pre[v] {
				return fmt.Errorf("tree: label index for %q not sorted by pre", a)
			}
		}
	}
	if len(t.idxFlat) != len(t.labelIDs) {
		return fmt.Errorf("tree: label index holds %d entries, nodes carry %d labels", len(t.idxFlat), len(t.labelIDs))
	}
	return nil
}

// String renders the tree in the term syntax accepted by ParseTerm.
func (t *Tree) String() string {
	if t.size == 0 {
		return ""
	}
	var sb strings.Builder
	t.writeTerm(&sb, 0)
	return sb.String()
}

func (t *Tree) writeTerm(sb *strings.Builder, v NodeID) {
	ls := t.Labels(v)
	if len(ls) == 0 {
		sb.WriteString("_")
	}
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(l)
	}
	if kids := t.Children(v); len(kids) > 0 {
		sb.WriteByte('(')
		for i, c := range kids {
			if i > 0 {
				sb.WriteByte(',')
			}
			t.writeTerm(sb, c)
		}
		sb.WriteByte(')')
	}
}

// Equal reports structural equality: same shape and same label sets at
// corresponding positions.
func (t *Tree) Equal(u *Tree) bool {
	if t.size != u.size {
		return false
	}
	for v := 0; v < t.size; v++ {
		// Compare in pre-order alignment: node with pre rank r in each.
		a, b := t.byPre[v], u.byPre[v]
		if t.NumChildren(a) != u.NumChildren(b) {
			return false
		}
		la, lb := t.Labels(a), u.Labels(b)
		if len(la) != len(lb) {
			return false
		}
		for i := range la {
			if la[i] != lb[i] {
				return false
			}
		}
	}
	return true
}
