package tree

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Builder incrementally constructs a Tree. Nodes are added top-down: the
// first AddNode call with parent NilNode creates the root; subsequent calls
// attach children in left-to-right order. Call Build once at the end.
//
// A Builder keeps only flat buffers: the parent of each node and the label
// occurrences in the order they were added, each label interned to a
// builder-local id. Build derives the child lists, the orders and the
// label tables from them with a constant number of allocations, none per
// node.
//
// The zero Builder is ready to use.
type Builder struct {
	parent []NodeID
	// Label occurrences, in the order added: node occNode[i] carries the
	// label names[occLabel[i]]; ids maps a label back to its local id.
	occNode  []NodeID
	occLabel []int32
	ids      map[string]int32
	names    []string
	built    bool
}

// NewBuilder returns a Builder with capacity hints for n nodes.
func NewBuilder(n int) *Builder { return newBuilder(n, n) }

// newBuilder returns a Builder with capacity hints for n nodes carrying
// labels label occurrences in all.
func newBuilder(n, labels int) *Builder {
	return &Builder{
		parent:   make([]NodeID, 0, n),
		occNode:  make([]NodeID, 0, labels),
		occLabel: make([]int32, 0, labels),
	}
}

// AddNode appends a node with the given labels as the new rightmost child
// of parent (or as root if parent is NilNode and no root exists yet) and
// returns its NodeID. Repeated labels are kept once.
//
// AddNode panics if parent is out of range, if a second root is added, or
// if the builder was already consumed by Build.
func (b *Builder) AddNode(parent NodeID, labels ...string) NodeID {
	if b.built {
		panic("tree: Builder used after Build")
	}
	id := NodeID(len(b.parent))
	if parent == NilNode {
		if id != 0 {
			panic("tree: Builder already has a root")
		}
	} else {
		if parent < 0 || int(parent) >= len(b.parent) {
			panic(fmt.Sprintf("tree: AddNode parent %d out of range", parent))
		}
	}
	b.parent = append(b.parent, parent)
	for _, l := range labels {
		b.addLabel(id, l)
	}
	return id
}

// AddLabel adds a label to an existing node (deduplicated).
func (b *Builder) AddLabel(v NodeID, label string) {
	if b.built {
		panic("tree: Builder used after Build")
	}
	if v < 0 || int(v) >= len(b.parent) {
		panic(fmt.Sprintf("tree: AddLabel node %d out of range", v))
	}
	b.addLabel(v, label)
}

// addLabel records one label occurrence on v, interning the label.
func (b *Builder) addLabel(v NodeID, label string) {
	id, ok := b.ids[label]
	if !ok {
		if b.ids == nil {
			b.ids = make(map[string]int32)
		}
		id = int32(len(b.names))
		b.ids[label] = id
		b.names = append(b.names, label)
	}
	b.occNode = append(b.occNode, v)
	b.occLabel = append(b.occLabel, id)
}

// Len returns the number of nodes added so far.
func (b *Builder) Len() int { return len(b.parent) }

// Build finalizes and returns the Tree. The Builder must not be reused.
func (b *Builder) Build() *Tree {
	if b.built {
		panic("tree: Build called twice")
	}
	b.built = true
	t := &Tree{parent: b.parent}
	t.finish()
	t.setLabels(b.occNode, b.occLabel, b.names)
	t.deriveLabels()
	t.structure = structureSize(t)
	return t
}

// finish derives the child lists and every order from t.parent, in which
// each node's parent precedes it (parent[v] < v, as Builder guarantees),
// so every pass below is a plain loop over node ids; nothing recurses and
// nothing is allocated per node. The int32 arrays it allocates, labelOff
// included, share one allocation.
func (t *Tree) finish() {
	n := len(t.parent)
	t.size = n
	edges := max(n-1, 0)
	slab := make([]int32, 9*n+2*(n+1)+edges)
	take := func(k int) []int32 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	t.sibIndex, t.pre, t.post, t.bflr, t.depth, t.preEnd = take(n), take(n), take(n), take(n), take(n), take(n)
	t.byPre, t.byPost, t.byBFLR = nodeIDs(take(n)), nodeIDs(take(n)), nodeIDs(take(n))
	t.kidsOff, t.labelOff, t.kidsFlat = take(n+1), take(n+1), nodeIDs(take(edges))
	if n == 0 {
		return
	}

	// Child lists by a counting pass over parents. A parent's children were
	// added left to right, so their ids increase: filling in id order keeps
	// sibling order. post counts each parent's children placed so far; it
	// is overwritten with the post-order ranks below.
	for v := 1; v < n; v++ {
		t.kidsOff[t.parent[v]+1]++
	}
	for v := 0; v < n; v++ {
		t.kidsOff[v+1] += t.kidsOff[v]
	}
	for v := 1; v < n; v++ {
		p := t.parent[v]
		i := t.post[p]
		t.post[p]++
		t.sibIndex[v] = i
		t.kidsFlat[t.kidsOff[p]+i] = NodeID(v)
	}

	// Subtree sizes bottom-up (held in preEnd until the last pass), then
	// pre ranks and depths top-down: a node's first child follows it in
	// pre-order, and each further child follows its left sibling's subtree.
	size := t.preEnd
	for v := range size {
		size[v] = 1
	}
	for v := n - 1; v > 0; v-- {
		size[t.parent[v]] += size[v]
	}
	for p := 0; p < n; p++ {
		r := t.pre[p] + 1
		for _, c := range t.Children(NodeID(p)) {
			t.pre[c] = r
			t.depth[c] = t.depth[p] + 1
			r += size[c]
		}
	}
	// The last pre rank in v's subtree is preEnd; the nodes finished before
	// v in post-order are those before it in pre-order that are not its
	// ancestors, plus its proper descendants.
	for v := 0; v < n; v++ {
		last := t.pre[v] + size[v] - 1
		t.post[v] = last - t.depth[v]
		t.preEnd[v] = last
		t.byPre[t.pre[v]] = NodeID(v)
		t.byPost[t.post[v]] = NodeID(v)
	}

	// BFLR order: byBFLR is its own queue.
	tail := 1
	for r := 0; r < n; r++ {
		v := t.byBFLR[r]
		t.bflr[v] = int32(r)
		for i := t.kidsOff[v]; i < t.kidsOff[v+1]; i++ {
			t.byBFLR[tail] = t.kidsFlat[i]
			tail++
		}
	}
}

// setLabels fills the label tables from a builder's occurrences: names
// are interned in alphabet order, each node's ids are sorted and
// deduplicated in place, and t.labelOff (allocated by finish) becomes the
// CSR offsets. occLabel's storage becomes labelIDs.
func (t *Tree) setLabels(occNode []NodeID, occLabel []int32, names []string) {
	n, L := t.size, len(names)
	tmp := make([]int32, 2*L)
	order, rank := tmp[:L], tmp[L:]
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return names[order[i]] < names[order[j]] })
	for a, id := range order {
		rank[id] = int32(a)
	}

	off := t.labelOff
	inOrder := true
	for i, v := range occNode {
		off[v+1]++
		if i > 0 && v < occNode[i-1] {
			inOrder = false
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	ids := occLabel
	if !inOrder {
		// AddLabel reached back to an earlier node: place by node.
		ids = make([]int32, len(occLabel))
		placed := make([]int32, n)
		for i, v := range occNode {
			ids[off[v]+placed[v]] = occLabel[i]
			placed[v]++
		}
	}
	for i, id := range ids {
		ids[i] = rank[id]
	}
	var w int32
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		seg := ids[lo:hi]
		slices.Sort(seg)
		off[v] = w
		for _, id := range seg {
			if w == off[v] || ids[w-1] != id {
				ids[w] = id
				w++
			}
		}
	}
	off[n] = w
	t.labelIDs = ids[:w:w]

	t.nameOff = make([]int32, L+1)
	var total int
	for _, name := range names {
		total += len(name)
	}
	var sb strings.Builder
	sb.Grow(total)
	for a, id := range order {
		t.nameOff[a] = int32(sb.Len())
		sb.WriteString(names[id])
	}
	t.nameOff[L] = int32(sb.Len())
	t.nameStr = sb.String()
}

// deriveLabels builds what the label tables imply: the per-occurrence
// label strings behind Labels and, by one walk in pre-order, the label
// index. t.nameStr, nameOff, labelOff, labelIDs and byPre must be set,
// with byPre a permutation.
func (t *Tree) deriveLabels() {
	L := t.numLabels()
	names := make([]string, L)
	for i := range names {
		names[i] = t.labelName(i)
	}
	t.labelOcc = make([]string, len(t.labelIDs))
	for i, id := range t.labelIDs {
		t.labelOcc[i] = names[id]
	}
	tmp := make([]int32, 2*L+1)
	fill := tmp[L+1:]
	t.idxOff = tmp[: L+1 : L+1]
	for _, id := range t.labelIDs {
		t.idxOff[id+1]++
	}
	for i := 0; i < L; i++ {
		t.idxOff[i+1] += t.idxOff[i]
	}
	copy(fill, t.idxOff)
	t.idxFlat = make([]NodeID, len(t.labelIDs))
	for _, v := range t.byPre {
		for _, id := range t.labelIDs[t.labelOff[v]:t.labelOff[v+1]] {
			t.idxFlat[fill[id]] = v
			fill[id]++
		}
	}
}

// structureSize computes StructureSize: nodes + label atoms + |Child| +
// |NextSibling|.
func structureSize(t *Tree) int {
	n := t.size
	if n == 0 {
		return 0
	}
	nsPairs := 0
	for v := 0; v < n; v++ {
		if k := t.NumChildren(NodeID(v)); k > 0 {
			nsPairs += k - 1
		}
	}
	return n + len(t.labelIDs) + (n - 1) + nsPairs
}

// Path returns a "path structure" (§7 of the paper): a tree whose Child
// graph is a single downward path. labelSets[i] is the label set of the
// node at depth i (may be empty). The root is the node at depth 0.
func Path(labelSets ...[]string) *Tree {
	b := NewBuilder(len(labelSets))
	cur := NilNode
	for _, ls := range labelSets {
		cur = b.AddNode(cur, ls...)
	}
	return b.Build()
}

// PathOfLabels returns a path structure where node i carries the single
// label labels[i]; an empty string yields an unlabeled node.
func PathOfLabels(labels ...string) *Tree {
	sets := make([][]string, len(labels))
	for i, a := range labels {
		if a == "" {
			sets[i] = nil
		} else {
			sets[i] = []string{a}
		}
	}
	return Path(sets...)
}

// Combine builds a new tree with a fresh root (carrying rootLabels) whose
// subtrees are copies of the given trees, in order. This implements the
// "two copies of T under a common root" constructions of §5.
func Combine(rootLabels []string, subtrees ...*Tree) *Tree {
	n := 1
	for _, s := range subtrees {
		n += s.Len()
	}
	b := NewBuilder(n)
	root := b.AddNode(NilNode, rootLabels...)
	for _, s := range subtrees {
		copySubtree(b, s, s.Root(), root)
	}
	return b.Build()
}

// copySubtree copies the subtree of src rooted at v under parent in b.
func copySubtree(b *Builder, src *Tree, v NodeID, parent NodeID) NodeID {
	id := b.AddNode(parent, src.Labels(v)...)
	for _, c := range src.Children(v) {
		copySubtree(b, src, c, id)
	}
	return id
}

// Clone returns a deep copy of t (useful when callers want to own slices).
func Clone(t *Tree) *Tree {
	if t.Len() == 0 {
		return NewBuilder(0).Build()
	}
	b := NewBuilder(t.Len())
	copySubtree(b, t, t.Root(), NilNode)
	return b.Build()
}
