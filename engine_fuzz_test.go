package cqtrees

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/axis"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/tree"
)

// parityBytes hands out the fuzz input one byte at a time, then zeros.
type parityBytes []byte

func (b *parityBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// parityCase is one decoded FuzzEngineParity input: a tree of at most 10
// nodes over the labels A, B and C, a query over at most 4 variables, and
// a direction per head position for one mixed-order request.
//
// The first byte picks the query's axes: all 17 (0), or one of the three
// maximal tractable sets of axis.MaximalTractableSets (1-3), so that
// cyclic queries reach the X-property strategy often. The head is
// Boolean, one variable, a subset of the variables (a projection) or all
// of them in a rotated order.
type parityCase struct {
	t    *tree.Tree
	q    *cq.Query
	sig  int // 0: all axes; k: MaximalTractableSets()[k-1]
	dirs []Dir
}

func decodeParityCase(data []byte) parityCase {
	in := parityBytes(data)
	c := parityCase{sig: in.next() % 4}
	axes := axis.All()
	if c.sig > 0 {
		axes = axis.MaximalTractableSets()[c.sig-1]
	}
	n := 1 + in.next()%10
	b := tree.NewBuilder(n)
	for v := 0; v < n; v++ {
		var ls []string
		bits := in.next()
		for i, l := range []string{"A", "B", "C"} {
			if bits&(1<<i) != 0 {
				ls = append(ls, l)
			}
		}
		parent := tree.NilNode
		if v > 0 {
			parent = tree.NodeID(in.next() % v)
		}
		b.AddNode(parent, ls...)
	}
	c.t = b.Build()

	q := cq.New()
	nv := 1 + in.next()%4
	for x := 0; x < nv; x++ {
		q.AddVar([]string{"x", "y", "z", "w"}[x])
	}
	for i, na := 0, in.next()%6; i < na; i++ {
		q.AddAtom(axes[in.next()%len(axes)], cq.Var(in.next()%nv), cq.Var(in.next()%nv))
	}
	for i, nl := 0, in.next()%3; i < nl; i++ {
		q.AddLabel([]string{"A", "B", "C"}[in.next()%3], cq.Var(in.next()%nv))
	}
	var head []cq.Var
	switch in.next() % 4 {
	case 1:
		head = []cq.Var{cq.Var(in.next() % nv)}
	case 2:
		mask := in.next()
		for x := 0; x < nv; x++ {
			if mask&(1<<x) != 0 {
				head = append(head, cq.Var(x))
			}
		}
	case 3:
		rot := in.next()
		for x := 0; x < nv; x++ {
			head = append(head, cq.Var((x+rot)%nv))
		}
	}
	q.SetHead(head...)
	c.q = q
	dirBits := in.next()
	for i := range head {
		c.dirs = append(c.dirs, Dir(dirBits>>i&1))
	}
	return c
}

// engineParitySeeds are FuzzEngineParity's committed seeds. The first
// nine are three-variable X-property queries over each maximal tractable
// set, with a monadic head on each variable, so that the min-delete node
// stream runs in each X-order from each variable
// (TestEngineParitySeedsCoverTractableSets). The rest give projected,
// rotated and Boolean heads to each strategy.
var engineParitySeeds = [][]byte{
	// {Child, NextSibling, NextSibling*, NextSibling+}, the <bflr order.
	{1, 17, 225, 191, 89, 197, 170, 214, 230, 212, 129, 14, 42, 252, 161, 200, 183, 94, 206, 91, 154, 60, 30, 246, 102, 177, 246, 81, 206, 58, 1, 23, 66, 20, 89, 169},
	{1, 199, 244, 197, 143, 171, 43, 171, 76, 138, 166, 136, 123, 76, 79, 90, 152, 178, 174, 239, 73, 10, 123, 199, 133, 153, 111, 52, 17, 14, 114, 237, 159, 121, 31, 196},
	{1, 228, 36, 57, 180, 194, 237, 148, 204, 40, 159, 224, 13, 164, 130, 10, 127, 161, 57, 254, 14, 141, 45, 53, 165, 54, 119, 250, 92, 34, 241, 212, 253, 28, 168, 129},
	// {Child*, Child+}, the <pre order.
	{2, 126, 137, 104, 243, 142, 249, 199, 136, 118, 142, 84, 118, 105, 64, 22, 117, 36, 107, 177, 170, 101, 215, 75, 31, 65, 55, 242, 238, 209, 57, 3, 30, 229, 191, 164},
	{2, 178, 13, 6, 178, 150, 148, 215, 83, 7, 104, 185, 222, 249, 36, 71, 79, 27, 30, 50, 208, 210, 122, 14, 153, 83, 241, 68, 172, 91, 2, 101, 82, 162, 93, 163},
	{2, 86, 83, 224, 90, 176, 206, 35, 123, 184, 51, 116, 90, 216, 4, 154, 243, 46, 197, 192, 243, 160, 14, 22, 159, 107, 177, 9, 77, 60, 108, 160, 16, 56, 171, 58},
	// {Following}, the <post order.
	{3, 96, 245, 188, 76, 11, 99, 83, 201, 220, 44, 202, 177, 34, 81, 54, 124, 203, 175, 24, 87, 145, 245, 186, 105, 227, 180, 27, 29, 195, 117, 168, 186, 16, 65, 216},
	{3, 57, 135, 41, 89, 94, 235, 191, 175, 128, 239, 13, 17, 25, 234, 49, 69, 6, 27, 34, 199, 188, 142, 160, 63, 204, 73, 240, 104, 144, 212, 204, 27, 225, 64, 164},
	{3, 38, 141, 193, 237, 91, 213, 59, 246, 127, 22, 218, 53, 35, 76, 179, 138, 231, 245, 170, 243, 56, 29, 36, 99, 68, 31, 62, 140, 12, 255, 69, 173, 183, 228, 175},
	// Projected heads: acyclic, X-property (over {Child*, Child+}) and
	// backtracking.
	{0, 225, 129, 94, 5, 216, 142, 141, 57, 146, 19, 216, 79, 211, 81, 58, 182, 0, 127, 235, 121, 149, 108, 207, 102, 218, 119, 93, 238, 232, 17, 37, 46, 116, 93, 250},
	{2, 226, 8, 115, 222, 13, 93, 31, 210, 229, 198, 74, 184, 16, 251, 103, 27, 204, 237, 195, 93, 162, 231, 214, 187, 221, 54, 182, 62, 104, 180, 108, 224, 110, 227, 150},
	{0, 176, 206, 55, 47, 187, 221, 14, 133, 151, 18, 29, 14, 138, 81, 58, 165, 93, 82, 254, 102, 248, 157, 80, 88, 148, 73, 214, 179, 230, 246, 199, 221, 6, 33, 168},
	// Rotated heads over all variables: acyclic, X-property and backtracking.
	{0, 146, 149, 47, 120, 91, 45, 54, 196, 147, 94, 11, 57, 171, 19, 63, 201, 148, 89, 83, 127, 163, 64, 118, 126, 55, 57, 51, 25, 17, 84, 252, 146, 109, 9, 64},
	{2, 67, 103, 132, 30, 120, 157, 35, 194, 175, 71, 78, 38, 20, 105, 13, 188, 223, 15, 38, 126, 76, 0, 55, 204, 14, 236, 79, 159, 211, 223, 203, 35, 42, 86, 230},
	{0, 146, 119, 185, 85, 239, 136, 134, 233, 217, 139, 223, 76, 89, 51, 43, 15, 81, 112, 166, 69, 175, 82, 250, 167, 183, 233, 47, 95, 120, 218, 219, 61, 118, 218, 17},
	// A Boolean head.
	{0, 138, 99, 59, 109, 212, 59, 39, 43, 82, 87, 155, 95, 126, 129, 16, 238, 52, 198, 51, 220, 78, 95, 116, 106, 160, 131, 108, 81, 83, 221, 153, 153, 74, 169, 86},
}

// FuzzEngineParity checks the library tiers against the brute-force
// reference evaluator on fuzz-derived trees and queries over all 17 axes
// (ROADMAP item 5). Under every kernel policy:
//
//   - AllErr equals ReferenceEvalAll, and BoolErr its emptiness;
//   - the unordered Tuples stream holds each reference tuple exactly once;
//   - for monadic heads, NodesErr and the sorted NodeSeq stream equal the
//     reference nodes, and NodeSeq repeats none;
//   - WithOrder results, all ascending, all descending and one mixed
//     order, hold the reference tuples, in the requested order.
func FuzzEngineParity(f *testing.F) {
	for _, seed := range engineParitySeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeParityCase(data)
		ref := core.ReferenceEvalAll(c.t, c.q)
		slices.SortFunc(ref, slices.Compare)
		pq := MustPrepare(c.q)
		doc := Index(c.t)
		arity := len(c.q.Head)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s\nquery %s (%v)\ntree %s", fmt.Sprintf(format, args...), c.q, pq.Plan().Strategy, c.t)
		}
		defer consistency.SetKernelPolicy(consistency.KernelAuto)
		for _, pol := range []consistency.KernelPolicy{consistency.KernelAuto, consistency.KernelAlways, consistency.KernelNever} {
			consistency.SetKernelPolicy(pol)
			all, err := pq.AllErr(doc)
			if err != nil || !sameTuples(all, ref) {
				fail("policy %d: AllErr %v (%v), reference %v", pol, all, err, ref)
			}
			if sat, err := pq.BoolErr(doc); err != nil || sat != (len(ref) > 0) {
				fail("policy %d: BoolErr %v (%v) with %d reference answers", pol, sat, err, len(ref))
			}
			if arity == 0 {
				continue
			}
			stream := slices.Collect(pq.Tuples(doc))
			slices.SortFunc(stream, slices.Compare)
			if !sameTuples(stream, ref) {
				fail("policy %d: Tuples %v, reference %v", pol, stream, ref)
			}
			if arity == 1 {
				flat := make([]NodeID, len(ref))
				for i, tuple := range ref {
					flat[i] = tuple[0]
				}
				nodes, err := pq.NodesErr(doc)
				if err != nil || !slices.Equal(nodes, flat) {
					fail("policy %d: NodesErr %v (%v), reference %v", pol, nodes, err, flat)
				}
				seq := slices.Collect(pq.NodeSeq(doc))
				slices.Sort(seq)
				if !slices.Equal(seq, flat) {
					fail("policy %d: sorted NodeSeq %v, reference %v", pol, seq, flat)
				}
			}
			for _, dirs := range [][]Dir{make([]Dir, arity), slices.Repeat([]Dir{Desc}, arity), c.dirs} {
				got, err := pq.AllErr(doc, WithOrder(dirs...))
				if err != nil {
					fail("policy %d: AllErr %v: %v", pol, dirs, err)
				}
				for i := 1; i < len(got); i++ {
					if orderKeyCompare(c.t, dirs, got[i-1], got[i]) >= 0 {
						fail("policy %d: AllErr %v out of order at %d: %v", pol, dirs, i, got)
					}
				}
				slices.SortFunc(got, slices.Compare)
				if !sameTuples(got, ref) {
					fail("policy %d: AllErr %v holds %v, reference %v", pol, dirs, got, ref)
				}
			}
		}
	})
}

// TestEngineParitySeedsCoverTractableSets: the committed seeds reach the
// X-property strategy on each maximal tractable set with a monadic head on
// each variable of a three-variable query, and each has answers.
func TestEngineParitySeedsCoverTractableSets(t *testing.T) {
	covered := map[[2]int]bool{}
	for _, seed := range engineParitySeeds {
		c := decodeParityCase(seed)
		pq := MustPrepare(c.q)
		if c.sig == 0 || pq.Plan().Strategy != core.StrategyXProperty || len(c.q.Head) != 1 {
			continue
		}
		if len(core.ReferenceEvalAll(c.t, c.q)) == 0 {
			t.Errorf("seed %v: %s has no answers on %s", seed, c.q, c.t)
		}
		covered[[2]int{c.sig, int(c.q.Head[0])}] = true
	}
	for sig := 1; sig <= 3; sig++ {
		for x := 0; x < 3; x++ {
			if !covered[[2]int{sig, x}] {
				t.Errorf("no X-property seed over %v with head variable %d", axis.MaximalTractableSets()[sig-1], x)
			}
		}
	}
}

func sameTuples(a, b [][]NodeID) bool {
	return len(a) == len(b) && slices.EqualFunc(a, b, slices.Equal[[]NodeID])
}

// orderKeyCompare compares two tuples under WithOrder's key: position i
// by pre rank, ascending or descending per dirs[i].
func orderKeyCompare(t *tree.Tree, dirs []Dir, a, b []NodeID) int {
	for i := range a {
		ra, rb := t.Pre(a[i]), t.Pre(b[i])
		if dirs[i] == Desc {
			ra, rb = rb, ra
		}
		if ra != rb {
			return int(ra - rb)
		}
	}
	return 0
}
