// Package cq implements conjunctive queries over trees (§2 of "Conjunctive
// Queries over Trees"): datalog-style queries built from unary label atoms
// Label_a(x) and binary axis atoms R(x, y), with a tuple of free (head)
// variables. The 0-ary queries are Boolean, the unary ones monadic.
//
// The package provides the query graph (a directed multigraph with node
// and edge labels, Fig. 1), directed- and undirected-cycle analysis used
// by the rewriting system of §6, a parser for the paper's rule notation,
// and homomorphism-based containment checking for small queries (used by
// the test suite to verify rewrites).
package cq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/axis"
)

// Var is a query variable, identified by a dense non-negative index within
// its Query.
type Var int32

// NilVar is the sentinel "no variable".
const NilVar Var = -1

// LabelAtom is a unary atom Label(x): variable x must be mapped to a node
// carrying the label.
type LabelAtom struct {
	Label string
	X     Var
}

// AxisAtom is a binary atom R(x, y) over an axis relation R.
type AxisAtom struct {
	Axis axis.Axis
	X, Y Var
}

// Query is a conjunctive query. The zero value is an empty Boolean query
// (trivially true on any non-empty tree once it has no atoms and no head).
//
// Queries are mutable during construction (AddVar/AddLabel/AddAtom) and
// treated as immutable afterwards by the evaluation engines.
type Query struct {
	names  []string // variable names, index = Var
	byName map[string]Var

	Head   []Var // free variables; empty = Boolean query
	Labels []LabelAtom
	Atoms  []AxisAtom
}

// New returns an empty query ready for construction.
func New() *Query {
	return &Query{byName: map[string]Var{}}
}

// NumVars returns the number of variables.
func (q *Query) NumVars() int { return len(q.names) }

// VarName returns the name of x.
func (q *Query) VarName(x Var) string { return q.names[x] }

// VarByName returns the variable with the given name.
func (q *Query) VarByName(name string) (Var, bool) {
	v, ok := q.byName[name]
	return v, ok
}

// AddVar returns the variable named name, creating it if necessary.
func (q *Query) AddVar(name string) Var {
	if q.byName == nil {
		q.byName = map[string]Var{}
	}
	if v, ok := q.byName[name]; ok {
		return v
	}
	v := Var(len(q.names))
	q.names = append(q.names, name)
	q.byName[name] = v
	return v
}

// FreshVar creates a new variable with a generated, non-colliding name
// based on hint.
func (q *Query) FreshVar(hint string) Var {
	if hint == "" {
		hint = "v"
	}
	name := hint
	for i := 1; ; i++ {
		if _, ok := q.byName[name]; !ok {
			return q.AddVar(name)
		}
		name = fmt.Sprintf("%s_%d", hint, i)
	}
}

// AddLabel appends the unary atom Label(x).
func (q *Query) AddLabel(label string, x Var) {
	q.Labels = append(q.Labels, LabelAtom{Label: label, X: x})
}

// AddAtom appends the binary atom a(x, y).
func (q *Query) AddAtom(a axis.Axis, x, y Var) {
	q.Atoms = append(q.Atoms, AxisAtom{Axis: a, X: x, Y: y})
}

// AddChain appends a chain of k a-atoms leading from x to y through k-1
// fresh variables — the shortcut notation χ^k(x, y) of §5. AddChain panics
// if k < 1.
func (q *Query) AddChain(a axis.Axis, x, y Var, k int) {
	if k < 1 {
		panic(fmt.Sprintf("cq: AddChain with k = %d", k))
	}
	cur := x
	for i := 1; i < k; i++ {
		next := q.FreshVar(fmt.Sprintf("%s_c", q.names[x]))
		q.AddAtom(a, cur, next)
		cur = next
	}
	q.AddAtom(a, cur, y)
}

// SetHead declares the free variables of the query, in order.
func (q *Query) SetHead(vars ...Var) { q.Head = append(q.Head[:0], vars...) }

// IsBoolean reports whether the query has no free variables.
func (q *Query) IsBoolean() bool { return len(q.Head) == 0 }

// Size returns |Q|, the number of atoms in the body (the measure used for
// query sizes in §7).
func (q *Query) Size() int { return len(q.Labels) + len(q.Atoms) }

// Signature returns the sorted set of axes used by the query.
func (q *Query) Signature() []axis.Axis {
	seen := map[axis.Axis]bool{}
	for _, at := range q.Atoms {
		seen[at.Axis] = true
	}
	out := make([]axis.Axis, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LabelsOf returns the labels required on x, sorted.
func (q *Query) LabelsOf(x Var) []string {
	var out []string
	for _, la := range q.Labels {
		if la.X == x {
			out = append(out, la.Label)
		}
	}
	sort.Strings(out)
	return out
}

// UsedVars returns, for each variable, whether it occurs in any atom or in
// the head.
func (q *Query) UsedVars() []bool {
	used := make([]bool, len(q.names))
	for _, v := range q.Head {
		used[v] = true
	}
	for _, la := range q.Labels {
		used[la.X] = true
	}
	for _, at := range q.Atoms {
		used[at.X], used[at.Y] = true, true
	}
	return used
}

// Clone returns a deep copy of q sharing no mutable state.
func (q *Query) Clone() *Query {
	c := &Query{
		names:  append([]string(nil), q.names...),
		byName: make(map[string]Var, len(q.byName)),
		Head:   append([]Var(nil), q.Head...),
		Labels: append([]LabelAtom(nil), q.Labels...),
		Atoms:  append([]AxisAtom(nil), q.Atoms...),
	}
	for k, v := range q.byName {
		c.byName[k] = v
	}
	return c
}

// SubstituteVar replaces every occurrence of from (in head and body) by to.
// The variable from remains allocated but unused.
func (q *Query) SubstituteVar(from, to Var) {
	if from == to {
		return
	}
	for i, v := range q.Head {
		if v == from {
			q.Head[i] = to
		}
	}
	for i := range q.Labels {
		if q.Labels[i].X == from {
			q.Labels[i].X = to
		}
	}
	for i := range q.Atoms {
		if q.Atoms[i].X == from {
			q.Atoms[i].X = to
		}
		if q.Atoms[i].Y == from {
			q.Atoms[i].Y = to
		}
	}
}

// RemoveAtom deletes the binary atom at index i (order not preserved).
func (q *Query) RemoveAtom(i int) {
	q.Atoms[i] = q.Atoms[len(q.Atoms)-1]
	q.Atoms = q.Atoms[:len(q.Atoms)-1]
}

// Dedup removes duplicate label and axis atoms.
func (q *Query) Dedup() {
	seenL := map[LabelAtom]bool{}
	outL := q.Labels[:0]
	for _, la := range q.Labels {
		if !seenL[la] {
			seenL[la] = true
			outL = append(outL, la)
		}
	}
	q.Labels = outL
	seenA := map[AxisAtom]bool{}
	outA := q.Atoms[:0]
	for _, at := range q.Atoms {
		if !seenA[at] {
			seenA[at] = true
			outA = append(outA, at)
		}
	}
	q.Atoms = outA
}

// String renders the query in the paper's rule notation, e.g.
//
//	Q(z) <- A(x), Child(x,y), B(y), Following(x,z), C(z).
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("Q(")
	for i, v := range q.Head {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(q.names[v])
	}
	sb.WriteString(") <- ")
	first := true
	write := func(s string) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(s)
	}
	for _, la := range q.Labels {
		write(fmt.Sprintf("%s(%s)", la.Label, q.names[la.X]))
	}
	for _, at := range q.Atoms {
		write(fmt.Sprintf("%s(%s, %s)", at.Axis, q.names[at.X], q.names[at.Y]))
	}
	if first {
		sb.WriteString("true")
	}
	sb.WriteString(".")
	return sb.String()
}

// CanonicalKey returns a string that identifies the query up to reordering
// of atoms (but not up to variable renaming); used for deduplicating the
// conjunctive queries of an APQ during rewriting.
func (q *Query) CanonicalKey() string {
	ls := make([]string, 0, len(q.Labels))
	for _, la := range q.Labels {
		ls = append(ls, fmt.Sprintf("%s/%d", la.Label, la.X))
	}
	sort.Strings(ls)
	as := make([]string, 0, len(q.Atoms))
	for _, at := range q.Atoms {
		as = append(as, fmt.Sprintf("%d/%d/%d", at.Axis, at.X, at.Y))
	}
	sort.Strings(as)
	hs := make([]string, 0, len(q.Head))
	for _, v := range q.Head {
		hs = append(hs, fmt.Sprintf("%d", v))
	}
	return strings.Join(hs, ",") + "|" + strings.Join(ls, ";") + "|" + strings.Join(as, ";")
}

// Fingerprint returns a key identifying the query up to atom order and
// variable names: two queries with equal fingerprints have the same
// variables (by index), head, labels and atoms, and therefore evaluate
// identically on every tree. Unlike CanonicalKey the encoding is
// injective even for label strings containing the delimiters (labels are
// length-prefixed — programmatic construction allows arbitrary labels,
// e.g. treebank tags like "ADVP|PRT"), and it pins the variable count,
// since unused variables affect satisfiability on empty trees. Used as
// the result-cache key of the server and, hashed, as the query identity
// in pagination cursors.
func (q *Query) Fingerprint() string {
	ls := make([]string, 0, len(q.Labels))
	for _, la := range q.Labels {
		ls = append(ls, fmt.Sprintf("%d:%d:%s", la.X, len(la.Label), la.Label))
	}
	sort.Strings(ls)
	as := make([]string, 0, len(q.Atoms))
	for _, at := range q.Atoms {
		as = append(as, fmt.Sprintf("%d:%d:%d", at.Axis, at.X, at.Y))
	}
	sort.Strings(as)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d#", len(q.names))
	for _, v := range q.Head {
		fmt.Fprintf(&sb, "%d,", v)
	}
	sb.WriteByte('|')
	for _, s := range ls {
		sb.WriteString(s)
		sb.WriteByte(';')
	}
	sb.WriteByte('|')
	for _, s := range as {
		sb.WriteString(s)
		sb.WriteByte(';')
	}
	return sb.String()
}

// Normalize rebuilds the query with only used variables, renamed to
// x0, x1, ... in first-occurrence order, producing a canonical variable
// numbering. Returns the new query (the receiver is unchanged).
func (q *Query) Normalize() *Query {
	n := New()
	remap := make(map[Var]Var, len(q.names))
	get := func(v Var) Var {
		if nv, ok := remap[v]; ok {
			return nv
		}
		nv := n.AddVar(fmt.Sprintf("x%d", len(remap)))
		remap[v] = nv
		return nv
	}
	for _, v := range q.Head {
		n.Head = append(n.Head, get(v))
	}
	for _, la := range q.Labels {
		n.AddLabel(la.Label, get(la.X))
	}
	for _, at := range q.Atoms {
		n.AddAtom(at.Axis, get(at.X), get(at.Y))
	}
	return n
}
