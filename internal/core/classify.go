// Package core implements the primary contribution of "Conjunctive Queries
// over Trees": the tractability dichotomy (Theorem 1.1 / Table I) together
// with the evaluation engines it selects between —
//
//   - the X-property polynomial-time engine of Theorem 3.5 (arc-consistency
//     plus minimum valuation, O(‖A‖·|Q|) for Boolean queries);
//   - a Yannakakis-style engine for acyclic queries (one bottom-up
//     semijoin pass over a head-rooted forest, backtrack-free
//     enumeration);
//   - a general MAC backtracking engine, complete for every signature but
//     exponential in the worst case (the problem is NP-complete outside
//     the tractable signatures, §5).
//
// Classify decides, for any signature F ⊆ Ax, whether CQ evaluation is in
// polynomial time (iff some total order gives every axis in F the
// X-property, Theorem 1.1) and records the relevant paper theorem.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/axis"
	"repro/internal/cq"
)

// Complexity is the dichotomy outcome for a signature.
type Complexity int

// The two sides of the dichotomy (Theorem 1.1).
const (
	PTime Complexity = iota
	NPComplete
)

// String names the complexity class as in Table I.
func (c Complexity) String() string {
	switch c {
	case PTime:
		return "in P"
	case NPComplete:
		return "NP-hard"
	default:
		return "invalid"
	}
}

// Classification is the result of classifying a signature.
type Classification struct {
	Axes       []axis.Axis
	Complexity Complexity
	// Order is the witnessing total order for PTime signatures (every
	// axis has the X-property with respect to it).
	Order axis.Order
	// Theorem cites the paper result justifying the classification
	// (e.g. "Cor 4.2", "Thm 5.1").
	Theorem string
}

// String renders e.g. "{Child, Following}: NP-hard (Thm 5.2)".
func (c Classification) String() string {
	names := make([]string, len(c.Axes))
	for i, a := range c.Axes {
		names[i] = a.String()
	}
	s := fmt.Sprintf("{%s}: %s", strings.Join(names, ", "), c.Complexity)
	if c.Complexity == PTime {
		s += fmt.Sprintf(" via X-property w.r.t. %s", c.Order)
	}
	if c.Theorem != "" {
		s += fmt.Sprintf(" (%s)", c.Theorem)
	}
	return s
}

// Classify determines the complexity of conjunctive query evaluation over
// structures with unary label relations plus the given axes, per
// Theorem 1.1: PTime iff all axes share an order with the X-property,
// otherwise NP-complete.
func Classify(axes []axis.Axis) Classification {
	sorted := append([]axis.Axis(nil), axes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	c := Classification{Axes: sorted}
	if o, ok := axis.CommonXOrder(sorted); ok {
		c.Complexity = PTime
		c.Order = o
		c.Theorem = ptimeTheorem(sorted)
		return c
	}
	c.Complexity = NPComplete
	c.Theorem = npTheorem(sorted)
	return c
}

// ClassifyQuery classifies the signature actually used by q.
func ClassifyQuery(q *cq.Query) Classification { return Classify(q.Signature()) }

// ptimeTheorem returns the paper citation for a tractable signature.
func ptimeTheorem(axes []axis.Axis) string {
	o, _ := axis.CommonXOrder(axes)
	switch o {
	case axis.PreOrder:
		return "Cor 4.2"
	case axis.PostOrder:
		return "Cor 4.3"
	case axis.BFLROrder:
		return "Cor 4.4"
	default:
		return "Thm 3.5"
	}
}

// pairKey builds an order-independent lookup key for axis pairs.
func pairKey(a, b axis.Axis) [2]axis.Axis {
	if a > b {
		a, b = b, a
	}
	return [2]axis.Axis{a, b}
}

// npPairTheorems cites the hardness theorem for each intractable pair of
// paper axes, exactly as printed in Table I.
var npPairTheorems = map[[2]axis.Axis]string{
	pairKey(axis.Child, axis.ChildPlus):           "Thm 5.1",
	pairKey(axis.Child, axis.ChildStar):           "Thm 5.1",
	pairKey(axis.Child, axis.Following):           "Thm 5.2",
	pairKey(axis.ChildPlus, axis.Following):       "Thm 5.3",
	pairKey(axis.ChildStar, axis.Following):       "Thm 5.3",
	pairKey(axis.ChildStar, axis.NextSiblingPlus): "Cor 5.4",
	pairKey(axis.ChildStar, axis.NextSibling):     "Thm 5.5",
	pairKey(axis.ChildStar, axis.NextSiblingStar): "Thm 5.6",
	pairKey(axis.ChildPlus, axis.NextSibling):     "Thm 5.7",
	pairKey(axis.ChildPlus, axis.NextSiblingPlus): "Thm 5.7",
	pairKey(axis.ChildPlus, axis.NextSiblingStar): "Thm 5.7",
	pairKey(axis.Following, axis.NextSibling):     "Thm 5.8",
	pairKey(axis.Following, axis.NextSiblingPlus): "Thm 5.8",
	pairKey(axis.Following, axis.NextSiblingStar): "Thm 5.8",
}

// npTheorem returns the citation for an intractable signature: the
// hardness theorem of some intractable pair contained in it.
func npTheorem(axes []axis.Axis) string {
	for i := 0; i < len(axes); i++ {
		for j := i; j < len(axes); j++ {
			if th, ok := npPairTheorems[pairKey(axes[i], axes[j])]; ok {
				return th
			}
		}
	}
	// Signatures beyond the paper axes (inverses, order extensions): the
	// X-property route does not apply, but Theorem 1.1's hardness half is
	// only proved for F ⊆ Ax — flag the verdict as a conjecture.
	return "no common X order; hardness not claimed beyond Ax"
}

// TableICell reproduces one cell of Table I: the classification of the
// one- or two-axis signature {rowAxis, colAxis}.
func TableICell(row, col axis.Axis) Classification {
	if row == col {
		return Classify([]axis.Axis{row})
	}
	return Classify([]axis.Axis{row, col})
}

// TableI regenerates the full upper-triangular Table I in the paper's
// axis order. The result is indexed [row][col] with col >= row; entries
// below the diagonal are zero-valued.
func TableI() [][]Classification {
	axes := axis.TableIAxes
	out := make([][]Classification, len(axes))
	for i := range axes {
		out[i] = make([]Classification, len(axes))
		for j := i; j < len(axes); j++ {
			out[i][j] = TableICell(axes[i], axes[j])
		}
	}
	return out
}

// FormatTableI renders Table I as aligned text with complexity and
// theorem citation per cell, matching the shape of the paper's table.
func FormatTableI() string {
	axes := axis.TableIAxes
	table := TableI()
	colW := 14
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%-14s", ""))
	for _, a := range axes {
		sb.WriteString(fmt.Sprintf("%-*s", colW, a))
	}
	sb.WriteByte('\n')
	for i, row := range axes {
		sb.WriteString(fmt.Sprintf("%-14s", row))
		for j := range axes {
			if j < i {
				sb.WriteString(fmt.Sprintf("%-*s", colW, ""))
				continue
			}
			cell := table[i][j]
			sb.WriteString(fmt.Sprintf("%-*s", colW, fmt.Sprintf("%s (%s)", cell.Complexity, shortRef(cell.Theorem))))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func shortRef(theorem string) string {
	fields := strings.Fields(theorem)
	return fields[len(fields)-1]
}
