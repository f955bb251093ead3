// Package dominance implements the computational-linguistics application
// of §1: conjunctions of dominance constraints [Marcus et al. 1983],
// which "turn out to be equivalent to (Boolean) conjunctive queries over
// trees". A constraint set speaks about named segments of an
// underspecified parse tree; deciding whether some tree realizes all
// constraints is Boolean CQ evaluation, and rewriting a constraint set
// into solved forms (acyclic queries, cf. Bodirsky et al. 2004)
// corresponds to the CQ → APQ translation of §6.
package dominance

import (
	"fmt"

	"repro/internal/axis"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/rewrite"
	"repro/internal/tree"
)

// Kind is the constraint sort.
type Kind int

// Constraint kinds: X ◁* Y (dominance), X ◁ Y (immediate dominance),
// X ≺ Y (precedence, i.e. Following), and Label(X) = a.
const (
	Dominates            Kind = iota // reflexive-transitive: Child*
	ImmediatelyDominates             // Child
	Precedes                         // Following
	HasLabel
)

// Constraint is one dominance-logic literal over segment variables.
type Constraint struct {
	Kind  Kind
	X, Y  string // variable names; Y unused for HasLabel
	Label string // only for HasLabel
}

// String renders the constraint in dominance-logic notation.
func (c Constraint) String() string {
	switch c.Kind {
	case Dominates:
		return fmt.Sprintf("%s ◁* %s", c.X, c.Y)
	case ImmediatelyDominates:
		return fmt.Sprintf("%s ◁ %s", c.X, c.Y)
	case Precedes:
		return fmt.Sprintf("%s ≺ %s", c.X, c.Y)
	case HasLabel:
		return fmt.Sprintf("Label(%s)=%s", c.X, c.Label)
	default:
		return "invalid"
	}
}

// Problem is a conjunction of dominance constraints.
type Problem struct {
	Constraints []Constraint
}

// Add appends constraints fluently.
func (p *Problem) Add(cs ...Constraint) *Problem {
	p.Constraints = append(p.Constraints, cs...)
	return p
}

// Dom, Imm, Prec and Lab are constraint constructors.
func Dom(x, y string) Constraint  { return Constraint{Kind: Dominates, X: x, Y: y} }
func Imm(x, y string) Constraint  { return Constraint{Kind: ImmediatelyDominates, X: x, Y: y} }
func Prec(x, y string) Constraint { return Constraint{Kind: Precedes, X: x, Y: y} }
func Lab(x, a string) Constraint  { return Constraint{Kind: HasLabel, X: x, Label: a} }

// ToCQ translates the problem into the equivalent Boolean conjunctive
// query over (Child, Child*, Following).
func (p *Problem) ToCQ() *cq.Query {
	q := cq.New()
	for _, c := range p.Constraints {
		x := q.AddVar(c.X)
		switch c.Kind {
		case Dominates:
			q.AddAtom(axis.ChildStar, x, q.AddVar(c.Y))
		case ImmediatelyDominates:
			q.AddAtom(axis.Child, x, q.AddVar(c.Y))
		case Precedes:
			q.AddAtom(axis.Following, x, q.AddVar(c.Y))
		case HasLabel:
			q.AddLabel(c.Label, x)
		default:
			panic(fmt.Sprintf("dominance: invalid constraint kind %d", c.Kind))
		}
	}
	return q
}

// SatisfiedBy reports whether the parse tree t realizes all constraints.
func (p *Problem) SatisfiedBy(t *tree.Tree) bool {
	sat, _ := core.MustPrepare(p.ToCQ()).BoolDoc(core.NewDocument(t), core.EnumOptions{})
	return sat
}

// SolvedForms computes a set of acyclic conjunctive queries (solved
// forms) whose union is equivalent to the constraint problem — the §6
// translation applied to the dominance query. An empty result means the
// constraints are unsatisfiable on every tree.
func (p *Problem) SolvedForms() (*rewrite.APQ, error) {
	return rewrite.TranslateCQ(p.ToCQ(), rewrite.Options{})
}

// Satisfiable reports whether some tree realizes the constraints, by
// checking that a satisfiable solved form exists. Solved forms are
// acyclic queries; an acyclic query over the (negation-free) axes is
// satisfiable iff evaluating it on its own "canonical" tree succeeds —
// we check satisfiability on a generic tree grown from the solved form's
// size (a complete binary tree with all labels on every node would be
// ideal; multi-labels make this legal).
func (p *Problem) Satisfiable() (bool, error) {
	apq, err := p.SolvedForms()
	if err != nil {
		return false, err
	}
	if len(apq.Disjuncts) == 0 {
		return false, nil
	}
	// Build a universal tree: a path of depth d where every node carries
	// every label used, plus sibling fans — Following constraints need
	// siblings. Size grows with the query, so every satisfiable acyclic
	// disjunct embeds.
	labels := map[string]bool{}
	maxSize := 0
	for _, d := range apq.Disjuncts {
		if d.Size() > maxSize {
			maxSize = d.Size()
		}
		for _, la := range d.Labels {
			labels[la.Label] = true
		}
	}
	var all []string
	for l := range labels {
		all = append(all, l)
	}
	depth := maxSize + 2
	width := maxSize + 2
	b := tree.NewBuilder(depth * width)
	spine := b.AddNode(tree.NilNode, all...)
	for i := 0; i < depth; i++ {
		next := tree.NilNode
		for j := 0; j < width; j++ {
			id := b.AddNode(spine, all...)
			if j == 0 {
				next = id
			}
		}
		spine = next
	}
	universal := b.Build()
	return apq.EvalBoolean(universal), nil
}
