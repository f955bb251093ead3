// Command dominance demonstrates the dominance-constraint application of
// §1: scope underspecification in computational linguistics. A classic
// "scope diamond" is stated as dominance constraints, compiled to a
// Boolean conjunctive query, solved into acyclic solved forms (the §6
// translation), and checked against candidate parse trees.
package main

import (
	"fmt"
	"log"

	cqtrees "repro"
	"repro/internal/dominance"
)

func main() {
	// "Every student reads some book": two quantifiers Q1, Q2 whose
	// scopes both dominate the same predicate P, below a sentence root.
	p := (&dominance.Problem{}).Add(
		dominance.Lab("root", "S"),
		dominance.Dom("root", "q1"), dominance.Lab("q1", "Q1"),
		dominance.Dom("root", "q2"), dominance.Lab("q2", "Q2"),
		dominance.Dom("q1", "p"), dominance.Dom("q2", "p"), dominance.Lab("p", "P"),
	)
	fmt.Println("dominance constraints:")
	for _, c := range p.Constraints {
		fmt.Println("  ", c)
	}
	q := p.ToCQ()
	fmt.Println("\nas a conjunctive query:", q)
	fmt.Println("plan:", cqtrees.PlanFor(q))

	sat, err := p.Satisfiable()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("satisfiable:", sat)

	forms, err := p.SolvedForms()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsolved forms (acyclic disjuncts): %d\n", len(forms.Disjuncts))

	readings := []struct{ name, src string }{
		{"surface scope (Q1 over Q2)", "S(Q1(Q2(P)))"},
		{"inverse scope (Q2 over Q1)", "S(Q2(Q1(P)))"},
		{"broken (disjoint scopes)", "S(Q1(P),Q2(X))"},
	}
	fmt.Println("\ncandidate readings:")
	for _, r := range readings {
		t := cqtrees.MustParseTree(r.src)
		fmt.Printf("  %-28s realized: %v\n", r.name, p.SatisfiedBy(t))
	}

	// An over-constrained variant is detected as unsatisfiable.
	bad := (&dominance.Problem{}).Add(
		dominance.Prec("a", "b"),
		dominance.Dom("b", "a"),
	)
	sat, err = bad.Satisfiable()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nover-constrained set {a ≺ b, b ◁* a} satisfiable: %v\n", sat)
}
