// Package hornsat implements propositional Horn-SAT with a linear-time
// unit-resolution solver in the style of Minoux's LTUR algorithm
// [Minoux 1988], the engine behind the arc-consistency computation of
// Proposition 3.1 in "Conjunctive Queries over Trees". That computation
// is the test oracle of package consistency's FastAC; no binary links
// this package.
//
// A Horn program is a set of definite clauses head ← body (body a possibly
// empty conjunction of propositional atoms). Solve computes the unique
// minimal model: the set of atoms derivable by unit resolution. Time is
// linear in the total size of the program.
package hornsat

import "fmt"

// AtomID identifies a propositional atom (dense index).
type AtomID int32

// Program is a set of definite Horn clauses over dense atom IDs.
// Add atoms with NewAtom and clauses with AddClause, then call Solve.
type Program struct {
	numAtoms int
	// clause storage
	heads     []AtomID  // head of clause i
	bodyLen   []int32   // remaining unsatisfied body atoms of clause i
	bodyOf    [][]int32 // atom -> clauses in whose body it appears
	facts     []AtomID  // clauses with empty bodies (as their heads)
	numBodies int       // total body literal count (for SizeHint)
}

// NewProgram returns an empty program with capacity hints.
func NewProgram(atomHint, clauseHint int) *Program {
	return &Program{
		heads:   make([]AtomID, 0, clauseHint),
		bodyLen: make([]int32, 0, clauseHint),
	}
}

// NewAtom allocates a fresh atom.
func (p *Program) NewAtom() AtomID {
	id := AtomID(p.numAtoms)
	p.numAtoms++
	return id
}

// NewAtoms allocates n fresh consecutive atoms and returns the first.
func (p *Program) NewAtoms(n int) AtomID {
	id := AtomID(p.numAtoms)
	p.numAtoms += n
	return id
}

// NumAtoms returns the number of allocated atoms.
func (p *Program) NumAtoms() int { return p.numAtoms }

// NumClauses returns the number of clauses added.
func (p *Program) NumClauses() int { return len(p.heads) }

// Size returns the total program size (clauses plus body literals), the
// measure in which Solve is linear.
func (p *Program) Size() int { return len(p.heads) + p.numBodies }

// AddClause adds head ← body. An empty body makes head a fact.
func (p *Program) AddClause(head AtomID, body ...AtomID) {
	p.checkAtom(head)
	ci := int32(len(p.heads))
	p.heads = append(p.heads, head)
	p.bodyLen = append(p.bodyLen, int32(len(body)))
	if len(body) == 0 {
		p.facts = append(p.facts, head)
		return
	}
	if p.bodyOf == nil {
		p.bodyOf = make([][]int32, p.numAtoms)
	} else if len(p.bodyOf) < p.numAtoms {
		grown := make([][]int32, p.numAtoms)
		copy(grown, p.bodyOf)
		p.bodyOf = grown
	}
	for _, b := range body {
		p.checkAtom(b)
		p.bodyOf[b] = append(p.bodyOf[b], ci)
	}
	p.numBodies += len(body)
}

func (p *Program) checkAtom(a AtomID) {
	if a < 0 || int(a) >= p.numAtoms {
		panic(fmt.Sprintf("hornsat: atom %d out of range (have %d)", a, p.numAtoms))
	}
}

// Solve computes the minimal model by unit propagation and returns it as a
// membership slice indexed by AtomID. The program may be solved only once
// (Solve mutates clause counters); call Reset between solves if reusing.
func (p *Program) Solve() []bool {
	truth := make([]bool, p.numAtoms)
	queue := make([]AtomID, 0, len(p.facts))
	for _, a := range p.facts {
		if !truth[a] {
			truth[a] = true
			queue = append(queue, a)
		}
	}
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if int(a) >= len(p.bodyOf) {
			continue
		}
		for _, ci := range p.bodyOf[a] {
			p.bodyLen[ci]--
			if p.bodyLen[ci] == 0 {
				h := p.heads[ci]
				if !truth[h] {
					truth[h] = true
					queue = append(queue, h)
				}
			}
		}
	}
	return truth
}

// Duplicate atoms in a body are handled correctly: bodyLen counts
// occurrences and each firing decrements once per occurrence.
