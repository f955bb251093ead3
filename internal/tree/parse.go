package tree

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
)

// ErrSyntax is wrapped by every error ParseTerm returns; match it with
// errors.Is.
var ErrSyntax = errors.New("tree: syntax error")

// ParseTerm parses the compact term syntax for trees:
//
//	tree   := node
//	node   := labels [ '(' node (',' node)* ')' ]
//	labels := '_' | label ('|' label)*
//	label  := [A-Za-z0-9_'*+-]+  (not starting with '_' alone)
//
// Examples:
//
//	A(B,C(D))          root A with children B and C; C has child D
//	X|Y(Z)             a root carrying both labels X and Y
//	_(A,_)             an unlabeled root with children A and an unlabeled leaf
//
// Whitespace between tokens is ignored. ParseTerm is the inverse of
// (*Tree).String. Malformed input yields an error wrapping ErrSyntax.
func ParseTerm(s string) (*Tree, error) {
	p := &termParser{src: s}
	p.skipSpace()
	if p.eof() {
		return nil, fmt.Errorf("%w: empty input", ErrSyntax)
	}
	// Every node but the root follows a '(' or a ',', and every label but
	// a node's first follows a '|': exact capacities for valid input.
	nodes := 1 + strings.Count(s, "(") + strings.Count(s, ",")
	b := newBuilder(nodes, nodes+strings.Count(s, "|"))
	if err := p.parseNode(b, NilNode); err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, fmt.Errorf("%w: trailing input at offset %d: %q", ErrSyntax, p.pos, p.rest())
	}
	return b.Build(), nil
}

// MustParseTerm is ParseTerm that panics on error; for tests and examples.
func MustParseTerm(s string) *Tree {
	t, err := ParseTerm(s)
	if err != nil {
		panic(err)
	}
	return t
}

type termParser struct {
	src string
	pos int
}

func (p *termParser) eof() bool     { return p.pos >= len(p.src) }
func (p *termParser) rest() string  { return p.src[p.pos:] }
func (p *termParser) peek() byte    { return p.src[p.pos] }
func (p *termParser) advance() byte { c := p.src[p.pos]; p.pos++; return c }

func (p *termParser) skipSpace() {
	for !p.eof() && unicode.IsSpace(rune(p.peek())) {
		p.pos++
	}
}

func isLabelByte(c byte) bool {
	return c == '_' || c == '\'' || c == '*' || c == '+' || c == '-' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// parseLabels reads the label set of node id straight into b: each label
// is a substring of the source, so no per-node slice is built.
func (p *termParser) parseLabels(b *Builder, id NodeID) error {
	for {
		start := p.pos
		for !p.eof() && isLabelByte(p.peek()) {
			p.pos++
		}
		if p.pos == start {
			return fmt.Errorf("%w: expected label at offset %d: %q", ErrSyntax, p.pos, p.rest())
		}
		if lab := p.src[start:p.pos]; lab != "_" {
			b.addLabel(id, lab)
		}
		p.skipSpace()
		if !p.eof() && p.peek() == '|' {
			p.advance()
			p.skipSpace()
			continue
		}
		return nil
	}
}

func (p *termParser) parseNode(b *Builder, parent NodeID) error {
	p.skipSpace()
	id := b.AddNode(parent)
	if err := p.parseLabels(b, id); err != nil {
		return err
	}
	p.skipSpace()
	if p.eof() || p.peek() != '(' {
		return nil
	}
	p.advance() // '('
	for {
		if err := p.parseNode(b, id); err != nil {
			return err
		}
		p.skipSpace()
		if p.eof() {
			return fmt.Errorf("%w: unexpected end of input, expected ',' or ')'", ErrSyntax)
		}
		switch p.advance() {
		case ',':
			continue
		case ')':
			return nil
		default:
			return fmt.Errorf("%w: expected ',' or ')' at offset %d: %q", ErrSyntax, p.pos-1, p.src[p.pos-1:])
		}
	}
}

// RoundTrip reports whether parsing t.String() yields a tree equal to t.
// Used by property-based tests.
func RoundTrip(t *Tree) bool {
	if t.Len() == 0 {
		return true
	}
	u, err := ParseTerm(t.String())
	if err != nil {
		return false
	}
	return t.Equal(u)
}
