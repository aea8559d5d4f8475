package array

import (
	"fmt"
	"strings"
	"unicode"
)

// This file implements a small subset of SciDB's Array Functional Language
// (AFL), sufficient to express the paper's tile-build pipeline, including
// Query 1 verbatim:
//
//	store(
//	  apply(
//	    join(SVIS, SSWIR),
//	    ndsi,
//	    ndsi_func(SVIS.reflectance, SSWIR.reflectance)
//	  ),
//	  NDSI
//	)
//
// Supported operators are the ones that pipeline issues; any other name is
// an unknown-operator error (regridding, slicing and projection are the Go
// methods Regrid, Subarray and Project, which the pyramid builder calls):
//
//	NAME                               read a stored array
//	join(expr, expr)                   equi-join on dimensions
//	apply(expr, attr, udf(args...))    cell-wise UDF producing a new attribute
//	store(expr, NAME)                  bind the result in the database
//
// UDF argument references may be qualified ("SVIS.reflectance") or bare
// ("reflectance"); qualification follows SciDB in resolving collisions after
// a join, where the right-hand array's attributes are stored prefixed.

// Query parses and executes an AFL expression against the database,
// returning the resulting array (which, for store(...), is also bound).
func (db *Database) Query(afl string) (*Array, error) {
	p := &aflParser{src: afl}
	expr, err := p.parseExpr()
	if err != nil {
		return nil, fmt.Errorf("array: parse %q: %w", afl, err)
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("array: trailing input at byte %d of %q", p.pos, afl)
	}
	return db.eval(expr)
}

// aflNode is a parsed AFL expression tree node.
type aflNode struct {
	op   string // "scan", "join", "apply", "store"
	name string // array name (scan/store), attribute name (apply)
	udf  string // UDF name for apply
	args []string
	kids []*aflNode
}

// maxAFLDepth caps expression nesting. The recursive-descent parser (and
// the recursive evaluator behind it) consume one stack frame per nesting
// level, so an adversarial query like strings.Repeat("join(", 1e5)+"A"
// would otherwise blow the goroutine stack; real pipelines (Query 1 is
// depth 4) never come close.
const maxAFLDepth = 128

type aflParser struct {
	src   string
	pos   int
	depth int
}

func (p *aflParser) skipSpace() {
	for p.pos < len(p.src) {
		r := p.src[p.pos]
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' {
			p.pos++
			continue
		}
		break
	}
}

func (p *aflParser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *aflParser) expect(c byte) error {
	p.skipSpace()
	if p.peek() != c {
		return fmt.Errorf("expected %q at byte %d", string(c), p.pos)
	}
	p.pos++
	return nil
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.'
}

func (p *aflParser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isIdentRune(rune(p.src[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("expected identifier at byte %d", p.pos)
	}
	return p.src[start:p.pos], nil
}

// parseExpr parses either an operator call or a bare array name (a scan).
func (p *aflParser) parseExpr() (*aflNode, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxAFLDepth {
		return nil, fmt.Errorf("expression nested deeper than %d levels at byte %d", maxAFLDepth, p.pos)
	}
	id, err := p.ident()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.peek() != '(' {
		return &aflNode{op: "scan", name: id}, nil // bare name
	}
	switch strings.ToLower(id) {
	case "join":
		p.pos++
		left, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		right, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &aflNode{op: "join", kids: []*aflNode{left, right}}, nil
	case "apply":
		p.pos++
		in, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		attr, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		udf, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var args []string
		for {
			arg, err := p.ident()
			if err != nil {
				return nil, err
			}
			args = append(args, arg)
			p.skipSpace()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &aflNode{op: "apply", name: attr, udf: udf, args: args, kids: []*aflNode{in}}, nil
	case "store":
		p.pos++
		in, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &aflNode{op: "store", name: name, kids: []*aflNode{in}}, nil
	default:
		return nil, fmt.Errorf("unknown operator %q", id)
	}
}

func (db *Database) eval(n *aflNode) (*Array, error) {
	switch n.op {
	case "scan":
		return db.Get(n.name)
	case "join":
		left, err := db.eval(n.kids[0])
		if err != nil {
			return nil, err
		}
		right, err := db.eval(n.kids[1])
		if err != nil {
			return nil, err
		}
		return Join(left, right)
	case "apply":
		in, err := db.eval(n.kids[0])
		if err != nil {
			return nil, err
		}
		fn, err := db.UDF(n.udf)
		if err != nil {
			return nil, err
		}
		attrs := make([]string, len(n.args))
		for i, ref := range n.args {
			attrs[i] = resolveAttrRef(in, ref)
		}
		return in.Apply(n.name, fn, attrs...)
	case "store":
		in, err := db.eval(n.kids[0])
		if err != nil {
			return nil, err
		}
		db.Store(n.name, in)
		return db.Get(n.name)
	}
	return nil, fmt.Errorf("array: unknown node %q", n.op)
}

// resolveAttrRef maps an AFL attribute reference to the attribute name that
// actually exists in the array: "A.x" resolves to "x" if unambiguous, or to
// "A_x" when a join stored the right-hand array's attribute prefixed.
func resolveAttrRef(a *Array, ref string) string {
	if a.Schema().AttrIndex(ref) >= 0 {
		return ref
	}
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		owner, attr := ref[:i], ref[i+1:]
		prefixed := owner + "_" + attr
		if a.Schema().AttrIndex(prefixed) >= 0 {
			return prefixed
		}
		if a.Schema().AttrIndex(attr) >= 0 {
			return attr
		}
	}
	return ref // let the operator report ErrNoAttr with the original spelling
}
