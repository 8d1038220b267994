// Package pyparse parses the MicroPython subset supported by Shelley
// (§2 of the paper) into the pyast representation: decorated classes and
// methods, if/elif/else, match/case, for, while, return, assignments and
// call expressions. The parser is a hand-written recursive-descent parser
// over the pytoken stream, with Python-style INDENT/DEDENT block
// structure.
package pyparse

import (
	"fmt"
	"slices"

	"github.com/shelley-go/shelley/internal/pyast"
	"github.com/shelley-go/shelley/internal/pytoken"
)

// Error is a syntax error with its source position.
type Error struct {
	Pos pytoken.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg) }

// ParseModule parses a whole source file.
func ParseModule(src string) (*pyast.Module, error) { return ParseModuleAt(src, 1) }

// ParseModuleAt parses a fragment of a larger file that begins at
// column 1 of the given line, reporting every position in the file's
// coordinates (pytoken.NewLexer): ParseModule(src) ==
// ParseModuleAt(src, 1).
func ParseModuleAt(src string, line int) (*pyast.Module, error) {
	p := &parser{lex: pytoken.NewLexer(src, line)}
	p.advance()
	mod, err := p.parseModule()
	// A lexical error anywhere wins over a parse error: drain the lexer
	// past the token the parse stopped at.
	for err != nil && p.lexErr == nil && p.tok.Kind != pytoken.EOF {
		p.advance()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return mod, err
}

// ParseClass parses a source file and returns the class named name. It
// is a convenience for tests and tools that target one class.
func ParseClass(src, name string) (*pyast.ClassDef, error) {
	mod, err := ParseModule(src)
	if err != nil {
		return nil, err
	}
	for _, c := range mod.Classes {
		if c.Name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("pyparse: class %q not found", name)
}

// parser pulls tokens from the lexer with one token of lookahead. A
// lexical error ends the stream: the parser sees EOF from then on, and
// ParseModuleAt reports the lexical error instead of the parse outcome.
type parser struct {
	lex    *pytoken.Lexer
	tok    pytoken.Token
	lexErr error

	// Stacks the lists being parsed grow on, innermost last; each list
	// is copied out at its exact length (pop).
	stmts      []pyast.Stmt
	decorators []*pyast.Decorator
	params     []string
}

// pop returns a copy of (*stack)[from:], nil when it is empty, and
// truncates the stack back to from.
func pop[T any](stack *[]T, from int) []T {
	var out []T
	if len(*stack) > from {
		out = slices.Clone((*stack)[from:])
	}
	clear((*stack)[from:])
	*stack = (*stack)[:from]
	return out
}

func (p *parser) advance() {
	if p.tok, p.lexErr = p.lex.Next(); p.lexErr != nil {
		p.tok = pytoken.Token{Kind: pytoken.EOF}
	}
}

func (p *parser) peek() pytoken.Token { return p.tok }

func (p *parser) at(k pytoken.Kind) bool { return p.tok.Kind == k }

func (p *parser) next() pytoken.Token {
	t := p.tok
	if t.Kind != pytoken.EOF {
		p.advance()
	}
	return t
}

func (p *parser) accept(k pytoken.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k pytoken.Kind) (pytoken.Token, error) {
	if !p.at(k) {
		return pytoken.Token{}, p.errorf("expected %s, found %s", k, p.peek())
	}
	return p.next(), nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) parseModule() (*pyast.Module, error) {
	mod := &pyast.Module{}
	for !p.at(pytoken.EOF) {
		if p.accept(pytoken.Newline) {
			continue
		}
		// Decorators may precede either a class or a def; defs at module
		// level are kept as plain statements (ignored by the analysis).
		decorators, err := p.parseDecorators()
		if err != nil {
			return nil, err
		}
		switch {
		case p.at(pytoken.KwClass):
			cls, err := p.parseClassDef(decorators)
			if err != nil {
				return nil, err
			}
			mod.Classes = append(mod.Classes, cls)
		case p.at(pytoken.KwDef):
			if _, err := p.parseFuncDef(decorators); err != nil {
				return nil, err
			}
			// Module-level functions are outside Shelley's model; parse
			// and drop.
		default:
			if len(decorators) > 0 {
				return nil, p.errorf("decorators must precede 'class' or 'def', found %s", p.peek())
			}
			stmt, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			mod.Stmts = append(mod.Stmts, stmt)
		}
	}
	return mod, nil
}

func (p *parser) parseDecorators() ([]*pyast.Decorator, error) {
	from := len(p.decorators)
	for p.at(pytoken.At) {
		p.next()
		nameTok, err := p.expect(pytoken.Name)
		if err != nil {
			return nil, err
		}
		name := nameTok.Text
		for p.accept(pytoken.Dot) {
			part, err := p.expect(pytoken.Name)
			if err != nil {
				return nil, err
			}
			name += "." + part.Text
		}
		d := &pyast.Decorator{Name: name, NamePos: nameTok.Pos}
		if p.accept(pytoken.LParen) {
			d.Called = true
			args, err := p.parseExprListUntil(pytoken.RParen)
			if err != nil {
				return nil, err
			}
			d.Args = args
			if _, err := p.expect(pytoken.RParen); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(pytoken.Newline); err != nil {
			return nil, err
		}
		p.decorators = append(p.decorators, d)
	}
	return pop(&p.decorators, from), nil
}

func (p *parser) parseClassDef(decorators []*pyast.Decorator) (*pyast.ClassDef, error) {
	if _, err := p.expect(pytoken.KwClass); err != nil {
		return nil, err
	}
	nameTok, err := p.expect(pytoken.Name)
	if err != nil {
		return nil, err
	}
	cls := &pyast.ClassDef{Name: nameTok.Text, Decorators: decorators, NamePos: nameTok.Pos}
	if p.accept(pytoken.LParen) {
		bases, err := p.parseExprListUntil(pytoken.RParen)
		if err != nil {
			return nil, err
		}
		cls.Bases = bases
		if _, err := p.expect(pytoken.RParen); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(pytoken.Colon); err != nil {
		return nil, err
	}
	if _, err := p.expect(pytoken.Newline); err != nil {
		return nil, err
	}
	if _, err := p.expect(pytoken.Indent); err != nil {
		return nil, err
	}
	for !p.at(pytoken.Dedent) && !p.at(pytoken.EOF) {
		if p.accept(pytoken.Newline) {
			continue
		}
		memberDecorators, err := p.parseDecorators()
		if err != nil {
			return nil, err
		}
		if p.at(pytoken.KwDef) {
			m, err := p.parseFuncDef(memberDecorators)
			if err != nil {
				return nil, err
			}
			cls.Methods = append(cls.Methods, m)
			continue
		}
		if len(memberDecorators) > 0 {
			return nil, p.errorf("decorators inside a class must precede 'def', found %s", p.peek())
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		cls.Body = append(cls.Body, stmt)
	}
	if _, err := p.expect(pytoken.Dedent); err != nil {
		return nil, err
	}
	return cls, nil
}

func (p *parser) parseFuncDef(decorators []*pyast.Decorator) (*pyast.FuncDef, error) {
	if _, err := p.expect(pytoken.KwDef); err != nil {
		return nil, err
	}
	nameTok, err := p.expect(pytoken.Name)
	if err != nil {
		return nil, err
	}
	fn := &pyast.FuncDef{Name: nameTok.Text, Decorators: decorators, NamePos: nameTok.Pos}
	if _, err := p.expect(pytoken.LParen); err != nil {
		return nil, err
	}
	from := len(p.params)
	for !p.at(pytoken.RParen) {
		param, err := p.expect(pytoken.Name)
		if err != nil {
			return nil, err
		}
		p.params = append(p.params, param.Text)
		// Default values and annotations: parse and discard.
		if p.accept(pytoken.Colon) {
			if _, err := p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if p.accept(pytoken.Assign) {
			if _, err := p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if !p.accept(pytoken.Comma) {
			break
		}
	}
	fn.Params = pop(&p.params, from)
	if _, err := p.expect(pytoken.RParen); err != nil {
		return nil, err
	}
	if p.accept(pytoken.Arrow) {
		if _, err := p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(pytoken.Colon); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

// parseBlock parses either an indented suite or an inline simple
// statement ("if x: return").
func (p *parser) parseBlock() ([]pyast.Stmt, error) {
	if p.accept(pytoken.Newline) {
		if _, err := p.expect(pytoken.Indent); err != nil {
			return nil, err
		}
		from := len(p.stmts)
		for !p.at(pytoken.Dedent) && !p.at(pytoken.EOF) {
			if p.accept(pytoken.Newline) {
				continue
			}
			s, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			p.stmts = append(p.stmts, s)
		}
		if _, err := p.expect(pytoken.Dedent); err != nil {
			return nil, err
		}
		if len(p.stmts) == from {
			return nil, p.errorf("empty block")
		}
		return pop(&p.stmts, from), nil
	}
	// Inline suite.
	s, err := p.parseSimpleStatement()
	if err != nil {
		return nil, err
	}
	if !p.accept(pytoken.Newline) && !p.at(pytoken.EOF) {
		return nil, p.errorf("expected newline after inline statement, found %s", p.peek())
	}
	return []pyast.Stmt{s}, nil
}

func (p *parser) parseStatement() (pyast.Stmt, error) {
	switch p.peek().Kind {
	case pytoken.KwIf:
		return p.parseIf()
	case pytoken.KwMatch:
		return p.parseMatch()
	case pytoken.KwWhile:
		return p.parseWhile()
	case pytoken.KwFor:
		return p.parseFor()
	default:
		s, err := p.parseSimpleStatement()
		if err != nil {
			return nil, err
		}
		if !p.accept(pytoken.Newline) && !p.at(pytoken.EOF) {
			return nil, p.errorf("expected newline, found %s", p.peek())
		}
		return s, nil
	}
}

func (p *parser) parseSimpleStatement() (pyast.Stmt, error) {
	tok := p.peek()
	switch tok.Kind {
	case pytoken.KwReturn:
		p.next()
		ret := &pyast.Return{ReturnPos: tok.Pos}
		if !p.at(pytoken.Newline) && !p.at(pytoken.EOF) && !p.at(pytoken.Dedent) {
			values, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			ret.Values = values
		}
		return ret, nil
	case pytoken.KwPass:
		p.next()
		return &pyast.Pass{PassPos: tok.Pos}, nil
	case pytoken.KwBreak:
		p.next()
		return &pyast.Break{BreakPos: tok.Pos}, nil
	case pytoken.KwContinue:
		p.next()
		return &pyast.Continue{ContinuePos: tok.Pos}, nil
	case pytoken.KwImport, pytoken.KwFrom:
		return p.parseImport()
	default:
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(pytoken.Assign) {
			value, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &pyast.Assign{Target: x, Value: value}, nil
		}
		return &pyast.ExprStmt{X: x}, nil
	}
}

func (p *parser) parseImport() (pyast.Stmt, error) {
	pos := p.peek().Pos
	text := ""
	for !p.at(pytoken.Newline) && !p.at(pytoken.EOF) {
		t := p.next()
		if text != "" {
			text += " "
		}
		if t.Text != "" {
			text += t.Text
		} else {
			text += t.Kind.String()
		}
	}
	return &pyast.Import{Text: text, ImportPos: pos}, nil
}

func (p *parser) parseIf() (pyast.Stmt, error) {
	tok, err := p.expect(pytoken.KwIf)
	if err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(pytoken.Colon); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	out := &pyast.If{Cond: cond, Body: body, IfPos: tok.Pos}
	for p.at(pytoken.KwElif) {
		p.next()
		econd, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(pytoken.Colon); err != nil {
			return nil, err
		}
		ebody, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		out.Elifs = append(out.Elifs, pyast.ElifClause{Cond: econd, Body: ebody})
	}
	if p.accept(pytoken.KwElse) {
		if _, err := p.expect(pytoken.Colon); err != nil {
			return nil, err
		}
		ebody, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		out.Else = ebody
	}
	return out, nil
}

func (p *parser) parseMatch() (pyast.Stmt, error) {
	tok, err := p.expect(pytoken.KwMatch)
	if err != nil {
		return nil, err
	}
	subject, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(pytoken.Colon); err != nil {
		return nil, err
	}
	if _, err := p.expect(pytoken.Newline); err != nil {
		return nil, err
	}
	if _, err := p.expect(pytoken.Indent); err != nil {
		return nil, err
	}
	out := &pyast.Match{Subject: subject, MatchPos: tok.Pos}
	for !p.at(pytoken.Dedent) && !p.at(pytoken.EOF) {
		if p.accept(pytoken.Newline) {
			continue
		}
		if _, err := p.expect(pytoken.KwCase); err != nil {
			return nil, err
		}
		pattern, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(pytoken.Colon); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		out.Cases = append(out.Cases, pyast.CaseClause{Pattern: pattern, Body: body})
	}
	if _, err := p.expect(pytoken.Dedent); err != nil {
		return nil, err
	}
	if len(out.Cases) == 0 {
		return nil, p.errorf("match statement has no case clauses")
	}
	return out, nil
}

// parsePattern parses a case pattern. The `_` name becomes the wildcard.
func (p *parser) parsePattern() (pyast.Expr, error) {
	if p.at(pytoken.Name) && p.peek().Text == "_" {
		tok := p.next()
		return &pyast.WildcardExpr{WPos: tok.Pos}, nil
	}
	return p.parseExpr()
}

func (p *parser) parseWhile() (pyast.Stmt, error) {
	tok, err := p.expect(pytoken.KwWhile)
	if err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(pytoken.Colon); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &pyast.While{Cond: cond, Body: body, WhilePos: tok.Pos}, nil
}

func (p *parser) parseFor() (pyast.Stmt, error) {
	tok, err := p.expect(pytoken.KwFor)
	if err != nil {
		return nil, err
	}
	target, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(pytoken.KwIn); err != nil {
		return nil, err
	}
	iter, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(pytoken.Colon); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &pyast.For{Target: target, Iter: iter, Body: body, ForPos: tok.Pos}, nil
}

// parseExprList parses e1, e2, ..., en and wraps n > 1 into a TupleExpr.
func (p *parser) parseExprList() ([]pyast.Expr, error) {
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	out := []pyast.Expr{first}
	for p.accept(pytoken.Comma) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// parseExprListUntil parses a possibly-empty comma list terminated by the
// given closing token (not consumed).
func (p *parser) parseExprListUntil(close pytoken.Kind) ([]pyast.Expr, error) {
	var out []pyast.Expr
	for !p.at(close) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.accept(pytoken.Comma) {
			break
		}
	}
	return out, nil
}
