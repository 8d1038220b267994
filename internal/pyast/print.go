package pyast

import (
	"fmt"
	"strconv"
	"strings"
)

// Unparse renders the module back to MicroPython source. The output is
// normalized (4-space indentation, one blank line between classes and
// methods) and re-parses to a structurally identical AST, which the
// round-trip tests rely on. Tooling uses it to display normalized
// sources and minimized repro cases.
func Unparse(m *Module) string {
	var b strings.Builder
	for i, s := range m.Stmts {
		if i > 0 {
			// no blank lines between top-level simple statements
			_ = i
		}
		writeStmt(&b, s, 0)
	}
	for i, c := range m.Classes {
		if i > 0 || len(m.Stmts) > 0 {
			b.WriteString("\n")
		}
		writeClass(&b, c)
	}
	return b.String()
}

func writeClass(b *strings.Builder, c *ClassDef) {
	for _, d := range c.Decorators {
		writeDecorator(b, d)
	}
	b.WriteString("class ")
	b.WriteString(c.Name)
	if len(c.Bases) > 0 {
		b.WriteString("(")
		writeExprList(b, c.Bases)
		b.WriteString(")")
	}
	b.WriteString(":\n")
	wrote := false
	for _, s := range c.Body {
		writeStmt(b, s, 1)
		wrote = true
	}
	for i, m := range c.Methods {
		if i > 0 || wrote {
			b.WriteString("\n")
		}
		writeFunc(b, m, 1)
		wrote = true
	}
	if !wrote {
		writeIndent(b, 1)
		b.WriteString("pass\n")
	}
}

func writeDecorator(b *strings.Builder, d *Decorator) {
	b.WriteString("@")
	b.WriteString(d.Name)
	if d.Called {
		b.WriteString("(")
		writeExprList(b, d.Args)
		b.WriteString(")")
	}
	b.WriteString("\n")
}

func writeFunc(b *strings.Builder, f *FuncDef, indent int) {
	for _, d := range f.Decorators {
		writeIndent(b, indent)
		writeDecorator(b, d)
	}
	writeIndent(b, indent)
	b.WriteString("def ")
	b.WriteString(f.Name)
	b.WriteString("(")
	b.WriteString(strings.Join(f.Params, ", "))
	b.WriteString("):\n")
	if len(f.Body) == 0 {
		writeIndent(b, indent+1)
		b.WriteString("pass\n")
		return
	}
	for _, s := range f.Body {
		writeStmt(b, s, indent+1)
	}
}

func writeStmt(b *strings.Builder, s Stmt, indent int) {
	switch s := s.(type) {
	case *ExprStmt:
		writeIndent(b, indent)
		writeExpr(b, s.X)
		b.WriteString("\n")
	case *Assign:
		writeIndent(b, indent)
		writeExpr(b, s.Target)
		b.WriteString(" = ")
		writeExpr(b, s.Value)
		b.WriteString("\n")
	case *Return:
		writeIndent(b, indent)
		b.WriteString("return")
		if len(s.Values) > 0 {
			b.WriteString(" ")
			writeExprList(b, s.Values)
		}
		b.WriteString("\n")
	case *If:
		writeIndent(b, indent)
		b.WriteString("if ")
		writeExpr(b, s.Cond)
		b.WriteString(":\n")
		writeBlock(b, s.Body, indent+1)
		for _, e := range s.Elifs {
			writeIndent(b, indent)
			b.WriteString("elif ")
			writeExpr(b, e.Cond)
			b.WriteString(":\n")
			writeBlock(b, e.Body, indent+1)
		}
		if s.Else != nil {
			writeIndent(b, indent)
			b.WriteString("else:\n")
			writeBlock(b, s.Else, indent+1)
		}
	case *Match:
		writeIndent(b, indent)
		b.WriteString("match ")
		writeExpr(b, s.Subject)
		b.WriteString(":\n")
		for _, c := range s.Cases {
			writeIndent(b, indent+1)
			b.WriteString("case ")
			writeExpr(b, c.Pattern)
			b.WriteString(":\n")
			writeBlock(b, c.Body, indent+2)
		}
	case *While:
		writeIndent(b, indent)
		b.WriteString("while ")
		writeExpr(b, s.Cond)
		b.WriteString(":\n")
		writeBlock(b, s.Body, indent+1)
	case *For:
		writeIndent(b, indent)
		b.WriteString("for ")
		writeExpr(b, s.Target)
		b.WriteString(" in ")
		writeExpr(b, s.Iter)
		b.WriteString(":\n")
		writeBlock(b, s.Body, indent+1)
	case *Pass:
		writeIndent(b, indent)
		b.WriteString("pass\n")
	case *Break:
		writeIndent(b, indent)
		b.WriteString("break\n")
	case *Continue:
		writeIndent(b, indent)
		b.WriteString("continue\n")
	case *Import:
		writeIndent(b, indent)
		b.WriteString(s.Text)
		b.WriteString("\n")
	default:
		writeIndent(b, indent)
		fmt.Fprintf(b, "# <unknown statement %T>\n", s)
	}
}

func writeBlock(b *strings.Builder, body []Stmt, indent int) {
	if len(body) == 0 {
		writeIndent(b, indent)
		b.WriteString("pass\n")
		return
	}
	for _, s := range body {
		writeStmt(b, s, indent)
	}
}

// Expression precedence for minimal parenthesization, mirroring the
// parser's grammar.
const (
	precOr = iota + 1
	precAnd
	precNot
	precCmp
	precAdd
	precMul
	precUnary
	precPostfix
)

func exprPrec(e Expr) int {
	switch e := e.(type) {
	case *BinOpExpr:
		switch e.Op {
		case "or":
			return precOr
		case "and":
			return precAnd
		case "==", "!=", "<", ">", "<=", ">=", "in", "not in":
			return precCmp
		case "+", "-":
			return precAdd
		default:
			return precMul
		}
	case *UnaryExpr:
		if e.Op == "not" {
			return precNot
		}
		return precUnary
	default:
		return precPostfix
	}
}

func writeExpr(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case *NameExpr:
		b.WriteString(e.Name)
	case *AttrExpr:
		writeChildExpr(b, e.Value, precPostfix)
		b.WriteString(".")
		b.WriteString(e.Attr)
	case *CallExpr:
		writeChildExpr(b, e.Fn, precPostfix)
		b.WriteString("(")
		writeExprList(b, e.Args)
		b.WriteString(")")
	case *ListExpr:
		b.WriteString("[")
		writeExprList(b, e.Elts)
		b.WriteString("]")
	case *TupleExpr:
		// Always parenthesized: a bare `0, 0` is only legal in the few
		// positions the parser builds tuples for (return values), which
		// print their element lists directly.
		b.WriteString("(")
		writeExprList(b, e.Elts)
		b.WriteString(")")
	case *StringLit:
		b.WriteString(strconv.Quote(e.Value))
	case *NumberLit:
		b.WriteString(e.Text)
	case *BoolLit:
		if e.Value {
			b.WriteString("True")
		} else {
			b.WriteString("False")
		}
	case *NoneLit:
		b.WriteString("None")
	case *WildcardExpr:
		b.WriteString("_")
	case *BinOpExpr:
		p := exprPrec(e)
		writeChildExpr(b, e.Left, p)
		b.WriteString(" ")
		b.WriteString(e.Op)
		b.WriteString(" ")
		// Left-associative: the right child needs parens at equal
		// precedence.
		writeChildExpr(b, e.Right, p+1)
	case *UnaryExpr:
		b.WriteString(e.Op)
		if e.Op == "not" {
			b.WriteString(" ")
		}
		writeChildExpr(b, e.X, exprPrec(e))
	default:
		fmt.Fprintf(b, "<unknown expr %T>", e)
	}
}

func writeChildExpr(b *strings.Builder, e Expr, parent int) {
	if exprPrec(e) < parent {
		b.WriteString("(")
		writeExpr(b, e)
		b.WriteString(")")
		return
	}
	writeExpr(b, e)
}

func writeExprList(b *strings.Builder, es []Expr) {
	for i, e := range es {
		if i > 0 {
			b.WriteString(", ")
		}
		writeExpr(b, e)
	}
}

func writeIndent(b *strings.Builder, level int) {
	for i := 0; i < level; i++ {
		b.WriteString("    ")
	}
}
