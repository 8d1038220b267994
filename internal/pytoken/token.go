// Package pytoken tokenizes the MicroPython subset that Shelley analyzes.
//
// The lexer implements the essential parts of Python's lexical structure:
// logical lines delimited by NEWLINE tokens, block structure delimited by
// INDENT/DEDENT tokens computed from leading whitespace, implicit line
// joining inside parentheses/brackets, comments, string and numeric
// literals, names, keywords, and the operator/delimiter set used by the
// supported constructs (§2 of the paper: classes, decorators, methods,
// if/elif/else, match/case, for, while, return).
package pytoken

import "fmt"

// Kind classifies a token.
type Kind int

// Token kinds. Keyword tokens are distinguished from NAME during lexing
// so the parser can switch on them directly.
const (
	EOF Kind = iota + 1
	Newline
	Indent
	Dedent
	Name
	Number
	String

	// Keywords of the supported subset.
	KwClass
	KwDef
	KwIf
	KwElif
	KwElse
	KwMatch
	KwCase
	KwFor
	KwWhile
	KwReturn
	KwPass
	KwBreak
	KwContinue
	KwIn
	KwNot
	KwAnd
	KwOr
	KwTrue
	KwFalse
	KwNone
	KwImport
	KwFrom
	KwAs

	// Operators and delimiters.
	LParen   // (
	RParen   // )
	LBracket // [
	RBracket // ]
	LBrace   // {
	RBrace   // }
	Colon    // :
	Comma    // ,
	Dot      // .
	At       // @
	Assign   // =
	Arrow    // ->
	Plus     // +
	Minus    // -
	StarTok  // *
	Slash    // /
	Percent  // %
	Eq       // ==
	NotEq    // !=
	Lt       // <
	Gt       // >
	LtEq     // <=
	GtEq     // >=
)

// kindNames holds the diagnostic name of every kind; init adds the
// quoted spelling of each keyword and operator.
var kindNames = map[Kind]string{
	EOF:     "end of file",
	Newline: "newline",
	Indent:  "indent",
	Dedent:  "dedent",
	Name:    "name",
	Number:  "number",
	String:  "string",
}

func init() {
	for text, k := range keywords {
		kindNames[k] = "'" + text + "'"
	}
	for _, op := range operators {
		kindNames[op.kind] = "'" + op.text + "'"
	}
}

// String returns a human-readable description of the kind, used in
// parser diagnostics ("expected ':', found 'else'").
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"class":    KwClass,
	"def":      KwDef,
	"if":       KwIf,
	"elif":     KwElif,
	"else":     KwElse,
	"match":    KwMatch,
	"case":     KwCase,
	"for":      KwFor,
	"while":    KwWhile,
	"return":   KwReturn,
	"pass":     KwPass,
	"break":    KwBreak,
	"continue": KwContinue,
	"in":       KwIn,
	"not":      KwNot,
	"and":      KwAnd,
	"or":       KwOr,
	"True":     KwTrue,
	"False":    KwFalse,
	"None":     KwNone,
	"import":   KwImport,
	"from":     KwFrom,
	"as":       KwAs,
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexeme with its source position.
type Token struct {
	Kind Kind
	// Text is the raw lexeme for Name/Number tokens and the *decoded*
	// value for String tokens.
	Text string
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Name, Number:
		return fmt.Sprintf("%q", t.Text)
	case String:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return t.Kind.String()
	}
}
