package pytoken

import (
	"fmt"
	"strings"
)

// Error is a lexical error with its source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Tokenize converts source text into a token stream terminated by an EOF
// token. Block structure is encoded as INDENT/DEDENT tokens following
// Python's rules: the indentation of each logical line is compared with a
// stack of open indentation levels; inconsistent dedents are reported as
// errors. Newlines inside (), [] or {} are ignored (implicit line
// joining), as are blank lines and comment-only lines.
func Tokenize(src string) ([]Token, error) { return tokenizeAt(src, 1) }

// tokenizeAt drains a Lexer over src, which begins at the given line.
func tokenizeAt(src string, line int) ([]Token, error) {
	l := NewLexer(src, line)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

// Lexer tokenizes a source one token at a time, so a parser that looks
// one token ahead never holds the whole stream.
type Lexer struct {
	src         string
	off         int
	line        int
	col         int
	indents     []int
	depth       int     // bracket nesting depth; >0 suppresses NEWLINE/INDENT
	pending     []Token // tokens lexed but not yet returned, from head on
	head        int
	last        Kind // kind of the last token lexed, 0 before the first
	err         error
	atLineStart bool
}

// NewLexer returns a lexer over src, which begins at column 1 of the
// given line: every position (of tokens and of errors) is in the
// coordinates of the file src was cut from.
func NewLexer(src string, line int) *Lexer {
	return &Lexer{src: src, line: line, col: 1, indents: []int{0}, atLineStart: true}
}

// Next returns the next token. After EOF it keeps returning EOF; after
// an error it keeps returning that error.
func (l *Lexer) Next() (Token, error) {
	for l.head == len(l.pending) {
		if l.err != nil {
			return Token{}, l.err
		}
		if l.last == EOF {
			return l.pending[l.head-1], nil
		}
		l.pending, l.head = l.pending[:0], 0
		l.err = l.step()
	}
	l.head++
	return l.pending[l.head-1], nil
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *Lexer) errorf(format string, args ...any) error {
	return &Error{Pos: l.pos(), Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) emit(kind Kind, text string, pos Pos) {
	l.pending = append(l.pending, Token{Kind: kind, Text: text, Pos: pos})
	l.last = kind
}

// nulMsg is the error for a NUL byte anywhere before the end of input.
const nulMsg = "source code cannot contain null bytes"

// peek returns the next byte, or 0 at the end of input. A NUL byte
// inside the source also peeks as 0, so wherever the lexer stops on a 0
// it tells the two apart by the offset (step, endError).
func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

// endError is the error for a 0 from peek: a NUL byte inside the source
// is an error at its own position, whatever it interrupts; at the real
// end of input the error is msg at pos.
func (l *Lexer) endError(pos Pos, msg string) error {
	if l.off < len(l.src) {
		return l.errorf(nulMsg)
	}
	return &Error{Pos: pos, Msg: msg}
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// step lexes one unit at the current offset — the indentation of a
// line, a token, a whitespace byte, a comment or a line join — and
// emits the tokens it yields, if any.
func (l *Lexer) step() error {
	if l.atLineStart && l.depth == 0 {
		l.atLineStart = false
		return l.handleIndentation()
	}
	c := l.peek()
	switch {
	case c == 0:
		if l.off < len(l.src) {
			return l.errorf(nulMsg)
		}
		// Close the final logical line and any open blocks.
		if l.last != 0 && l.last != Newline && l.last != Indent && l.last != Dedent {
			l.emit(Newline, "", l.pos())
		}
		for len(l.indents) > 1 {
			l.indents = l.indents[:len(l.indents)-1]
			l.emit(Dedent, "", l.pos())
		}
		l.emit(EOF, "", l.pos())
	case c == '\n':
		pos := l.pos() // report the newline at the end of its line
		l.advance()
		if l.depth == 0 {
			switch l.last {
			case 0, Newline, Indent, Dedent:
				// Blank line: no token.
			default:
				l.emit(Newline, "", pos)
			}
			l.atLineStart = true
		}
	case c == ' ' || c == '\t' || c == '\r':
		l.advance()
	case c == '#':
		for l.peek() != '\n' && l.peek() != 0 {
			l.advance()
		}
	case c == '\\' && (l.peekAt(1) == '\n' || l.peekAt(1) == '\r' && l.peekAt(2) == '\n'):
		// Explicit line joining, after an LF or a CRLF line end.
		for l.advance() != '\n' {
		}
	case c == '"' || c == '\'':
		return l.lexString()
	case isDigit(c):
		l.lexNumber()
	case isNameStart(c):
		l.lexName()
	default:
		return l.lexOperator()
	}
	return nil
}

// handleIndentation measures the leading whitespace of the upcoming
// logical line and emits INDENT/DEDENT tokens. Lines that turn out to be
// blank or comment-only produce nothing.
func (l *Lexer) handleIndentation() error {
	// Measure from the current offset without consuming non-whitespace.
	width := 0
	for {
		switch l.peek() {
		case ' ':
			l.advance()
			width++
		case '\t':
			l.advance()
			width += 8 - width%8 // Python tab rule
		case '\r':
			l.advance()
		case '\n':
			l.advance()
			width = 0 // blank line: restart measurement on next line
		case '#':
			for l.peek() != '\n' && l.peek() != 0 {
				l.advance()
			}
		case 0:
			return nil // end of input or a NUL byte: step tells them apart
		default:
			goto measured
		}
	}
measured:
	top := l.indents[len(l.indents)-1]
	switch {
	case width > top:
		l.indents = append(l.indents, width)
		l.emit(Indent, "", l.pos())
	case width < top:
		for len(l.indents) > 1 && l.indents[len(l.indents)-1] > width {
			l.indents = l.indents[:len(l.indents)-1]
			l.emit(Dedent, "", l.pos())
		}
		if l.indents[len(l.indents)-1] != width {
			return l.errorf("unindent does not match any outer indentation level")
		}
	}
	return nil
}

func (l *Lexer) lexString() error {
	pos := l.pos()
	quote := l.advance()
	var b strings.Builder
	for {
		c := l.peek()
		switch c {
		case 0:
			return l.endError(pos, "unterminated string literal")
		case '\n':
			return &Error{Pos: pos, Msg: "unterminated string literal"}
		case '\\':
			l.advance()
			esc := l.peek()
			if esc == 0 {
				return l.endError(pos, "unterminated string literal")
			}
			l.advance()
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\':
				b.WriteByte('\\')
			case '\'':
				b.WriteByte('\'')
			case '"':
				b.WriteByte('"')
			case '0':
				b.WriteByte(0)
			default:
				// Unknown escapes are kept verbatim, like Python does
				// (with a warning we don't reproduce).
				b.WriteByte('\\')
				b.WriteByte(esc)
			}
		default:
			l.advance()
			if c == quote {
				l.emit(String, b.String(), pos)
				return nil
			}
			b.WriteByte(c)
		}
	}
}

func (l *Lexer) lexNumber() {
	pos := l.pos()
	start := l.off
	for isDigit(l.peek()) || l.peek() == '_' {
		l.advance()
	}
	if l.peek() == '.' && isDigit(l.peekAt(1)) {
		l.advance()
		for isDigit(l.peek()) {
			l.advance()
		}
	}
	// Hex/binary/octal prefixes (0x..., 0b..., 0o...).
	if l.off-start == 1 && l.src[start] == '0' {
		switch l.peek() {
		case 'x', 'X', 'b', 'B', 'o', 'O':
			l.advance()
			for isHexDigit(l.peek()) {
				l.advance()
			}
		}
	}
	l.emit(Number, l.src[start:l.off], pos)
}

func (l *Lexer) lexName() {
	pos := l.pos()
	start := l.off
	for isNamePart(l.peek()) {
		l.advance()
	}
	text := l.src[start:l.off]
	if kw, ok := keywords[text]; ok {
		l.emit(kw, text, pos)
		return
	}
	l.emit(Name, text, pos)
}

// operators lists every operator and delimiter, two-byte ones first so
// the longest match wins.
var operators = []struct {
	text string
	kind Kind
}{
	{"==", Eq}, {"!=", NotEq}, {"<=", LtEq}, {">=", GtEq}, {"->", Arrow},
	{"(", LParen}, {")", RParen}, {"[", LBracket}, {"]", RBracket},
	{"{", LBrace}, {"}", RBrace}, {":", Colon}, {",", Comma}, {".", Dot},
	{"@", At}, {"=", Assign}, {"+", Plus}, {"-", Minus}, {"*", StarTok},
	{"/", Slash}, {"%", Percent}, {"<", Lt}, {">", Gt},
}

func (l *Lexer) lexOperator() error {
	pos := l.pos()
	for _, op := range operators {
		if l.src[l.off] != op.text[0] || !strings.HasPrefix(l.src[l.off:], op.text) {
			continue
		}
		for range op.text {
			l.advance()
		}
		switch op.kind {
		case LParen, LBracket, LBrace:
			l.depth++
		case RParen, RBracket, RBrace:
			l.depth--
		}
		l.emit(op.kind, "", pos)
		return nil
	}
	if c := l.src[l.off]; c != '!' {
		return &Error{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", string(c))}
	}
	return &Error{Pos: pos, Msg: "unexpected character '!'"}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isNamePart(c byte) bool { return isNameStart(c) || isDigit(c) }
