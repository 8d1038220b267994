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
func Tokenize(src string) ([]Token, error) { return TokenizeAt(src, 1) }

// TokenizeAt is Tokenize for a fragment of a larger file that begins at
// column 1 of the given line: every position (of tokens and of errors)
// is in the file's coordinates, so Tokenize(src) == TokenizeAt(src, 1).
func TokenizeAt(src string, line int) ([]Token, error) {
	l := &lexer{src: src, line: line, col: 1, indents: []int{0}}
	if err := l.run(); err != nil {
		return nil, err
	}
	return l.toks, nil
}

type lexer struct {
	src         string
	off         int
	line        int
	col         int
	indents     []int
	depth       int // bracket nesting depth; >0 suppresses NEWLINE/INDENT
	toks        []Token
	atLineStart bool
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) errorf(format string, args ...any) error {
	return &Error{Pos: l.pos(), Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) emit(kind Kind, text string, pos Pos) {
	l.toks = append(l.toks, Token{Kind: kind, Text: text, Pos: pos})
}

// nulMsg is the error for a NUL byte anywhere before the end of input.
const nulMsg = "source code cannot contain null bytes"

// peek returns the next byte, or 0 at the end of input. A NUL byte
// inside the source also peeks as 0, so wherever the lexer stops on a 0
// it tells the two apart by the offset (run, endError).
func (l *lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

// endError is the error for a 0 from peek: a NUL byte inside the source
// is an error at its own position, whatever it interrupts; at the real
// end of input the error is msg at pos.
func (l *lexer) endError(pos Pos, msg string) error {
	if l.off < len(l.src) {
		return l.errorf(nulMsg)
	}
	return &Error{Pos: pos, Msg: msg}
}

func (l *lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *lexer) advance() byte {
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

func (l *lexer) run() error {
	l.atLineStart = true
	for {
		if l.atLineStart && l.depth == 0 {
			if err := l.handleIndentation(); err != nil {
				return err
			}
			l.atLineStart = false
			continue
		}
		c := l.peek()
		switch {
		case c == 0:
			if l.off < len(l.src) {
				return l.errorf(nulMsg)
			}
			// Close the final logical line and any open blocks.
			if n := len(l.toks); n > 0 && l.toks[n-1].Kind != Newline && l.toks[n-1].Kind != Indent && l.toks[n-1].Kind != Dedent {
				l.emit(Newline, "", l.pos())
			}
			for len(l.indents) > 1 {
				l.indents = l.indents[:len(l.indents)-1]
				l.emit(Dedent, "", l.pos())
			}
			l.emit(EOF, "", l.pos())
			return nil
		case c == '\n':
			pos := l.pos() // report the newline at the end of its line
			l.advance()
			if l.depth == 0 {
				if n := len(l.toks); n > 0 {
					switch l.toks[n-1].Kind {
					case Newline, Indent, Dedent:
						// Blank line: no token.
					default:
						l.emit(Newline, "", pos)
					}
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
			if err := l.lexString(); err != nil {
				return err
			}
		case isDigit(c):
			l.lexNumber()
		case isNameStart(c):
			l.lexName()
		default:
			if err := l.lexOperator(); err != nil {
				return err
			}
		}
	}
}

// handleIndentation measures the leading whitespace of the upcoming
// logical line and emits INDENT/DEDENT tokens. Lines that turn out to be
// blank or comment-only produce nothing.
func (l *lexer) handleIndentation() error {
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
			return nil // end of input or a NUL byte: run() tells them apart
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

func (l *lexer) lexString() error {
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

func (l *lexer) lexNumber() {
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

func (l *lexer) lexName() {
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

func (l *lexer) lexOperator() error {
	pos := l.pos()
	c := l.advance()
	two := func(next byte, k2 Kind, k1 Kind) {
		if l.peek() == next {
			l.advance()
			l.emit(k2, "", pos)
			return
		}
		l.emit(k1, "", pos)
	}
	switch c {
	case '(':
		l.depth++
		l.emit(LParen, "", pos)
	case ')':
		l.depth--
		l.emit(RParen, "", pos)
	case '[':
		l.depth++
		l.emit(LBracket, "", pos)
	case ']':
		l.depth--
		l.emit(RBracket, "", pos)
	case '{':
		l.depth++
		l.emit(LBrace, "", pos)
	case '}':
		l.depth--
		l.emit(RBrace, "", pos)
	case ':':
		l.emit(Colon, "", pos)
	case ',':
		l.emit(Comma, "", pos)
	case '.':
		l.emit(Dot, "", pos)
	case '@':
		l.emit(At, "", pos)
	case '=':
		two('=', Eq, Assign)
	case '+':
		l.emit(Plus, "", pos)
	case '-':
		two('>', Arrow, Minus)
	case '*':
		l.emit(StarTok, "", pos)
	case '/':
		l.emit(Slash, "", pos)
	case '%':
		l.emit(Percent, "", pos)
	case '<':
		two('=', LtEq, Lt)
	case '>':
		two('=', GtEq, Gt)
	case '!':
		if l.peek() == '=' {
			l.advance()
			l.emit(NotEq, "", pos)
			return nil
		}
		return &Error{Pos: pos, Msg: "unexpected character '!'"}
	default:
		return &Error{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", string(c))}
	}
	return nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isNamePart(c byte) bool { return isNameStart(c) || isDigit(c) }
