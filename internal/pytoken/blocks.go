package pytoken

import "bytes"

// Block is one top-level class block of a source: the byte range
// [Start, End) and the 1-based line it starts on.
type Block struct{ Start, End, Line int }

// ClassBlocks cuts src into top-level class blocks with a scan of
// column 0: a block is a class line with the decorator lines before it,
// and runs up to the next top-level decorator or class line, so it owns
// the blank, comment and indented lines that follow it; the first block
// also owns those before it. The lexer meets every such line at depth 0
// and with a full dedent, unless a block leaves a bracket open and so
// fails to parse alone, and no token spans lines without a backslash;
// so when every block parses alone from its start line (NewLexer),
// the blocks' tokens, positions and trees are exactly those of the
// whole source, and a lexical error anywhere in src fails the block
// that holds it. ok is false whenever the scan cannot vouch for that: a
// line ending in a backslash (before an LF or a CRLF), an indented line
// before the first block, a carriage return starting a non-blank line,
// decorators with no class line, no class line at all, or any other
// non-blank, non-comment line at column 0, such as a module-level
// statement or def.
func ClassBlocks(src []byte) (blocks []Block, ok bool) {
	open := false // the last block has decorator lines but no class line yet
	line := 0
	for off := 0; off < len(src); {
		line++
		end := len(src)
		if i := bytes.IndexByte(src[off:], '\n'); i >= 0 {
			end = off + i
		}
		text := src[off:end]
		if bytes.HasSuffix(bytes.TrimSuffix(text, []byte("\r")), []byte("\\")) {
			return nil, false
		}
		start := false
		switch {
		case len(text) == 0 || text[0] == '#':
		case text[0] == ' ' || text[0] == '\t' || text[0] == '\r':
			rest := bytes.TrimLeft(text, " \t\r")
			if len(rest) > 0 && rest[0] != '#' && (text[0] == '\r' || len(blocks) == 0) {
				return nil, false
			}
		case text[0] == '@':
			start, open = !open, true
		case bytes.HasPrefix(text, []byte("class")) && (len(text) == 5 || !isNamePart(text[5])):
			start, open = !open, false
		default:
			return nil, false
		}
		switch {
		case start && len(blocks) == 0:
			// The first block also owns the blank and comment lines
			// above it, so every byte of src is in some block.
			blocks = append(blocks, Block{Start: 0, Line: 1})
		case start:
			blocks[len(blocks)-1].End = off
			blocks = append(blocks, Block{Start: off, Line: line})
		}
		off = end + 1
	}
	if open || len(blocks) == 0 {
		return nil, false
	}
	if n := len(blocks); n > 0 {
		blocks[n-1].End = len(src)
	}
	return blocks, true
}
