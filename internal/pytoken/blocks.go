package pytoken

import "bytes"

// Block is one top-level class block of a source: the byte range
// [Start, End) and the 1-based line it starts on.
type Block struct{ Start, End, Line int }

// ClassBlocks cuts src into top-level class blocks with a scan of
// column 0: a block is a class line with the decorator lines before it,
// and runs up to the next top-level decorator or class line, so it owns
// the blank, comment and indented lines that follow it. The lexer meets
// every such line at depth 0 and with a full dedent, unless a block
// leaves a bracket open and so fails to parse alone, and no token spans
// lines without a backslash; so when every block parses alone from its
// start line (TokenizeAt), the blocks' tokens, positions and trees are
// exactly those of the whole source. ok is false whenever the scan
// cannot vouch for that: a NUL byte (which the lexer takes for end of
// file), a line ending in a backslash, an indented line before the
// first block, a carriage return starting a non-blank line, decorators
// with no class line, or any other non-blank, non-comment line at
// column 0, such as a module-level statement or def.
func ClassBlocks(src []byte) (blocks []Block, ok bool) {
	if bytes.IndexByte(src, 0) >= 0 {
		return nil, false
	}
	open := false // the last block has decorator lines but no class line yet
	line := 0
	for off := 0; off < len(src); {
		line++
		end := len(src)
		if i := bytes.IndexByte(src[off:], '\n'); i >= 0 {
			end = off + i
		}
		text := src[off:end]
		if len(text) > 0 && text[len(text)-1] == '\\' {
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
		if start {
			if n := len(blocks); n > 0 {
				blocks[n-1].End = off
			}
			blocks = append(blocks, Block{Start: off, Line: line})
		}
		off = end + 1
	}
	if open {
		return nil, false
	}
	if n := len(blocks); n > 0 {
		blocks[n-1].End = len(src)
	}
	return blocks, true
}
