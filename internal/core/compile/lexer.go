// Package compile implements the ATTAIN compiler (paper §VI-B1): parsers
// for the three user-supplied inputs — the system model, the attack model,
// and the attack states — in both a concise textual DSL and the paper's XML
// format, producing a validated Program the runtime injector executes.
package compile

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokDuration
	tokString
	tokPunct // single punctuation: ( ) { } , ; : -- = != < <= > >=
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokDuration:
		return "duration"
	case tokString:
		return "string"
	case tokPunct:
		return "punctuation"
	default:
		return "unknown"
	}
}

// token is one lexical unit with its source line for diagnostics.
type token struct {
	kind tokenKind
	text string
	line int
}

// lexer tokenizes the ATTAIN DSL. Comments run from '#' to end of line.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1}
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	lx := newLexer(src)
	var toks []token
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.kind == tokEOF {
			return toks, nil
		}
	}
}

func (lx *lexer) peekByte() (byte, bool) {
	if lx.pos >= len(lx.src) {
		return 0, false
	}
	return lx.src[lx.pos], true
}

func (lx *lexer) next() (token, error) {
	// Skip whitespace and comments.
	for {
		c, ok := lx.peekByte()
		if !ok {
			return token{kind: tokEOF, line: lx.line}, nil
		}
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '#':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			goto lexed
		}
	}
lexed:
	c := lx.src[lx.pos]
	line := lx.line
	switch {
	case c == '"':
		return lx.lexString(line)
	case isDigit(c):
		return lx.lexNumber(line)
	case isIdentStart(c):
		return lx.lexIdent(line)
	default:
		return lx.lexPunct(line)
	}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isIdentPart(c byte) bool {
	return c == '_' || c == '.' || c == ':' || isDigit(c) || unicode.IsLetter(rune(c))
}

func (lx *lexer) lexString(line int) (token, error) {
	lx.pos++ // opening quote
	var b strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return token{}, fmt.Errorf("line %d: unterminated string", line)
		}
		c := lx.src[lx.pos]
		switch c {
		case '"':
			lx.pos++
			return token{kind: tokString, text: b.String(), line: line}, nil
		case '\\':
			if lx.pos+1 >= len(lx.src) {
				return token{}, fmt.Errorf("line %d: dangling escape", line)
			}
			// Go's escapes: the formatters quote strings with %q.
			r, multibyte, tail, err := strconv.UnquoteChar(lx.src[lx.pos:], '"')
			if err != nil {
				return token{}, fmt.Errorf("line %d: unknown escape \\%c", line, lx.src[lx.pos+1])
			}
			if multibyte {
				b.WriteRune(r)
			} else {
				b.WriteByte(byte(r))
			}
			lx.pos = len(lx.src) - len(tail)
		case '\n':
			return token{}, fmt.Errorf("line %d: newline in string", line)
		default:
			b.WriteByte(c)
			lx.pos++
		}
	}
}

// lexNumber lexes integers, hex (0x...), and durations (e.g. 5s, 200ms).
// MAC-like and IP-like tokens such as 10.0.0.1 or 0a:00:... begin with a
// digit, so the number lexer also accepts dotted/colon forms and returns
// them as identifiers.
func (lx *lexer) lexNumber(line int) (token, error) {
	start := lx.pos
	sawAddrChar := false
	sawAlpha := false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case isDigit(c):
		case c == '.' || c == ':':
			sawAddrChar = true
		case c == 'x' || c == 'X' || unicode.IsLetter(rune(c)):
			sawAlpha = true
		default:
			goto done
		}
		lx.pos++
	}
done:
	text := lx.src[start:lx.pos]
	switch {
	case sawAddrChar:
		// Dotted quad or colon-hex address: treat as identifier text.
		return token{kind: tokIdent, text: text, line: line}, nil
	case sawAlpha && (strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X")):
		return token{kind: tokNumber, text: text, line: line}, nil
	case sawAlpha:
		// Digits followed by letters: a duration like 5s or 200ms.
		return token{kind: tokDuration, text: text, line: line}, nil
	default:
		return token{kind: tokNumber, text: text, line: line}, nil
	}
}

func (lx *lexer) lexIdent(line int) (token, error) {
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
		lx.pos++
	}
	return token{kind: tokIdent, text: lx.src[start:lx.pos], line: line}, nil
}

func (lx *lexer) lexPunct(line int) (token, error) {
	c := lx.src[lx.pos]
	two := ""
	if lx.pos+1 < len(lx.src) {
		two = lx.src[lx.pos : lx.pos+2]
	}
	switch two {
	case "!=", "<=", ">=", "--":
		lx.pos += 2
		return token{kind: tokPunct, text: two, line: line}, nil
	}
	switch c {
	case '(', ')', '{', '}', ',', ';', '=', '<', '>', '+', '-':
		lx.pos++
		return token{kind: tokPunct, text: string(c), line: line}, nil
	default:
		return token{}, fmt.Errorf("line %d: unexpected character %q", line, c)
	}
}
