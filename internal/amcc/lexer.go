// Package amcc implements the AMC compiler: a compact C-subset front end
// for authoring Two-Chains active messages and rieds, compiling to JAM
// assembly (and onward, through the in-repo assembler and linker, to
// packages). It plays the role of GCC in the paper's toolchain, whose
// build flow "takes C source files, then statically modifies the assembly"
// — here the GOT discipline is generated directly: external references
// compile to callg/ldg, the forms the jam extractor rewrites.
//
// The language: 64-bit `long` scalars, `long*` and `byte*` pointers,
// functions, locals, globals (for rieds), string literals, the usual
// operators with C precedence, if/else, while, for, break, continue,
// return. Externs declare foreign symbols resolved through the GOT.
package amcc

import (
	"fmt"
	"strconv"
	"strings"

	"twochains/internal/wire"
)

type tokKind int

const (
	tkEOF tokKind = iota
	tkIdent
	tkNumber
	tkString
	tkPunct
	tkKeyword
)

type token struct {
	kind tokKind
	text string
	num  int64
	str  string
	line int
}

// Error is a compile diagnostic with position.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

var keywords = map[string]bool{
	"long": true, "byte": true, "void": true, "extern": true,
	"if": true, "else": true, "while": true, "for": true,
	"return": true, "break": true, "continue": true,
}

// punctuators, longest first so the scanner is greedy.
var puncts = []string{
	"<<=", ">>=", "&&", "||", "==", "!=", "<=", ">=", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
	"=", "(", ")", "{", "}", "[", "]", ";", ",",
}

type lexer struct {
	file string
	src  string
	pos  int
	line int
	toks []token
}

func lex(file, src string) ([]token, error) {
	lx := &lexer{file: file, src: src, line: 1}
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		lx.toks = append(lx.toks, tok)
		if tok.kind == tkEOF {
			return lx.toks, nil
		}
	}
}

func (lx *lexer) errf(format string, args ...any) error {
	return &Error{File: lx.file, Line: lx.line, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			end := strings.Index(lx.src[lx.pos+2:], "*/")
			if end < 0 {
				return token{}, lx.errf("unterminated block comment")
			}
			lx.line += strings.Count(lx.src[lx.pos:lx.pos+2+end+2], "\n")
			lx.pos += 2 + end + 2
		default:
			goto scan
		}
	}
	return token{kind: tkEOF, line: lx.line}, nil

scan:
	c := lx.src[lx.pos]
	start := lx.pos
	switch {
	case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		// ASCII only: a byte that starts an identifier must also continue
		// one (isIdentChar), or the token is empty and the lexer stalls.
		for lx.pos < len(lx.src) && (isIdentChar(lx.src[lx.pos])) {
			lx.pos++
		}
		text := lx.src[start:lx.pos]
		if len(text) > wire.MaxStr {
			return token{}, lx.errf("identifier of %d bytes is over the %d a symbol name holds", len(text), wire.MaxStr)
		}
		kind := tkIdent
		if keywords[text] {
			kind = tkKeyword
		}
		return token{kind: kind, text: text, line: lx.line}, nil

	case c >= '0' && c <= '9':
		for lx.pos < len(lx.src) && (isIdentChar(lx.src[lx.pos])) {
			lx.pos++
		}
		text := lx.src[start:lx.pos]
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			// Allow full-range unsigned hex constants.
			u, uerr := strconv.ParseUint(text, 0, 64)
			if uerr != nil {
				return token{}, lx.errf("bad number %q", text)
			}
			v = int64(u)
		}
		return token{kind: tkNumber, text: text, num: v, line: lx.line}, nil

	case c == '\'':
		end := strings.Index(lx.src[lx.pos+1:], "'")
		if end < 0 {
			return token{}, lx.errf("unterminated char literal")
		}
		lit := lx.src[lx.pos : lx.pos+end+2]
		unq, err := strconv.Unquote(lit)
		if err != nil || len(unq) != 1 {
			return token{}, lx.errf("bad char literal %s", lit)
		}
		lx.pos += end + 2
		return token{kind: tkNumber, text: lit, num: int64(unq[0]), line: lx.line}, nil

	case c == '"':
		i := lx.pos + 1
		for i < len(lx.src) && lx.src[i] != '"' {
			if lx.src[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(lx.src) {
			return token{}, lx.errf("unterminated string literal")
		}
		lit := lx.src[lx.pos : i+1]
		unq, err := strconv.Unquote(lit)
		if err != nil {
			return token{}, lx.errf("bad string literal: %v", err)
		}
		lx.pos = i + 1
		return token{kind: tkString, text: lit, str: unq, line: lx.line}, nil

	default:
		for _, p := range puncts {
			if strings.HasPrefix(lx.src[lx.pos:], p) {
				lx.pos += len(p)
				return token{kind: tkPunct, text: p, line: lx.line}, nil
			}
		}
		return token{}, lx.errf("unexpected character %q", c)
	}
}

func isIdentChar(c byte) bool {
	return c == '_' || c == 'x' || c == 'X' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
