package lang

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

// lexer reads query source in place, one token at a time. Its first error —
// a lexical one, or the token cap's refusal — ends the stream: next returns
// ILLEGAL from then on, the parser stops there, and Parse reports the error.
type lexer struct {
	src    string
	pos    int // byte offset into src
	line   int
	col    int // in runes
	tokens int // tokens read
	err    error
}

type lexeme struct {
	tok Token
	lit string // the source text of an identifier, keyword or number
	pos Pos
}

// peek and peek2 return the next rune and the one after it, or
// utf8.RuneError past the end.
func (l *lexer) peek() rune {
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

func (l *lexer) peek2() rune {
	_, n := utf8.DecodeRuneInString(l.src[l.pos:])
	r, _ := utf8.DecodeRuneInString(l.src[l.pos+n:])
	return r
}

func (l *lexer) advance() rune {
	r, n := utf8.DecodeRuneInString(l.src[l.pos:])
	l.pos += n
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peek2() == '*':
			start := Pos{l.line, l.col}
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return fmt.Errorf("%v: unterminated block comment", start)
			}
		default:
			return nil
		}
	}
	return nil
}

// next returns the next token, or ILLEGAL once the stream has ended in an
// error: the first one it meets, or ErrTooLong at the first token past
// maxTokens.
func (l *lexer) next() lexeme {
	if l.err != nil {
		return lexeme{tok: ILLEGAL}
	}
	lx, err := l.scan()
	if l.tokens++; err == nil && lx.tok != EOF && l.tokens > maxTokens {
		err = fmt.Errorf("%v: %w (more than %d tokens)", lx.pos, ErrTooLong, maxTokens)
	}
	if err != nil {
		l.err = err
		return lexeme{tok: ILLEGAL}
	}
	return lx
}

func (l *lexer) scan() (lexeme, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return lexeme{}, err
	}
	pos := Pos{l.line, l.col}
	if l.pos >= len(l.src) {
		return lexeme{tok: EOF, pos: pos}, nil
	}
	start := l.pos
	r := l.peek()
	switch {
	case unicode.IsLetter(r) || r == '_':
		for l.pos < len(l.src) && (unicode.IsLetter(l.peek()) || unicode.IsDigit(l.peek()) || l.peek() == '_') {
			l.advance()
		}
		word := l.src[start:l.pos]
		if kw, ok := keywords[word]; ok {
			return lexeme{tok: kw, lit: word, pos: pos}, nil
		}
		return lexeme{tok: IDENT, lit: word, pos: pos}, nil
	case unicode.IsDigit(r):
		isFloat := false
		for l.pos < len(l.src) && (unicode.IsDigit(l.peek()) || l.peek() == '.') {
			if l.peek() == '.' {
				if isFloat || !unicode.IsDigit(l.peek2()) {
					break
				}
				isFloat = true
			}
			l.advance()
		}
		tok := INT
		if isFloat {
			tok = FLOAT
		}
		return lexeme{tok: tok, lit: l.src[start:l.pos], pos: pos}, nil
	}
	l.advance()
	two := func(second rune, with, without Token) (lexeme, error) {
		if l.peek() == second {
			l.advance()
			return lexeme{tok: with, pos: pos}, nil
		}
		if without == ILLEGAL {
			return lexeme{}, fmt.Errorf("%v: unexpected character %q", pos, string(r))
		}
		return lexeme{tok: without, pos: pos}, nil
	}
	if tok, ok := punct[r]; ok {
		return lexeme{tok: tok, pos: pos}, nil
	}
	switch r {
	case '&':
		return two('&', LAND, ILLEGAL)
	case '|':
		return two('|', LOR, ILLEGAL)
	case '<':
		return two('=', LEQ, LSS)
	case '>':
		return two('=', GEQ, GTR)
	case '=':
		return two('=', EQL, ASSIGN)
	case '!':
		return two('=', NEQ, NOT)
	}
	return lexeme{}, fmt.Errorf("%v: unexpected character %q", pos, string(r))
}
