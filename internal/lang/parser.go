package lang

import (
	"errors"
	"fmt"
	"strconv"
)

// maxDepth bounds how deeply a program nests: parentheses, unary chains,
// binary operators, call arguments, indices and for/if bodies each take a
// level. The parser and every pass over its tree recurse once a level, and
// a goroutine that overflows its stack dies beyond any recover, so the
// gateway, which parses whatever a request carries, refuses deep nesting
// here. Real queries nest a few levels.
const maxDepth = 256

// maxTokens bounds how long a program is. The lexer reads one token ahead of
// the parser, so with maxDepth it bounds what a parse costs: a refused
// source is read only up to its first token past a cap. The longest
// built-in query has about 150 tokens.
const maxTokens = 1 << 16

// ErrTooDeep refuses a program that nests more than maxDepth levels;
// ErrTooLong one of more than maxTokens tokens.
var (
	ErrTooDeep = errors.New("program nests too deeply")
	ErrTooLong = errors.New("program has too many tokens")
)

// Parse parses query source into a Program. It reports the first error in
// the source, lexical or syntactic.
func Parse(src string) (*Program, error) {
	p := &parser{lex: lexer{src: src, line: 1, col: 1}}
	p.look = p.lex.next()
	stmts, err := p.stmtList(EOF)
	if err == nil && p.look.tok != EOF {
		err = p.errorf("unexpected %v after program end", p.look.tok)
	}
	if p.lex.err != nil {
		return nil, p.lex.err
	}
	if err != nil {
		return nil, err
	}
	return &Program{Stmts: stmts}, nil
}

// MustParse parses and panics on error; for compile-time-known queries.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	lex   lexer
	look  lexeme // the current token
	depth int    // nesting levels open, at most maxDepth
}

// enter opens one nesting level, or refuses the program past maxDepth; each
// successful enter is paired with a deferred leave.
func (p *parser) enter() error {
	if p.depth == maxDepth {
		return fmt.Errorf("%v: %w (more than %d levels)", p.look.pos, ErrTooDeep, maxDepth)
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) advance() lexeme {
	lx := p.look
	if lx.tok != EOF {
		p.look = p.lex.next()
	}
	return lx
}

func (p *parser) expect(tok Token) (lexeme, error) {
	if p.look.tok != tok {
		return lexeme{}, p.errorf("expected %v, found %v", tok, p.look.tok)
	}
	return p.advance(), nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("%v: %s", p.look.pos, fmt.Sprintf(format, args...))
}

// stmtList parses statements until one of the closing tokens (which is not
// consumed). Semicolons separate statements; trailing semicolons are fine.
func (p *parser) stmtList(closers ...Token) ([]Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	isCloser := func(t Token) bool {
		for _, c := range closers {
			if t == c {
				return true
			}
		}
		return false
	}
	var stmts []Stmt
	for {
		for p.look.tok == SEMI {
			p.advance()
		}
		if isCloser(p.look.tok) {
			return stmts, nil
		}
		if p.look.tok == EOF {
			return nil, p.errorf("unexpected end of input (missing %v?)", closers[0])
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		// A statement is followed by a separator or a closer.
		if p.look.tok != SEMI && !isCloser(p.look.tok) && p.look.tok != EOF {
			return nil, p.errorf("expected ';' after statement, found %v", p.look.tok)
		}
	}
}

// stmt parses a statement: a loop, a conditional, or an expression, which
// is an assignment when '=' follows it and it names a variable or indexes
// one.
func (p *parser) stmt() (Stmt, error) {
	switch p.look.tok {
	case FOR:
		return p.forStmt()
	case IF:
		return p.ifStmt()
	}
	pos := p.look.pos
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.look.tok != ASSIGN {
		return &ExprStmt{Pos: pos, X: x}, nil
	}
	var index Expr
	if ix, ok := x.(*IndexExpr); ok {
		x, index = ix.X, ix.Index
	}
	name, ok := x.(*Ident)
	if !ok {
		return nil, p.errorf("expected ';' after statement, found %v", p.look.tok)
	}
	p.advance()
	v, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{Pos: pos, Name: name.Name, Index: index, Value: v}, nil
}

func (p *parser) forStmt() (Stmt, error) {
	pos := p.look.pos
	p.advance() // for
	v, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	from, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TO); err != nil {
		return nil, err
	}
	to, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(DO); err != nil {
		return nil, err
	}
	body, err := p.stmtList(ENDFOR)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ENDFOR); err != nil {
		return nil, err
	}
	return &ForStmt{Pos: pos, Var: v.lit, From: from, To: to, Body: body}, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	pos := p.look.pos
	p.advance() // if
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(THEN); err != nil {
		return nil, err
	}
	then, err := p.stmtList(ELSE, ENDIF)
	if err != nil {
		return nil, err
	}
	var els []Stmt
	if p.look.tok == ELSE {
		p.advance()
		els, err = p.stmtList(ENDIF)
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(ENDIF); err != nil {
		return nil, err
	}
	return &IfStmt{Pos: pos, Cond: cond, Then: then, Else: els}, nil
}

// expr parses a full expression with precedence climbing.
func (p *parser) expr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	x, err := p.unary()
	if err != nil {
		return nil, err
	}
	return p.continueExpr(x, 0)
}

// continueExpr extends a parsed left operand with binary operators of
// at least the given precedence.
func (p *parser) continueExpr(x Expr, minPrec int) (Expr, error) {
	// Each operator nests the tree built so far one level deeper, and the
	// passes over it recurse on that depth, so a long chain takes a level
	// an operator.
	defer func(depth int) { p.depth = depth }(p.depth)
	for {
		op := p.look.tok
		prec := op.Precedence()
		if prec == 0 || prec < minPrec {
			return x, nil
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		p.advance()
		y, err := p.unary()
		if err != nil {
			return nil, err
		}
		// Bind tighter operators on the right first.
		y, err = p.continueExpr(y, prec+1)
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: op, X: x, Y: y}
	}
}

func (p *parser) unary() (Expr, error) {
	switch p.look.tok {
	case NOT, SUB:
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		lx := p.advance()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{OpPos: lx.pos, Op: lx.tok, X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	lx := p.look
	switch lx.tok {
	case INT:
		p.advance()
		v, err := strconv.ParseInt(lx.lit, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", lx.lit)
		}
		return p.suffix(&IntLit{LitPos: lx.pos, Value: v})
	case FLOAT:
		p.advance()
		v, err := strconv.ParseFloat(lx.lit, 64)
		if err != nil {
			return nil, p.errorf("bad float literal %q", lx.lit)
		}
		return p.suffix(&FloatLit{LitPos: lx.pos, Value: v})
	case TRUE:
		p.advance()
		return p.suffix(&BoolLit{LitPos: lx.pos, Value: true})
	case FALSE:
		p.advance()
		return p.suffix(&BoolLit{LitPos: lx.pos, Value: false})
	case LPAREN:
		p.advance()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return p.suffix(x)
	case IDENT:
		p.advance()
		if p.look.tok == LPAREN {
			call, err := p.callExpr(lx.pos, lx.lit)
			if err != nil {
				return nil, err
			}
			return p.suffix(call)
		}
		return p.suffix(&Ident{NamePos: lx.pos, Name: lx.lit})
	default:
		return nil, p.errorf("unexpected %v in expression", lx.tok)
	}
}

// suffix applies indexing suffixes: x[i][j]...
func (p *parser) suffix(x Expr) (Expr, error) {
	for p.look.tok == LBRACK {
		p.advance()
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RBRACK); err != nil {
			return nil, err
		}
		x = &IndexExpr{X: x, Index: idx}
	}
	return x, nil
}

func (p *parser) callExpr(pos Pos, name string) (Expr, error) {
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	var args []Expr
	if p.look.tok != RPAREN {
		for {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.look.tok != COMMA {
				break
			}
			p.advance()
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if b, ok := Builtins[name]; ok {
		if len(args) < b.MinArgs || len(args) > b.MaxArgs {
			return nil, fmt.Errorf("%v: %s takes %d..%d arguments, got %d",
				pos, name, b.MinArgs, b.MaxArgs, len(args))
		}
	}
	return &CallExpr{NamePos: pos, Func: name, Args: args}, nil
}
