// Package lang implements Arboretum's query language (Section 4.1,
// Figure 2): a small imperative language, loosely based on Fuzzi, with
// loops, conditionals, arrays, the standard arithmetic and logical
// operators, and built-in high-level operators (sum, max, em, laplace, …)
// that the planner later expands into concrete implementations.
//
// Analysts write queries as if the whole database existed on one machine:
// db[i][j] is participant i's j-th input, output(e) returns a result, and
// declassify(e) marks a differentially private value as safe to release.
//
// One deviation from Figure 2's abstract grammar: conditionals close with an
// explicit "endif" (the paper's figure leaves statement-sequence boundaries
// implicit; a concrete syntax needs the terminator).
package lang

import "fmt"

// Token is a lexical token kind.
type Token int

// Token kinds.
const (
	ILLEGAL Token = iota
	EOF

	IDENT // x, db, aggr
	INT   // 123
	FLOAT // 0.5
	TRUE
	FALSE

	ASSIGN // =
	SEMI   // ;
	COMMA  // ,
	LPAREN // (
	RPAREN // )
	LBRACK // [
	RBRACK // ]

	ADD // +
	SUB // -
	MUL // *
	QUO // /

	LAND // &&
	LOR  // ||
	NOT  // !

	LSS // <
	LEQ // <=
	GTR // >
	GEQ // >=
	EQL // ==
	NEQ // !=

	FOR
	TO
	DO
	ENDFOR
	IF
	THEN
	ELSE
	ENDIF
)

var tokenNames = map[Token]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF", IDENT: "IDENT", INT: "INT", FLOAT: "FLOAT",
	TRUE: "true", FALSE: "false",
	ASSIGN: "=", SEMI: ";", COMMA: ",", LPAREN: "(", RPAREN: ")",
	LBRACK: "[", RBRACK: "]",
	ADD: "+", SUB: "-", MUL: "*", QUO: "/",
	LAND: "&&", LOR: "||", NOT: "!",
	LSS: "<", LEQ: "<=", GTR: ">", GEQ: ">=", EQL: "==", NEQ: "!=",
	FOR: "for", TO: "to", DO: "do", ENDFOR: "endfor",
	IF: "if", THEN: "then", ELSE: "else", ENDIF: "endif",
}

func (t Token) String() string {
	if s, ok := tokenNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Token(%d)", int(t))
}

// punct maps each token of one character that no second character extends.
var punct = map[rune]Token{
	';': SEMI, ',': COMMA, '(': LPAREN, ')': RPAREN, '[': LBRACK, ']': RBRACK,
	'+': ADD, '-': SUB, '*': MUL, '/': QUO,
}

var keywords = map[string]Token{
	"for": FOR, "to": TO, "do": DO, "endfor": ENDFOR,
	"if": IF, "then": THEN, "else": ELSE, "endif": ENDIF,
	"true": TRUE, "false": FALSE,
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Precedence returns the binding strength of a binary operator (higher binds
// tighter); 0 means not a binary operator.
func (t Token) Precedence() int {
	switch t {
	case LOR:
		return 1
	case LAND:
		return 2
	case EQL, NEQ, LSS, LEQ, GTR, GEQ:
		return 3
	case ADD, SUB:
		return 4
	case MUL, QUO:
		return 5
	}
	return 0
}
