package lang

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// The paper's running example (Figure 3).
const top1Src = `
aggr = sum(db);
result = em(aggr);
output(result);
`

func TestParseTop1(t *testing.T) {
	prog, err := Parse(top1Src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stmts) != 3 {
		t.Fatalf("got %d statements", len(prog.Stmts))
	}
	a, ok := prog.Stmts[0].(*AssignStmt)
	if !ok || a.Name != "aggr" {
		t.Fatalf("stmt 0 = %#v", prog.Stmts[0])
	}
	call, ok := a.Value.(*CallExpr)
	if !ok || call.Func != "sum" {
		t.Fatalf("stmt 0 value = %#v", a.Value)
	}
	if _, ok := prog.Stmts[2].(*ExprStmt); !ok {
		t.Fatalf("stmt 2 = %#v", prog.Stmts[2])
	}
	if LineCount(prog) != 3 {
		t.Errorf("LineCount = %d, want 3", LineCount(prog))
	}
}

func TestParseForLoop(t *testing.T) {
	src := `
s = 0;
for i = 0 to 9 do
  s = s + x[i];
endfor;
output(s);
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := prog.Stmts[1].(*ForStmt)
	if !ok {
		t.Fatalf("stmt 1 = %#v", prog.Stmts[1])
	}
	if f.Var != "i" || len(f.Body) != 1 {
		t.Fatalf("for = %+v", f)
	}
}

func TestParseIfElse(t *testing.T) {
	src := `
if x > 3 && y <= 2 then
  z = 1;
else
  z = 0;
endif;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifs, ok := prog.Stmts[0].(*IfStmt)
	if !ok {
		t.Fatalf("stmt 0 = %#v", prog.Stmts[0])
	}
	if len(ifs.Then) != 1 || len(ifs.Else) != 1 {
		t.Fatalf("if branches: then=%d else=%d", len(ifs.Then), len(ifs.Else))
	}
	b, ok := ifs.Cond.(*BinaryExpr)
	if !ok || b.Op != LAND {
		t.Fatalf("cond = %#v", ifs.Cond)
	}
}

func TestParseIfNoElse(t *testing.T) {
	prog, err := Parse(`if x == 1 then y = 2; endif;`)
	if err != nil {
		t.Fatal(err)
	}
	ifs := prog.Stmts[0].(*IfStmt)
	if ifs.Else != nil {
		t.Fatal("expected nil else branch")
	}
}

func TestParseIndexedAssignAndDB(t *testing.T) {
	prog, err := Parse(`es[i] = db[i][j] * 2;`)
	if err != nil {
		t.Fatal(err)
	}
	a := prog.Stmts[0].(*AssignStmt)
	if a.Index == nil {
		t.Fatal("expected indexed assignment")
	}
	mul := a.Value.(*BinaryExpr)
	inner := mul.X.(*IndexExpr)
	if _, ok := inner.X.(*IndexExpr); !ok {
		t.Fatalf("expected nested index for db[i][j], got %#v", inner.X)
	}
}

func TestPrecedence(t *testing.T) {
	prog, err := Parse(`x = 1 + 2 * 3;`)
	if err != nil {
		t.Fatal(err)
	}
	v := prog.Stmts[0].(*AssignStmt).Value.(*BinaryExpr)
	if v.Op != ADD {
		t.Fatalf("top op = %v, want +", v.Op)
	}
	if y, ok := v.Y.(*BinaryExpr); !ok || y.Op != MUL {
		t.Fatalf("rhs = %#v, want 2*3", v.Y)
	}
	// Comparison binds looser than arithmetic.
	prog2 := MustParse(`b = a + 1 < c * 2;`)
	v2 := prog2.Stmts[0].(*AssignStmt).Value.(*BinaryExpr)
	if v2.Op != LSS {
		t.Fatalf("top op = %v, want <", v2.Op)
	}
	// Logical or binds loosest.
	prog3 := MustParse(`b = x < 1 || y > 2 && z == 3;`)
	v3 := prog3.Stmts[0].(*AssignStmt).Value.(*BinaryExpr)
	if v3.Op != LOR {
		t.Fatalf("top op = %v, want ||", v3.Op)
	}
}

func TestUnaryOperators(t *testing.T) {
	prog := MustParse(`x = -y + !b;`)
	v := prog.Stmts[0].(*AssignStmt).Value.(*BinaryExpr)
	if _, ok := v.X.(*UnaryExpr); !ok {
		t.Fatalf("lhs = %#v", v.X)
	}
	if u, ok := v.Y.(*UnaryExpr); !ok || u.Op != NOT {
		t.Fatalf("rhs = %#v", v.Y)
	}
}

func TestFloatAndBoolLiterals(t *testing.T) {
	prog := MustParse(`x = 0.5; b = true; c = false;`)
	if f, ok := prog.Stmts[0].(*AssignStmt).Value.(*FloatLit); !ok || f.Value != 0.5 {
		t.Fatalf("float lit = %#v", prog.Stmts[0].(*AssignStmt).Value)
	}
	if b, ok := prog.Stmts[1].(*AssignStmt).Value.(*BoolLit); !ok || !b.Value {
		t.Fatal("true lit wrong")
	}
}

func TestComments(t *testing.T) {
	src := `
// line comment
x = 1; /* block
comment */ y = 2;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stmts) != 2 {
		t.Fatalf("got %d statements", len(prog.Stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`x = ;`,
		`for i = 0 to 3 do x = 1;`,  // missing endfor
		`if x then y = 1;`,          // missing endif
		`x = (1 + 2;`,               // unbalanced paren
		`x = a[1;`,                  // unbalanced bracket
		`x = 1 @ 2;`,                // illegal char
		`sum();`,                    // wrong arity for builtin
		`em(a, b, c);`,              // too many args
		`x = /* unterminated`,       // unterminated comment
		`x = 99999999999999999999;`, // integer overflow
		`x = 1 y = 2;`,              // missing separator
		`x[1][2] = 3;`,              // assignment to an index of an index
		`f(x) = 1;`,                 // assignment to a call
		`x = y = 1;`,                // chained assignment
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse(`x = ;`)
}

// Figure 4 left: the full exponentiation-based em written in the language.
func TestParseEMExponentiateProgram(t *testing.T) {
	src := `
L = max(s) - 11;
for i = 0 to len(s) - 1 do
  if s[i] >= L then
    es[i] = exp((s[i] - L) * eps / (2 * sens));
  else
    es[i] = 0;
  endif;
endfor;
r = sampleUniform(sum(es));
cum[0] = 0;
for i = 0 to len(s) - 1 do
  cum[i + 1] = cum[i] + es[i];
  if r >= cum[i] && r < cum[i + 1] then
    result = declassify(i);
  endif;
endfor;
output(result);
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stmts) != 6 {
		t.Fatalf("got %d top-level statements", len(prog.Stmts))
	}
}

// Round-trip: Format output re-parses to the same formatted text.
func TestFormatRoundTrip(t *testing.T) {
	srcs := []string{
		top1Src,
		`for i = 0 to 9 do if x[i] > m then m = x[i]; endif; endfor; output(declassify(m));`,
		`x = (1 + 2) * 3 - -4; y = a && (b || !c);`,
	}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		f1 := Format(p1)
		p2, err := Parse(f1)
		if err != nil {
			t.Fatalf("formatted output does not re-parse: %v\n%s", err, f1)
		}
		f2 := Format(p2)
		if f1 != f2 {
			t.Errorf("format not stable:\n%s\nvs\n%s", f1, f2)
		}
	}
}

// Property: formatting a randomly-shaped arithmetic expression and reparsing
// preserves the formatted form (idempotent round-trip).
func TestQuickFormatIdempotent(t *testing.T) {
	ops := []string{"+", "-", "*", "/"}
	f := func(a, b, c uint8, op1, op2 uint8) bool {
		src := "x = " +
			"(" + itoa(int(a)) + " " + ops[op1%4] + " " + itoa(int(b)) + ")" +
			" " + ops[op2%4] + " " + itoa(int(c)) + ";"
		p1, err := Parse(src)
		if err != nil {
			return false
		}
		f1 := Format(p1)
		p2, err := Parse(f1)
		if err != nil {
			return false
		}
		return Format(p2) == f1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}

func TestWalkAndWalkExprs(t *testing.T) {
	prog := MustParse(`
for i = 0 to 3 do
  if x > 1 then y = em(s); endif;
endfor;
`)
	var stmts, exprs int
	Walk(prog.Stmts, func(Stmt) { stmts++ })
	WalkExprs(prog.Stmts, func(Expr) { exprs++ })
	if stmts != 3 { // for, if, assign
		t.Errorf("Walk visited %d statements, want 3", stmts)
	}
	if exprs == 0 {
		t.Error("WalkExprs visited nothing")
	}
}

func TestLineCountMatchesPaperStyle(t *testing.T) {
	// top1 is 3 lines in Table 2.
	if got := LineCount(MustParse(top1Src)); got != 3 {
		t.Errorf("top1 lines = %d, want 3", got)
	}
}

func TestFormatExprCoverage(t *testing.T) {
	prog := MustParse(`x = a[i] + f(1, 2.5, true) - -3;`)
	s := Format(prog)
	for _, want := range []string{"a[i]", "f(1, 2.5, true)", "-3"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted output missing %q:\n%s", want, s)
		}
	}
}

// Lexer coverage: every operator and delimiter tokenizes, including the
// two-character forms.
func TestLexerTokenCoverage(t *testing.T) {
	src := `a = (1 + 2 - 3) * 4 / 5;
b = a <= 1 || a >= 2 && a < 3;
c = a > 1;
d = a == 1;
e = a != 1;
f = !true;
g[0] = 2.75;`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stmts) != 7 {
		t.Fatalf("got %d statements", len(prog.Stmts))
	}
}

func TestLexerRejectsIllegal(t *testing.T) {
	for _, src := range []string{`x = 1 # 2;`, `x = 'a';`, `x = 1 & 2;`, `x = 1 | 2;`} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted illegal token", src)
		}
	}
}

func TestDeepNesting(t *testing.T) {
	src := `
total = 0;
for i = 0 to 2 do
  for j = 0 to 2 do
    if i == j then
      total = total + 1;
    else
      if i > j then
        total = total + 10;
      endif;
    endif;
  endfor;
endfor;
output(total);`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var depth, maxDepth int
	var walk func(ss []Stmt, d int)
	walk = func(ss []Stmt, d int) {
		if d > maxDepth {
			maxDepth = d
		}
		for _, s := range ss {
			switch st := s.(type) {
			case *ForStmt:
				walk(st.Body, d+1)
			case *IfStmt:
				walk(st.Then, d+1)
				walk(st.Else, d+1)
			}
		}
	}
	walk(prog.Stmts, 0)
	_ = depth
	if maxDepth < 3 {
		t.Errorf("nesting depth = %d, want ≥ 3", maxDepth)
	}
}

// TestNestingCap refuses every way of nesting 10^5 levels deep with
// ErrTooDeep, before anything recurses that far, and parses each form at
// a depth real queries never reach but well inside the cap.
func TestNestingCap(t *testing.T) {
	forms := []struct {
		name string
		src  func(n int) string
	}{
		{"parens", func(n int) string { return "x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";" }},
		{"unary", func(n int) string { return "x = " + strings.Repeat("-", n) + "1;" }},
		{"binary", func(n int) string { return "x = 1" + strings.Repeat(" + 1", n) + ";" }},
		{"calls", func(n int) string { return "x = " + strings.Repeat("abs(", n) + "1" + strings.Repeat(")", n) + ";" }},
		{"indices", func(n int) string { return "x = " + strings.Repeat("a[", n) + "0" + strings.Repeat("]", n) + ";" }},
		{"for", func(n int) string {
			return strings.Repeat("for i = 0 to 1 do ", n) + "x = 1;" + strings.Repeat(" endfor;", n)
		}},
		{"if", func(n int) string {
			return strings.Repeat("if true then ", n) + "x = 1;" + strings.Repeat(" endif;", n)
		}},
	}
	for _, f := range forms {
		if _, err := Parse(f.src(100_000)); !errors.Is(err, ErrTooDeep) {
			t.Errorf("%s, 10^5 deep: %v, want ErrTooDeep", f.name, err)
		}
		if _, err := Parse(f.src(maxDepth / 4)); err != nil {
			t.Errorf("%s, %d deep: %v", f.name, maxDepth/4, err)
		}
	}
}

func TestPositionsPointAtErrors(t *testing.T) {
	_, err := Parse("x = 1;\ny = %;\n")
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error %q should reference line 2", err)
	}
}

// TestTokenCap parses a program of exactly maxTokens tokens and refuses one
// more with ErrTooLong at the first token past the cap, before the lexer
// reads the rest of the source.
func TestTokenCap(t *testing.T) {
	// "x = 1;" is four tokens.
	at := strings.Repeat("x = 1;", maxTokens/4)
	if _, err := Parse(at); err != nil {
		t.Fatalf("%d tokens: %v", maxTokens, err)
	}
	_, err := Parse(at + "x" + strings.Repeat(" %", 1000))
	if !errors.Is(err, ErrTooLong) {
		t.Fatalf("%d tokens then a lexical error: %v, want ErrTooLong", maxTokens+1, err)
	}
	if want := fmt.Sprintf("1:%d:", len(at)+1); !strings.HasPrefix(err.Error(), want) {
		t.Errorf("refusal %q is not at the first token past the cap, %s", err, want)
	}
}

// TestFirstErrorWins: the parser pulls tokens as it goes, so the first error
// in the source is the one reported, whether the lexer or the parser meets
// it.
func TestFirstErrorWins(t *testing.T) {
	for src, want := range map[string]string{
		"x = ;\ny = %;": "1:5: unexpected ; in expression",
		"x = %;\ny = ;": `1:5: unexpected character "%"`,
		"x = 1 1;\n/* ": "1:7: expected ';' after statement, found INT",
	} {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %q", src, err, want)
		}
	}
}
