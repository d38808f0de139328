package runtime

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Error-path coverage for the interpreter: programs that certify but hit
// runtime constraints must fail with actionable errors, not panic.
func TestInterpreterErrorPaths(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{
			"index out of range",
			`aggr = sum(db);
x = laplace(aggr[99], 1.0);
output(declassify(x));`,
			"out of range",
		},
		{
			"db outside sum",
			`x = db;
output(1);`,
			"db can only appear",
		},
		{
			"division by zero",
			`x = 1 / 0;
output(x);`,
			"division by zero",
		},
		{
			"log2 of zero",
			`x = log2(0);
output(x);`,
			"log2",
		},
		{
			"array builtin bounds",
			`a = array(0 - 5);
output(1);`,
			"array size",
		},
		{
			"negative element index",
			`a[0 - 1] = 3;
output(1);`,
			"array index -1 outside",
		},
		{
			"element index past the array bound",
			`a[2000000] = 3;
output(1);`,
			"array index 2000000 outside",
		},
		{
			"array stored in an element",
			`aggr = sum(db);
a[0] = aggr;
output(1);`,
			"cannot store a cipher array in an element of a",
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := smallDeployment(t, 64, 4, func(cfg *Config) { cfg.BudgetEpsilon = 1e9 })
			_, err := d.Run(c.src, RunOptions{})
			if err == nil {
				t.Fatalf("%s: no error", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("%s: error %q does not mention %q", c.name, err, c.wantErr)
			}
		})
	}
}

// Programs rejected before execution: certification and type errors.
func TestRunRejectsBadPrograms(t *testing.T) {
	d := smallDeployment(t, 64, 4)
	bad := map[string]string{
		"syntax":        `x = ;`,
		"type":          `x = true + 1; output(x);`,
		"privacy":       `aggr = sum(db); output(aggr[0]);`,
		"no output":     `aggr = sum(db);`,
		"undefined var": `output(nosuchvar);`,
	}
	for name, src := range bad {
		if _, err := d.Run(src, RunOptions{}); err == nil {
			t.Errorf("%s program executed", name)
		}
	}
}

// Loops, conditionals, clip/abs/exp/sqrt/len/gumbel on public values: the
// language surface that runs entirely outside the crypto.
func TestPublicComputationSurface(t *testing.T) {
	d := smallDeployment(t, 64, 2, func(cfg *Config) { cfg.BudgetEpsilon = 1e9 })
	src := `aggr = sum(db);
n = laplace(aggr[0], 5.0);
c = declassify(n);
acc = 0;
for i = 1 to 4 do
  acc = acc + i * i;
endfor;
if acc == 30 then
  acc = acc + clip(100, 0, 50);
else
  acc = 0 - 1;
endif;
v = abs(0 - 7) + len(aggr);
e = exp(1.0);
s = sqrt(16);
g = gumbel(0.0);
output(acc);
output(v);
output(e);
output(s);
output(c + g);`
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs[0].Int(); got != 80 { // 30 + clip(100,0,50)=50
		t.Errorf("acc = %d, want 80", got)
	}
	if got := res.Outputs[1].Int(); got != 9 { // |−7| + len (2 categories)
		t.Errorf("v = %d, want 9", got)
	}
	if e := res.Outputs[2].Float(); e < 2.70 || e > 2.73 {
		t.Errorf("exp(1) = %g", e)
	}
	if s := res.Outputs[3].Float(); s != 4 {
		t.Errorf("sqrt(16) = %g", s)
	}
}

// Shared-value clipping runs comparisons inside the committee MPC: clip a
// secret max into a range, then noise and release. (Declassifying a raw
// comparison of sensitive data is rejected by the certifier — correctly —
// so the comparisons are exercised through clip's compare-selects.)
func TestSharedClipComparisons(t *testing.T) {
	d := smallDeployment(t, 64, 2, func(cfg *Config) { cfg.BudgetEpsilon = 1e9 })
	src := `aggr = sum(db);
m = max(aggr);
capped = clip(m, 0, 20);
n = laplace(capped, 10.0);
output(declassify(n));`
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 64 devices over 2 categories: the true max is ≥ 32, clipped to 20,
	// plus small Laplace(1/10) noise.
	got := res.Outputs[0].Float()
	if got < 17 || got > 23 {
		t.Errorf("clipped noised max = %g, want ~20", got)
	}
	if d.Metrics.MPCComparisons < 3 { // max tournament + two clip compares
		t.Errorf("comparisons = %d, want ≥ 3", d.Metrics.MPCComparisons)
	}
}

// A Paillier plaintext is an integer, so the AHE path may only add or
// multiply by an integral public operand; a fractional one goes to the
// committee MPC, where values are fixed-point. 64 devices all in category 0
// and ε = 1000, so the noise is far below the tolerance.
func TestFractionalPublicOperand(t *testing.T) {
	d := smallDeployment(t, 64, 2, func(cfg *Config) {
		cfg.BudgetEpsilon = 1e9
		cfg.Data = func(int) int { return 0 }
	})
	for _, c := range []struct {
		expr string
		want float64
	}{
		{"aggr[0] * 0.5", 32},
		{"aggr[0] * 2.5", 160},
		{"1.5 * aggr[0]", 96},
		{"aggr[0] + 0.5", 64.5},
		{"0.25 + aggr[0]", 64.25},
		{"aggr[0] - 0.5", 63.5},
		{"aggr[0] * 2", 128},
	} {
		res, err := d.Run("aggr = sum(db);\nx = laplace("+c.expr+", 1000);\noutput(declassify(x));", RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if got := res.Outputs[0].Float(); math.Abs(got-c.want) > 0.1 {
			t.Errorf("%s released %g, want %g", c.expr, got, c.want)
		}
	}
}

// A public array holding a fractional value that takes a ciphertext element
// is promoted to shares, not to ciphertexts of its truncated values.
func TestPromoteFractionalArray(t *testing.T) {
	d := smallDeployment(t, 64, 2, func(cfg *Config) {
		cfg.BudgetEpsilon = 1e9
		cfg.Data = func(int) int { return 0 }
	})
	res, err := d.Run(`aggr = sum(db);
a[0] = 10.5;
a[1] = aggr[0];
x = laplace(a[0] + a[1], 1000);
output(declassify(x));`, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs[0].Float(); math.Abs(got-74.5) > 0.1 {
		t.Errorf("10.5 + aggr[0] released %g, want 74.5", got)
	}
}

// An array element of another kind than the array's joins it: a shared
// array shares a public element, and a cipher array encrypts an integral
// one but moves to shares for a fractional or shared one. 64 devices all in
// category 0, so aggr[0] = max(aggr) = 64, and ε = 1000.
func TestMixedKindArrays(t *testing.T) {
	d := smallDeployment(t, 64, 2, func(cfg *Config) {
		cfg.BudgetEpsilon = 1e9
		cfg.Data = func(int) int { return 0 }
	})
	for _, c := range []struct {
		first, second string
		want          float64
	}{
		{"aggr[0]", "3", 67},
		{"max(aggr)", "3", 67},
		{"aggr[0]", "2.5", 66.5},
		{"aggr[0]", "max(aggr)", 128},
	} {
		src := fmt.Sprintf("aggr = sum(db);\na[0] = %s;\na[1] = %s;\nx = laplace(a[0] + a[1], 1000);\noutput(declassify(x));", c.first, c.second)
		res, err := d.Run(src, RunOptions{})
		if err != nil {
			t.Fatalf("a[0] = %s; a[1] = %s: %v", c.first, c.second, err)
		}
		if got := res.Outputs[0].Float(); math.Abs(got-c.want) > 0.1 {
			t.Errorf("a[0] = %s; a[1] = %s released %g, want %g", c.first, c.second, got, c.want)
		}
	}
}
