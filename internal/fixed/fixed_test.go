package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromIntRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 42, -42, 1 << 29, -(1 << 29)} {
		if got := FromInt(v).Int(); got != v {
			t.Errorf("FromInt(%d).Int() = %d", v, got)
		}
	}
}

func TestFromFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 0.5, -0.5, 3.14159, -2.71828, 1000.25} {
		got := FromFloat(v).Float()
		if math.Abs(got-v) > 1.0/float64(One) {
			t.Errorf("FromFloat(%g).Float() = %g", v, got)
		}
	}
}

func TestFromFloatNaN(t *testing.T) {
	if got := FromFloat(math.NaN()); got != 0 {
		t.Errorf("FromFloat(NaN) = %v, want 0", got)
	}
}

func TestSaturation(t *testing.T) {
	if got := FromFloat(1e12); got != Max {
		t.Errorf("FromFloat(1e12) = %v, want Max", got)
	}
	if got := FromFloat(-1e12); got != Min {
		t.Errorf("FromFloat(-1e12) = %v, want Min", got)
	}
	if got := Max.Add(One); got != Max {
		t.Errorf("Max+1 = %v, want saturation at Max", got)
	}
	if got := Min.Sub(One); got != Min {
		t.Errorf("Min-1 = %v, want saturation at Min", got)
	}
	if got := Max.Mul(FromInt(2)); got != Max {
		t.Errorf("Max*2 = %v, want Max", got)
	}
	if got := Max.Mul(FromInt(-2)); got != Min {
		t.Errorf("Max*-2 = %v, want Min", got)
	}
}

func TestMulMatchesFloat(t *testing.T) {
	cases := [][2]float64{
		{1.5, 2.0}, {-1.5, 2.0}, {3.25, -4.75}, {-0.001, -1000},
		{100.5, 200.25}, {0, 5}, {1, 1},
	}
	for _, c := range cases {
		// Compare against the product of the quantized inputs so that input
		// quantization error does not count against Mul itself.
		x, y := FromFloat(c[0]), FromFloat(c[1])
		got := x.Mul(y).Float()
		want := x.Float() * y.Float()
		if math.Abs(got-want) > 1e-3 {
			t.Errorf("%g * %g = %g, want %g", c[0], c[1], got, want)
		}
	}
}

func TestDivMatchesFloat(t *testing.T) {
	cases := [][2]float64{
		{1.5, 2.0}, {-10, 4}, {3.25, -0.5}, {1000, 3}, {0.125, 0.25},
	}
	for _, c := range cases {
		got := FromFloat(c[0]).Div(FromFloat(c[1])).Float()
		want := c[0] / c[1]
		if math.Abs(got-want) > 1e-3 {
			t.Errorf("%g / %g = %g, want %g", c[0], c[1], got, want)
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	One.Div(0)
}

func TestFromRatio(t *testing.T) {
	if got := FromRatio(1, 2).Float(); got != 0.5 {
		t.Errorf("FromRatio(1,2) = %g", got)
	}
	if got := FromRatio(-3, 4).Float(); got != -0.75 {
		t.Errorf("FromRatio(-3,4) = %g", got)
	}
}

// Property: for values small enough to avoid saturation, fixed-point
// arithmetic tracks float arithmetic within quantization error.
func TestQuickMulAgainstFloat(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := float64(a)/16, float64(b)/16
		got := FromFloat(x).Mul(FromFloat(y)).Float()
		return math.Abs(got-x*y) <= 0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: addition is commutative and associative for in-range values.
func TestQuickAddAlgebra(t *testing.T) {
	f := func(a, b, c int32) bool {
		x, y, z := Fixed(a), Fixed(b), Fixed(c)
		if x.Add(y) != y.Add(x) {
			return false
		}
		return x.Add(y).Add(z) == x.Add(y.Add(z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Neg is an involution and Sub(a,b) = Add(a, Neg(b)) in range.
func TestQuickNegSub(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Fixed(a), Fixed(b)
		return x.Neg().Neg() == x && x.Sub(y) == x.Add(y.Neg())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExp2(t *testing.T) {
	cases := []float64{0, 1, 2, 10, -1, -2, 0.5, -0.5, 3.75, 14.2, -10.5}
	for _, x := range cases {
		got := Exp2(FromFloat(x)).Float()
		want := math.Exp2(x)
		tol := math.Max(want*1e-4, 1e-4)
		if math.Abs(got-want) > tol {
			t.Errorf("Exp2(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestExp2Saturates(t *testing.T) {
	if got := Exp2(FromInt(40)); got != Max {
		t.Errorf("Exp2(40) = %v, want Max", got)
	}
	if got := Exp2(FromInt(-40)); got != 0 {
		t.Errorf("Exp2(-40) = %v, want 0", got)
	}
}

func TestExp(t *testing.T) {
	for _, x := range []float64{0, 1, -1, 2.5, -3, 5} {
		got := Exp(FromFloat(x)).Float()
		want := math.Exp(x)
		tol := math.Max(want*1e-3, 1e-3)
		if math.Abs(got-want) > tol {
			t.Errorf("Exp(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestLog2(t *testing.T) {
	for _, x := range []float64{1, 2, 4, 0.5, 10, 1000, 0.001} {
		fx := FromFloat(x)
		got := Log2(fx).Float()
		want := math.Log2(fx.Float()) // quantized input is the ground truth
		if math.Abs(got-want) > 1e-3 {
			t.Errorf("Log2(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestLog2NonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log2(0) did not panic")
		}
	}()
	Log2(0)
}

func TestLn(t *testing.T) {
	for _, x := range []float64{1, math.E, 10, 0.1} {
		got := Ln(FromFloat(x)).Float()
		want := math.Log(x)
		if math.Abs(got-want) > 1e-3 {
			t.Errorf("Ln(%g) = %g, want %g", x, got, want)
		}
	}
}

// Property: Exp2 and Log2 are inverses on a reasonable range.
func TestQuickExpLogInverse(t *testing.T) {
	f := func(raw uint16) bool {
		// x in (0, 16): positive, comfortably in range.
		x := FromFloat(float64(raw%16000)/1000 + 0.001)
		back := Log2(Exp2(x))
		return back.Sub(x).Abs().Float() < 0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCmp(t *testing.T) {
	if FromInt(1).Cmp(FromInt(2)) != -1 ||
		FromInt(2).Cmp(FromInt(1)) != 1 ||
		FromInt(1).Cmp(FromInt(1)) != 0 {
		t.Error("Cmp ordering wrong")
	}
}

func TestAbsFrac(t *testing.T) {
	if FromFloat(-2.5).Abs().Float() != 2.5 {
		t.Error("Abs(-2.5) wrong")
	}
}

func TestString(t *testing.T) {
	if s := FromFloat(1.5).String(); s != "1.5" {
		t.Errorf("String() = %q", s)
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := FromFloat(3.14159), FromFloat(2.71828)
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func BenchmarkExp2(b *testing.B) {
	x := FromFloat(7.32)
	for i := 0; i < b.N; i++ {
		_ = Exp2(x)
	}
}

func TestSqrt(t *testing.T) {
	for _, v := range []float64{0, 1, 2, 4, 16, 100, 0.25, 0.0625, 123456.789} {
		got := Sqrt(FromFloat(v)).Float()
		want := math.Sqrt(v)
		tol := math.Max(want*1e-4, 2.0/float64(One))
		if math.Abs(got-want) > tol {
			t.Errorf("Sqrt(%g) = %g, want %g", v, got, want)
		}
	}
}

func TestSqrtNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sqrt(-1) did not panic")
		}
	}()
	Sqrt(FromInt(-1))
}

// Property: Sqrt(x)² ≈ x over the representable positive range.
func TestQuickSqrtInverse(t *testing.T) {
	f := func(raw uint32) bool {
		x := Fixed(raw)
		r := Sqrt(x)
		back := r.Mul(r)
		diff := back.Sub(x).Abs().Float()
		return diff <= math.Max(1e-3, x.Float()*1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Cmp returns −1, 0, or +1.
func (f Fixed) Cmp(g Fixed) int {
	switch {
	case f < g:
		return -1
	case f > g:
		return 1
	default:
		return 0
	}
}
