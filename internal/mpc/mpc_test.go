package mpc

import (
	"slices"
	"testing"
	"testing/quick"

	"arboretum/internal/fixed"
)

func newEngine(t testing.TB, m int) *Engine {
	e, err := NewEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineTooSmall(t *testing.T) {
	if _, err := NewEngine(2); err == nil {
		t.Fatal("2-party engine accepted in honest-majority setting")
	}
}

func TestFieldHelpers(t *testing.T) {
	if toField(-1) != fieldPrime-1 {
		t.Error("toField(-1) wrong")
	}
	if fromField(toField(-123456)) != -123456 {
		t.Error("roundtrip of negative value failed")
	}
	if fromField(toField(1<<47)) != 1<<47 {
		t.Error("roundtrip of large positive failed")
	}
	if fmul(finv(7), 7) != 1 {
		t.Error("finv wrong")
	}
}

func TestInputOpen(t *testing.T) {
	e := newEngine(t, 5)
	for _, v := range []int64{0, 1, -1, 424242, -987654321, 1 << 46, -(1 << 46)} {
		s, err := e.Input(0, v)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Open(s); got != v {
			t.Errorf("Open(Input(%d)) = %d", v, got)
		}
	}
	if _, err := e.Input(9, 1); err == nil {
		t.Error("out-of-range owner accepted")
	}
}

func TestLinearOps(t *testing.T) {
	e := newEngine(t, 5)
	a, _ := e.Input(0, 100)
	b, _ := e.Input(1, 42)
	if got := e.Open(e.Add(a, b)); got != 142 {
		t.Errorf("Add = %d", got)
	}
	if got := e.Open(e.Sub(a, b)); got != 58 {
		t.Errorf("Sub = %d", got)
	}
	if got := e.Open(e.AddConst(a, -30)); got != 70 {
		t.Errorf("AddConst = %d", got)
	}
	if got := e.Open(e.MulConst(a, -3)); got != -300 {
		t.Errorf("MulConst = %d", got)
	}
}

func TestBeaverMul(t *testing.T) {
	e := newEngine(t, 5)
	cases := [][2]int64{{6, 7}, {-6, 7}, {-6, -7}, {0, 99}, {1 << 20, 1 << 20}}
	for _, c := range cases {
		a, _ := e.Input(0, c[0])
		b, _ := e.Input(1, c[1])
		if got := e.Open(e.Mul(a, b)); got != c[0]*c[1] {
			t.Errorf("Mul(%d, %d) = %d", c[0], c[1], got)
		}
	}
}

func TestMulConsumesTriples(t *testing.T) {
	e := newEngine(t, 5)
	a, _ := e.Input(0, 3)
	b, _ := e.Input(1, 4)
	before := e.Stats().Triples
	e.Mul(a, b)
	if e.Stats().Triples != before+1 {
		t.Error("Mul did not consume exactly one triple")
	}
}

func TestSum(t *testing.T) {
	e := newEngine(t, 5)
	var vals []Secret
	want := int64(0)
	for i := int64(1); i <= 10; i++ {
		s, _ := e.Input(0, i)
		vals = append(vals, s)
		want += i
	}
	sum, err := e.Sum(vals)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Open(sum); got != want {
		t.Errorf("Sum = %d, want %d", got, want)
	}
	if _, err := e.Sum(nil); err == nil {
		t.Error("empty sum accepted")
	}
}

func TestSelect(t *testing.T) {
	e := newEngine(t, 5)
	x, _ := e.Input(0, 111)
	y, _ := e.Input(0, 222)
	one, _ := e.Input(0, 1)
	zero, _ := e.Input(0, 0)
	if got := e.Open(e.Select(one, x, y)); got != 111 {
		t.Errorf("Select(1) = %d", got)
	}
	if got := e.Open(e.Select(zero, x, y)); got != 222 {
		t.Errorf("Select(0) = %d", got)
	}
}

func TestMod2m(t *testing.T) {
	e := newEngine(t, 5)
	cases := []struct {
		v int64
		m int
	}{
		{100, 4}, {16, 4}, {15, 4}, {0, 8}, {-1, 4}, {-100, 6}, {1 << 40, 16},
	}
	for _, c := range cases {
		s, _ := e.Input(0, c.v)
		r, err := e.Mod2m(s, c.m)
		if err != nil {
			t.Fatal(err)
		}
		want := ((c.v % (1 << c.m)) + (1 << c.m)) % (1 << c.m)
		if got := e.Open(r); got != want {
			t.Errorf("Mod2m(%d, %d) = %d, want %d", c.v, c.m, got, want)
		}
	}
	s, _ := e.Input(0, 1)
	if _, err := e.Mod2m(s, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := e.Mod2m(s, ValueBits); err == nil {
		t.Error("m=ValueBits accepted")
	}
}

func TestTrunc(t *testing.T) {
	e := newEngine(t, 5)
	cases := []struct {
		v    int64
		m    int
		want int64
	}{
		{100, 2, 25}, {101, 2, 25}, {-8, 2, -2}, {-9, 2, -3}, {1 << 30, 16, 1 << 14},
	}
	for _, c := range cases {
		s, _ := e.Input(0, c.v)
		r, err := e.Trunc(s, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Open(r); got != c.want {
			t.Errorf("Trunc(%d, %d) = %d, want %d", c.v, c.m, got, c.want)
		}
	}
}

func TestLTZ(t *testing.T) {
	e := newEngine(t, 5)
	cases := []struct {
		v    int64
		want int64
	}{
		{-1, 1}, {1, 0}, {0, 0}, {-(1 << 40), 1}, {1 << 40, 0}, {-7, 1},
	}
	for _, c := range cases {
		s, _ := e.Input(0, c.v)
		r, err := e.LTZ(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Open(r); got != c.want {
			t.Errorf("LTZ(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLess(t *testing.T) {
	e := newEngine(t, 5)
	cases := []struct {
		a, b, want int64
	}{
		{1, 2, 1}, {2, 1, 0}, {5, 5, 0}, {-10, 3, 1}, {3, -10, 0}, {-5, -4, 1},
	}
	for _, c := range cases {
		a, _ := e.Input(0, c.a)
		b, _ := e.Input(1, c.b)
		r, err := e.Less(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Open(r); got != c.want {
			t.Errorf("Less(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: comparisons agree with native ints for random 32-bit values.
func TestQuickLess(t *testing.T) {
	e := newEngine(t, 3)
	f := func(a, b int32) bool {
		sa, err1 := e.Input(0, int64(a))
		sb, err2 := e.Input(1, int64(b))
		if err1 != nil || err2 != nil {
			return false
		}
		r, err := e.Less(sa, sb)
		if err != nil {
			return false
		}
		want := int64(0)
		if a < b {
			want = 1
		}
		return e.Open(r) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMaxArgmax(t *testing.T) {
	e := newEngine(t, 5)
	vals := []int64{12, -4, 99, 99, 7, 0}
	secrets := make([]Secret, len(vals))
	for i, v := range vals {
		secrets[i], _ = e.Input(0, v)
	}
	mx, err := e.Max(secrets)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Open(mx); got != 99 {
		t.Errorf("Max = %d", got)
	}
	am, err := e.Argmax(secrets)
	if err != nil {
		t.Fatal(err)
	}
	// Strict Less keeps the first of equal maxima.
	if got := e.Open(am); got != 2 {
		t.Errorf("Argmax = %d, want 2", got)
	}
	if _, err := e.Max(nil); err == nil {
		t.Error("empty Max accepted")
	}
	if _, err := e.Argmax(nil); err == nil {
		t.Error("empty Argmax accepted")
	}
}

// The em(gumbel) committee program end to end in MPC: noised scores arrive
// shared, committee computes argmax and opens only the winning index
// (Figure 5's last committee vignette).
func TestGumbelArgmaxVignette(t *testing.T) {
	e := newEngine(t, 7)
	scores := []int64{120, 260, 180}
	noise := []fixed.Fixed{fixed.FromFloat(1.5), fixed.FromFloat(-2.25), fixed.FromFloat(0.5)}
	noised := make([]Secret, len(scores))
	for i := range scores {
		s, _ := e.InputFixed(0, fixed.FromInt(scores[i]))
		n := e.JointFixed(noise[i])
		noised[i] = e.Add(s, n)
	}
	am, err := e.Argmax(noised)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Open(am); got != 1 {
		t.Errorf("argmax of noised scores = %d, want 1", got)
	}
}

func TestFixedOps(t *testing.T) {
	e := newEngine(t, 5)
	a, _ := e.InputFixed(0, fixed.FromFloat(3.5))
	b, _ := e.InputFixed(1, fixed.FromFloat(2.25))
	sum := e.Add(a, b)
	if got := e.OpenFixed(sum).Float(); got != 5.75 {
		t.Errorf("fixed add = %g", got)
	}
	prod, err := e.FixedMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := e.OpenFixed(prod).Float()
	if got < 7.874 || got > 7.876 { // 3.5 × 2.25 = 7.875
		t.Errorf("FixedMul = %g, want 7.875", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := newEngine(t, 5)
	a, _ := e.Input(0, 5)
	b, _ := e.Input(1, 6)
	s0 := e.Stats()
	if s0.Rounds != 2 {
		t.Errorf("two inputs should be two rounds, got %d", s0.Rounds)
	}
	if s0.TotalBytes != 2*8*4 {
		t.Errorf("input bytes = %d", s0.TotalBytes)
	}
	e.Mul(a, b)
	s1 := e.Stats()
	if s1.Rounds != s0.Rounds+1 {
		t.Errorf("Mul should cost one round, got %d", s1.Rounds-s0.Rounds)
	}
	if s1.Triples != 1 {
		t.Errorf("Triples = %d", s1.Triples)
	}
	if s1.DealerBytes == 0 {
		t.Error("preprocessing bytes not recorded")
	}
	if slices.Max(s1.perParty) == 0 {
		t.Error("per-party bytes not recorded")
	}
	// Comparison consumes random bits.
	lt, err := e.Less(a, b)
	if err != nil {
		t.Fatal(err)
	}
	_ = e.Open(lt)
	if e.Stats().RandBits == 0 {
		t.Error("comparison consumed no random bits")
	}
}

func TestJointSecretHidesValue(t *testing.T) {
	// With T = m/2+1 = 3, any 2 shares are information-theoretically
	// independent of the secret; structurally verify two sharings of the
	// same value differ.
	e := newEngine(t, 5)
	a := e.JointSecret(42)
	b := e.JointSecret(42)
	same := true
	for i := range a.shares {
		if a.shares[i] != b.shares[i] {
			same = false
		}
	}
	if same {
		t.Fatal("two sharings identical; randomization broken")
	}
	if got := e.Open(a); got != 42 {
		t.Errorf("JointSecret opened to %d", got)
	}
}

func TestLargeCommittee(t *testing.T) {
	// The paper's committees have ~40 members.
	e := newEngine(t, 41)
	a, _ := e.Input(0, 1234)
	b, _ := e.Input(40, -234)
	if got := e.Open(e.Add(a, b)); got != 1000 {
		t.Errorf("41-party add = %d", got)
	}
	lt, err := e.Less(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Open(lt); got != 1 {
		t.Errorf("41-party Less = %d", got)
	}
}

func BenchmarkMul40Parties(b *testing.B) {
	e, _ := NewEngine(41)
	x, _ := e.Input(0, 123)
	y, _ := e.Input(1, 456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Mul(x, y)
	}
}

func BenchmarkLess40Parties(b *testing.B) {
	e, _ := NewEngine(41)
	x, _ := e.Input(0, 123)
	y, _ := e.Input(1, 456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Less(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMul5Parties, BenchmarkLess5Parties and BenchmarkArgmax32 run at
// the runtime's shape: 5-party committees, and top-k over 32 categories.
func BenchmarkMul5Parties(b *testing.B) {
	e, _ := NewEngine(5)
	x, _ := e.Input(0, 123)
	y, _ := e.Input(1, 456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Mul(x, y)
	}
}

func BenchmarkLess5Parties(b *testing.B) {
	e, _ := NewEngine(5)
	x, _ := e.Input(0, 123)
	y, _ := e.Input(1, 456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Less(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArgmax32(b *testing.B) {
	e, _ := NewEngine(5)
	vals := make([]Secret, 32)
	for i := range vals {
		vals[i], _ = e.Input(i%5, int64(i*37%101))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Argmax(vals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArgmax10(b *testing.B) {
	e, _ := NewEngine(11)
	vals := make([]Secret, 10)
	for i := range vals {
		vals[i], _ = e.Input(0, int64(i*7%13))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Argmax(vals); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFixedExp(t *testing.T) {
	e := newEngine(t, 5)
	for _, x := range []float64{0, 0.5, 1, 2, 3.5, 5} {
		s, _ := e.InputFixed(0, fixed.FromFloat(x))
		r, err := e.FixedExp(s)
		if err != nil {
			t.Fatal(err)
		}
		got := e.OpenFixed(r).Float()
		want := mathExp(x)
		if got < want*0.98-0.01 || got > want*1.02+0.01 {
			t.Errorf("FixedExp(%g) = %g, want ~%g", x, got, want)
		}
	}
}

func mathExp(x float64) float64 {
	// Avoid importing math just for the test: e^x by repeated squaring of
	// the fixed-point reference implementation.
	return fixed.Exp(fixed.FromFloat(x)).Float()
}

// Transfer moves a secret between committees of different sizes while
// preserving its value (the VSR hand-off of Section 5.4).
func TestTransferBetweenEngines(t *testing.T) {
	from := newEngine(t, 5)
	to := newEngine(t, 9)
	for _, v := range []int64{0, 42, -99999, 1 << 40} {
		s, err := from.Input(0, v)
		if err != nil {
			t.Fatal(err)
		}
		moved := Transfer(from, s, to)
		if got := to.Open(moved); got != v {
			t.Errorf("Transfer(%d) opened to %d", v, got)
		}
	}
	// The receiving committee can keep computing on the moved value.
	a, _ := from.Input(0, 10)
	b, _ := from.Input(1, 32)
	ma, mb := Transfer(from, a, to), Transfer(from, b, to)
	if got := to.Open(to.Add(ma, mb)); got != 42 {
		t.Errorf("post-transfer add = %d", got)
	}
	lt, err := to.Less(ma, mb)
	if err != nil {
		t.Fatal(err)
	}
	if got := to.Open(lt); got != 1 {
		t.Errorf("post-transfer compare = %d", got)
	}
	// Traffic is recorded on both sides.
	if from.Stats().TotalBytes == 0 {
		t.Error("transfer sent no bytes")
	}
}

// Transferred sharings are re-randomized: the new committee's shares are not
// a function of the old polynomial alone.
func TestTransferRerandomizes(t *testing.T) {
	from := newEngine(t, 5)
	to := newEngine(t, 5)
	s, _ := from.Input(0, 7)
	m1 := Transfer(from, s, to)
	m2 := Transfer(from, s, to)
	same := true
	for i := range m1.shares {
		if m1.shares[i] != m2.shares[i] {
			same = false
		}
	}
	if same {
		t.Error("two transfers produced identical sharings")
	}
}

// InputFixed shares a Q30.16 fixed-point value from one party.
func (e *Engine) InputFixed(owner int, v fixed.Fixed) (Secret, error) {
	return e.Input(owner, int64(v))
}
