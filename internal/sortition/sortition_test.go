package sortition

import (
	"fmt"
	"math"
	"testing"
)

func makeTickets(n int, block []byte, queryID uint64) []Ticket {
	ts := make([]Ticket, n)
	for i := range ts {
		key := []byte(fmt.Sprintf("device-key-%d", i))
		ts[i] = MakeTicket(key, i, block, queryID)
	}
	return ts
}

func TestTicketDeterminism(t *testing.T) {
	a := MakeTicket([]byte("k"), 1, []byte("block"), 7)
	b := MakeTicket([]byte("k"), 1, []byte("block"), 7)
	if a.Hash != b.Hash {
		t.Fatal("same inputs produced different tickets")
	}
	c := MakeTicket([]byte("k"), 1, []byte("block"), 8)
	if a.Hash == c.Hash {
		t.Fatal("different query IDs produced identical tickets")
	}
	d := MakeTicket([]byte("k2"), 1, []byte("block"), 7)
	if a.Hash == d.Hash {
		t.Fatal("different keys produced identical tickets")
	}
}

func TestSelectFormsDisjointCommittees(t *testing.T) {
	ts := makeTickets(100, []byte("b0"), 1)
	cs, err := Select(ts, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 4 {
		t.Fatalf("got %d committees", len(cs))
	}
	seen := map[int]bool{}
	for _, c := range cs {
		if len(c) != 10 {
			t.Fatalf("committee size %d", len(c))
		}
		for _, d := range c {
			if seen[d] {
				t.Fatalf("device %d on two committees", d)
			}
			seen[d] = true
		}
	}
}

func TestSelectDeterministic(t *testing.T) {
	ts := makeTickets(50, []byte("b0"), 1)
	a, _ := Select(ts, 2, 5)
	b, _ := Select(ts, 2, 5)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("selection not deterministic")
			}
		}
	}
}

func TestSelectChangesWithBlock(t *testing.T) {
	a, _ := Select(makeTickets(200, []byte("b0"), 1), 1, 10)
	b, _ := Select(makeTickets(200, []byte("b1"), 1), 1, 10)
	same := true
	for i := range a[0] {
		if a[0][i] != b[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different blocks selected identical committees")
	}
}

func TestSelectErrors(t *testing.T) {
	ts := makeTickets(5, []byte("b"), 1)
	if _, err := Select(ts, 2, 3); err == nil {
		t.Error("insufficient tickets accepted")
	}
	if _, err := Select(ts, 0, 3); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := Select(ts, 1, 0); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestPerRoundFailure(t *testing.T) {
	sp := DefaultSizeParams
	p1 := sp.PerRoundFailure()
	// p = 1 − (1 − p1)^R must recover P.
	back := -math.Expm1(float64(sp.R) * math.Log1p(-p1))
	if math.Abs(back-sp.P)/sp.P > 1e-6 {
		t.Errorf("round-trip p = %g, want %g", back, sp.P)
	}
	one := SizeParams{F: 0.03, G: 0.15, P: 1e-8, R: 1}
	if one.PerRoundFailure() != 1e-8 {
		t.Error("R=1 should return P unchanged")
	}
}

// The paper reports committee sizes of about 40 members at the default
// parameters (f = 3%, g = 15%, 10^-8 over 1,000 queries).
func TestMinCommitteeSizePaperSetting(t *testing.T) {
	m, err := MinCommitteeSize(1, DefaultSizeParams)
	if err != nil {
		t.Fatal(err)
	}
	if m < 25 || m > 60 {
		t.Errorf("MinCommitteeSize(c=1) = %d, paper reports ~40", m)
	}
	// topK uses ~115k committees; size grows but stays manageable.
	big, err := MinCommitteeSize(115334, DefaultSizeParams)
	if err != nil {
		t.Fatal(err)
	}
	if big <= m {
		t.Errorf("more committees should need larger m: %d <= %d", big, m)
	}
	if big > 150 {
		t.Errorf("m(c=115334) = %d, unreasonably large", big)
	}
}

// Monotonicity: m is non-decreasing in the committee count and in f.
func TestMinCommitteeSizeMonotonic(t *testing.T) {
	prev := 0
	for _, c := range []int{1, 10, 100, 10000, 1000000} {
		m, err := MinCommitteeSize(c, DefaultSizeParams)
		if err != nil {
			t.Fatal(err)
		}
		if m < prev {
			t.Errorf("m decreased from %d to %d at c=%d", prev, m, c)
		}
		prev = m
	}
	spLow := DefaultSizeParams
	spLow.F = 0.01
	mLow, _ := MinCommitteeSize(100, spLow)
	mHigh, _ := MinCommitteeSize(100, DefaultSizeParams)
	if mLow > mHigh {
		t.Errorf("smaller f should not need larger committees: %d > %d", mLow, mHigh)
	}
}

// The honest-majority bound must actually hold at the returned size: check
// the failure probability directly.
func TestMinCommitteeSizeSatisfiesBound(t *testing.T) {
	sp := DefaultSizeParams
	c := 1000
	m, err := MinCommitteeSize(c, sp)
	if err != nil {
		t.Fatal(err)
	}
	logFail := math.Log(float64(c)) + committeeFailureLog(m, sp.F, sp.G)
	if logFail > math.Log(sp.PerRoundFailure()) {
		t.Errorf("returned m=%d does not satisfy the bound", m)
	}
	// m−1 must NOT satisfy it (minimality).
	logFailSmaller := math.Log(float64(c)) + committeeFailureLog(m-1, sp.F, sp.G)
	if logFailSmaller <= math.Log(sp.PerRoundFailure()) {
		t.Errorf("m−1=%d also satisfies the bound; m not minimal", m-1)
	}
}

func TestMinCommitteeSizeErrors(t *testing.T) {
	if _, err := MinCommitteeSize(0, DefaultSizeParams); err == nil {
		t.Error("c=0 accepted")
	}
	bad := DefaultSizeParams
	bad.F = 0.6
	if _, err := MinCommitteeSize(1, bad); err == nil {
		t.Error("f=0.6 accepted")
	}
	tight := SizeParams{F: 0.49, G: 0.9, P: 1e-12, R: 1000, Max: 10}
	if _, err := MinCommitteeSize(1000, tight); err == nil {
		t.Error("unsatisfiable params accepted")
	}
}

func TestServingFraction(t *testing.T) {
	// topK at N=1e9: 1 + 328 + 115334 committees of ~42 → ~0.49%.
	f := ServingFraction(1+328+115334, 42, 1_000_000_000)
	if f < 0.004 || f > 0.006 {
		t.Errorf("topK serving fraction = %g, paper reports ~0.0049", f)
	}
	if ServingFraction(1, 1, 0) != 0 {
		t.Error("N=0 should give 0")
	}
}

func TestNextBlock(t *testing.T) {
	a := make([]byte, 32)
	b := make([]byte, 32)
	a[0], b[0] = 0xf0, 0x0f
	out, err := NextBlock([][]byte{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xff {
		t.Errorf("XOR wrong: %x", out[0])
	}
	if _, err := NextBlock(nil); err == nil {
		t.Error("empty contributions accepted")
	}
	if _, err := NextBlock([][]byte{{1, 2}}); err == nil {
		t.Error("short contribution accepted")
	}
}

func BenchmarkMinCommitteeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := MinCommitteeSize(100000, DefaultSizeParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelect100k(b *testing.B) {
	ts := makeTickets(100000, []byte("b0"), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Select(ts, 10, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// Selection must be (approximately) uniform across devices: over many query
// rounds, every device's selection frequency stays near the expectation.
func TestSelectionUniformity(t *testing.T) {
	const (
		devices = 120
		m       = 6
		rounds  = 400
	)
	keys := make([][]byte, devices)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("uniformity-key-%d", i))
	}
	counts := make([]int, devices)
	for r := 0; r < rounds; r++ {
		block := []byte(fmt.Sprintf("block-%d", r))
		ts := make([]Ticket, devices)
		for i := range ts {
			ts[i] = MakeTicket(keys[i], i, block, uint64(r))
		}
		cs, err := Select(ts, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range cs[0] {
			counts[d]++
		}
	}
	// Expected selections per device: rounds·m/devices = 20. With 400
	// Bernoulli-ish trials the count should stay within a generous band.
	want := float64(rounds*m) / devices
	for d, c := range counts {
		if float64(c) < want/4 || float64(c) > want*4 {
			t.Errorf("device %d selected %d times, want ~%.0f", d, c, want)
		}
	}
}

// A device cannot predict or bias its ticket without the secret block:
// changing one block bit reshuffles the committee completely.
func TestBlockBitFlipsReshuffle(t *testing.T) {
	const devices = 300
	block := make([]byte, 32)
	flipped := append([]byte(nil), block...)
	flipped[0] ^= 1
	tsA := make([]Ticket, devices)
	tsB := make([]Ticket, devices)
	for i := 0; i < devices; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		tsA[i] = MakeTicket(key, i, block, 1)
		tsB[i] = MakeTicket(key, i, flipped, 1)
	}
	a, _ := Select(tsA, 1, 20)
	b, _ := Select(tsB, 1, 20)
	inA := map[int]bool{}
	for _, d := range a[0] {
		inA[d] = true
	}
	overlap := 0
	for _, d := range b[0] {
		if inA[d] {
			overlap++
		}
	}
	// Expected overlap for random 20-of-300 sets ≈ 20·20/300 ≈ 1.3.
	if overlap > 8 {
		t.Errorf("committee overlap after a bit flip = %d/20, want near random", overlap)
	}
}

// ServingFraction returns the fraction of N devices that serve on any
// committee for a plan with the given committee count and size (the paper
// reports 0.00022%–0.49% across the evaluation queries).
func ServingFraction(c, m int, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(c) * float64(m) / float64(n)
}
