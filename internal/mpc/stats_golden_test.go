package mpc

import (
	"fmt"
	"strings"
	"testing"

	"arboretum/internal/fixed"
)

// The exact accounting of each public protocol: every Stats field and the
// sequence of round-observer calls, at the runtime's committee size (5) and
// the paper's (41). The cost model prices committees from these counts, and
// the fault schedules of docs/FAULTS.md address MemberDropout by observed
// round, so a change to how the engine computes must leave every row as it
// is.
//
// One count is data-dependent. bitLTPublic flips f_j = 1 − r_j for each set
// bit of the opened masked value c, and each flip is one MulConst: M
// LocalMults. c is uniform, so a row pins LocalMults as a base plus M times
// a flip count in (0, flipBits[op]).
type statsGolden struct {
	name                                          string
	rounds, opens, triples, randBits, comparisons int
	totalBytes, dealerBytes, localMults           int64
	observed                                      string // runs of consecutive rounds, "a-b"
}

var statsGoldens = []statsGolden{
	// name, rounds, opens, triples, randBits, comparisons, totalBytes,
	// dealerBytes, localMults (base), observed
	{"Input/5", 1, 0, 0, 0, 0, 32, 0, 0, ""},
	{"Mul/5", 3, 2, 1, 0, 0, 384, 120, 16, "3"},
	{"Less/5", 96, 187, 93, 47, 1, 29984, 13080, 1981, "3-96"},
	{"Argmax/5", 3008, 5921, 2945, 1457, 31, 948384, 412920, 62403, "33-3008"},
	{"FixedExp/5", 330, 648, 319, 160, 0, 103712, 45080, 6889, "2-330"},
	{"Transfer/5", 2, 0, 0, 0, 0, 1016, 0, 0, ""},
	{"Transfer/5→41", 0, 0, 0, 0, 0, 0, 0, 123, ""},
	{"TransferArray/5", 4, 0, 0, 0, 0, 3048, 0, 0, ""},
	{"TransferArray/5→41", 0, 0, 0, 0, 0, 0, 0, 369, ""},
	{"Input/41", 1, 0, 0, 0, 0, 320, 0, 0, ""},
	{"Mul/41", 3, 2, 1, 0, 0, 26880, 984, 124, "3"},
	{"Less/41", 96, 187, 93, 47, 1, 2454080, 107256, 15571, "3-96"},
	{"Argmax/41", 3008, 5921, 2945, 1457, 31, 77693760, 3385944, 490389, "33-3008"},
	{"FixedExp/41", 330, 648, 319, 160, 0, 8502080, 369656, 54157, "2-330"},
	{"Transfer/41", 2, 0, 0, 0, 0, 1160, 0, 0, ""},
	{"Transfer/41→5", 0, 0, 0, 0, 0, 0, 0, 105, ""},
	{"TransferArray/41", 4, 0, 0, 0, 0, 3480, 0, 0, ""},
	{"TransferArray/41→5", 0, 0, 0, 0, 0, 0, 0, 315, ""},
}

// statsScenario runs one protocol on fresh engines of m parties and returns
// each engine that did work, named, with the rounds its observer saw, and a
// check of the protocol's result to run once the stats are read (opening
// adds a round).
func statsScenario(t *testing.T, op string, m int) (names []string, engines []*Engine, observed [][]int, check func()) {
	t.Helper()
	watch := func(name string, e *Engine) {
		i := len(engines)
		names, engines = append(names, name), append(engines, e)
		observed = append(observed, nil)
		e.SetRoundObserver(func(r int) { observed[i] = append(observed[i], r) })
	}
	e := newEngine(t, m)
	watch(fmt.Sprintf("%s/%d", op, m), e)
	input := func(owner int, v int64) Secret {
		s, err := e.Input(owner%m, v)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	switch op {
	case "Input":
		s := input(m-1, -12345)
		check = func() { wantOpen(t, e, s, -12345) }
	case "Mul":
		p := e.Mul(input(0, 6), input(1, -7))
		check = func() { wantOpen(t, e, p, -42) }
	case "Less":
		lt, err := e.Less(input(0, -3), input(1, 5))
		if err != nil {
			t.Fatal(err)
		}
		check = func() { wantOpen(t, e, lt, 1) }
	case "Argmax":
		vals := make([]Secret, 32)
		for i := range vals {
			vals[i] = input(i, int64((i*37)%101-50)) // maximum 50 at i = 30
		}
		idx, err := e.Argmax(vals)
		if err != nil {
			t.Fatal(err)
		}
		check = func() { wantOpen(t, e, idx, 30) }
	case "FixedExp":
		x, err := e.inputFixed(0, fixed.FromFloat(1.5))
		if err != nil {
			t.Fatal(err)
		}
		y, err := e.FixedExp(x)
		if err != nil {
			t.Fatal(err)
		}
		check = func() {
			if got := e.OpenFixed(y).Float(); got < 4.39 || got > 4.57 { // e^1.5 ≈ 4.48
				t.Errorf("%s: FixedExp(1.5) = %g", names[0], got)
			}
		}
	case "Transfer":
		to := newEngine(t, 46-m) // 5 → 41 and 41 → 5
		watch(fmt.Sprintf("%s/%d→%d", op, m, to.M), to)
		moved := Transfer(e, []Secret{input(0, 424242)}, to)
		check = func() { wantOpen(t, to, moved[0], 424242) }
	case "TransferArray":
		// Three secrets move in the one round of one secret, at three
		// times its bytes and local multiplications.
		to := newEngine(t, 46-m)
		watch(fmt.Sprintf("%s/%d→%d", op, m, to.M), to)
		moved := Transfer(e, []Secret{input(0, 7), input(1, -8), input(2, 9)}, to)
		check = func() {
			for i, v := range []int64{7, -8, 9} {
				wantOpen(t, to, moved[i], v)
			}
		}
	default:
		t.Fatalf("unknown protocol %q", op)
	}
	return names, engines, observed, check
}

func wantOpen(t *testing.T, e *Engine, s Secret, want int64) {
	t.Helper()
	if got := e.Open(s); got != want {
		t.Errorf("opened %d, want %d", got, want)
	}
}

// roundRuns prints a sequence as runs of consecutive values: [3 4 5 8] →
// "3-5 8".
func roundRuns(xs []int) string {
	var b strings.Builder
	for i := 0; i < len(xs); {
		j := i + 1
		for j < len(xs) && xs[j] == xs[j-1]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if j-i == 1 {
			fmt.Fprint(&b, xs[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", xs[i], xs[j-1])
		}
		i = j
	}
	return b.String()
}

// flipBits is the number of opened mask bits each protocol's comparisons
// scan: LTZ truncates by ValueBits−1 bits, and FixedExp truncates ten
// products by fixed.FracBits.
var flipBits = map[string]int{
	"Less":     ValueBits - 1,
	"Argmax":   31 * (ValueBits - 1),
	"FixedExp": 10 * fixed.FracBits,
}

func TestStatsGolden(t *testing.T) {
	want := make(map[string]statsGolden, len(statsGoldens))
	for _, g := range statsGoldens {
		want[g.name] = g
	}
	for _, m := range []int{5, 41} {
		for _, op := range []string{"Input", "Mul", "Less", "Argmax", "FixedExp", "Transfer", "TransferArray"} {
			names, engines, observed, check := statsScenario(t, op, m)
			for i, e := range engines {
				s := e.Stats()
				got := statsGolden{
					name: names[i], rounds: s.Rounds, opens: s.Opens, triples: s.Triples,
					randBits: s.RandBits, comparisons: s.Comparisons,
					totalBytes: s.TotalBytes, dealerBytes: s.DealerBytes,
					localMults: s.LocalMults,
					observed:   roundRuns(observed[i]),
				}
				w, ok := want[got.name]
				if k := flipBits[op]; ok && k > 0 && i == 0 {
					// Strip the data-dependent flips: a whole number of
					// M-mult passes, strictly inside (0, k).
					d := got.localMults - w.localMults
					if d%int64(e.M) != 0 || d <= 0 || d >= int64(k*e.M) {
						t.Errorf("%s: LocalMults %d is not %d + %d·k for 0 < k < %d",
							got.name, got.localMults, w.localMults, e.M, k)
					}
					got.localMults = w.localMults
				}
				if !ok || got != w {
					t.Errorf("%s:\n got  %#v\n want %#v", got.name, got, w)
				}
			}
			check()
		}
	}
}
