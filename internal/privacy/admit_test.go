package privacy

import (
	"math"
	"strings"
	"testing"

	"arboretum/internal/queries"
)

// TestAdmitStages: each stage of the front end refuses under its own prefix,
// and an admitted query comes back with all three artefacts.
func TestAdmitStages(t *testing.T) {
	for _, c := range []struct{ src, stage string }{
		{"x = ;", "parse: "},
		{"x = y + 1; output(x);", "types: "},
		{"aggr = sum(db); output(aggr);", "certification: "},
	} {
		if _, _, _, err := Admit(c.src, db); err == nil || !strings.HasPrefix(err.Error(), c.stage) {
			t.Errorf("Admit(%q) = %v, want a %q error", c.src, err, c.stage)
		}
	}
	prog, info, cert, err := Admit(queries.Top1.Source, db)
	if err != nil || prog == nil || info == nil || cert == nil {
		t.Fatalf("Admit(top1) = %v, %v, %v, %v", prog, info, cert, err)
	}
	if cert.Epsilon != defaultEpsilon {
		t.Errorf("top1 ε = %g", cert.Epsilon)
	}
}

// FuzzAdmit drives the analyst-facing front end — the gateway feeds it query
// text straight from HTTP — with arbitrary source: it must never panic, must
// be a function of its input (two calls agree on refusal or on (ε, δ, sample
// rate)), and whatever it admits must carry a usable certificate: a sample
// rate in (0, 1], and an ε that is the sequential composition of the
// recorded mechanisms — positive as soon as there is one — lowered, never
// raised, by sampling. (A query with no mechanism releases only public
// values and certifies at ε = 0.)
func FuzzAdmit(f *testing.F) {
	for _, q := range queries.All {
		f.Add(q.Source)
	}
	f.Add("sampleUniform(0.5); sampleUniform(1); aggr = sum(db); c = laplace(aggr[0], 1.0); output(declassify(c));")
	f.Add("")
	f.Add("aggr = sum(db")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			t.Skip()
		}
		_, _, c1, err1 := Admit(src, db)
		_, _, c2, err2 := Admit(src, db)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic admission: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("nondeterministic refusal: %q vs %q", err1, err2)
			}
			return
		}
		if c1.Epsilon != c2.Epsilon || c1.Delta != c2.Delta || c1.SampleRate != c2.SampleRate {
			t.Fatalf("nondeterministic certificate: %+v vs %+v", c1, c2)
		}
		if !(c1.SampleRate > 0 && c1.SampleRate <= 1) {
			t.Fatalf("admitted with sample rate %g", c1.SampleRate)
		}
		var composed float64
		for _, m := range c1.Mechanisms {
			if !(m.Epsilon > 0) || m.Invocations < 1 {
				t.Fatalf("admitted with mechanism %+v", m)
			}
			composed += m.Epsilon * float64(m.Invocations)
		}
		switch {
		case c1.SampleRate == 1 && c1.Epsilon != composed:
			t.Fatalf("ε = %g, mechanisms compose to %g", c1.Epsilon, composed)
		case !(c1.Epsilon >= 0) ||
			// e^ε overflows in the amplification past ε ≈ 709: +Inf
			// over-charges, which fails closed at every budget.
			c1.Epsilon > composed*(1+1e-12) && !math.IsInf(c1.Epsilon, 1):
			t.Fatalf("ε = %g at sample rate %g, mechanisms compose to %g", c1.Epsilon, c1.SampleRate, composed)
		}
	})
}
