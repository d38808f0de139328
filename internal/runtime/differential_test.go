package runtime

import (
	"errors"
	"fmt"
	"math"
	//arblint:ignore randsource differential fuzzing needs a replayable program generator, not secrecy
	"math/rand"
	"strings"
	"testing"

	"arboretum/internal/privacy"
	"arboretum/internal/types"
)

// Differential testing of the interpreter and the certifier: generate random
// programs — a public part (integer arithmetic, loops, conditionals) and a
// private part over sum(db) (indexing, max, argmax, sum, clip, abs,
// arithmetic, loops that map, accumulate and prefix-sum, conditionals, and
// laplace, em and topk calls) — with a reference evaluation of each in the
// clear. The public outputs must come out exactly; every mechanism argument
// must move, between two databases that differ in one device's category, by
// no more than its call site's certified sensitivity.

// genVal is a value the generator has named: its DSL name and its value as a
// function of the category histogram h (one element for a scalar).
type genVal struct {
	name string
	f    func(h []float64) []float64
}

// genSite is a generated mechanism call: its line, its function, argument 0
// in the clear at each invocation (one invocation per element when it runs in
// a loop), and, for laplace, the indices of its released outputs.
type genSite struct {
	line int
	fn   string
	arg  func(h []float64) []float64
	outs []int
}

// genProg is a generated program: its source, the public part's outputs
// (released first) and the private part's mechanism calls.
type genProg struct {
	src    string
	public []int64
	sites  []genSite
}

// progWriter emits a program line by line and counts its lines and outputs.
type progWriter struct {
	sb      strings.Builder
	line    int
	outputs int
}

func (w *progWriter) emit(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	w.sb.WriteString(s)
	w.sb.WriteString("\n")
	w.line += strings.Count(s, "\n") + 1
}

func (w *progWriter) output(format string, args ...any) int {
	w.emit("output("+format+");", args...)
	w.outputs++
	return w.outputs - 1
}

// genProgram builds a random program over cats categories. With runnable
// set, every branch condition is public, as the runtime requires of a
// top-level branch; otherwise the private part also branches on rows.
//
//arblint:ignore randsource generator input is a seeded replayable stream
func genProgram(rng *rand.Rand, cats int, runnable bool) genProg {
	w := &progWriter{}
	public := genPublic(rng.Intn, w)
	sites := genPrivate(rng.Intn, w, cats, runnable)
	return genProg{src: w.sb.String(), public: public, sites: sites}
}

// genPublic emits the public part: a few assignments, a loop and a
// conditional over small integers, and two or three of their outputs.
func genPublic(intn func(int) int, w *progWriter) []int64 {
	vars := []string{}
	env := map[string]int64{}

	newVar := func() string {
		name := fmt.Sprintf("v%d", len(vars))
		vars = append(vars, name)
		return name
	}
	pick := func() (string, int64) {
		if len(vars) == 0 || intn(3) == 0 {
			k := int64(intn(20) + 1)
			return fmt.Sprintf("%d", k), k
		}
		name := vars[intn(len(vars))]
		return name, env[name]
	}

	// A few assignments with +, -, *.
	nAssign := intn(4) + 2
	for i := 0; i < nAssign; i++ {
		aStr, aVal := pick()
		bStr, bVal := pick()
		op, opStr := int64(0), ""
		switch intn(3) {
		case 0:
			op, opStr = aVal+bVal, "+"
		case 1:
			op, opStr = aVal-bVal, "-"
		case 2:
			op, opStr = aVal*bVal, "*"
		}
		name := newVar()
		w.emit("%s = %s %s %s;", name, aStr, opStr, bStr)
		env[name] = op
	}

	// A loop accumulating into a fresh variable.
	loopVar := newVar()
	iters := int64(intn(5) + 1)
	stepStr, stepVal := pick()
	w.emit("%s = 0;\nfor i = 1 to %d do\n  %s = %s + %s;\nendfor;", loopVar, iters, loopVar, loopVar, stepStr)
	env[loopVar] = iters * stepVal

	// A conditional on one of the variables.
	condVar := vars[intn(len(vars))]
	thr := int64(intn(30))
	resVar := newVar()
	w.emit("%s = 0;\nif %s > %d then\n  %s = 1;\nelse\n  %s = 2;\nendif;", resVar, condVar, thr, resVar, resVar)
	if env[condVar] > thr {
		env[resVar] = 1
	} else {
		env[resVar] = 2
	}

	// Output two or three variables.
	var want []int64
	nOut := intn(2) + 2
	for i := 0; i < nOut; i++ {
		v := vars[intn(len(vars))]
		w.output("%s", v)
		want = append(want, env[v])
	}
	return want
}

// genPrivate emits the private part: aggr = sum(db), two to five derived
// scalars and arrays, then one to three mechanism calls whose results are
// released.
func genPrivate(intn func(int) int, w *progWriter, cats int, runnable bool) []genSite {
	last := fmt.Sprint(cats - 1)
	w.emit("aggr = sum(db);")
	arrays := []genVal{{"aggr", func(h []float64) []float64 { return h }}}
	var scalars []genVal
	n := 0
	fresh := func() string { n++; return fmt.Sprintf("p%d", n) }
	arr := func() genVal { return arrays[intn(len(arrays))] }
	scalar := func() genVal {
		if len(scalars) == 0 || intn(4) == 0 {
			a, j := arr(), intn(cats)
			return genVal{fmt.Sprintf("%s[%d]", a.name, j), func(h []float64) []float64 { return a.f(h)[j : j+1] }}
		}
		return scalars[intn(len(scalars))]
	}
	lit := func(vs ...int) (string, float64) { v := vs[intn(len(vs))]; return fmt.Sprint(v), float64(v) }
	addScalar := func(name string, f func(h []float64) float64) {
		scalars = append(scalars, genVal{name, func(h []float64) []float64 { return []float64{f(h)} }})
	}
	addArray := func(name string, f func(h []float64, i int) float64) {
		arrays = append(arrays, genVal{name, func(h []float64) []float64 {
			out := make([]float64, cats)
			for i := range out {
				out[i] = f(h, i)
			}
			return out
		}})
	}
	// elem is an expression of element i of a, and its value.
	elem := func(a genVal) (string, func(h []float64, i int) float64) {
		x := scalar()
		c, cv := lit(-2, 2, 3)
		switch intn(5) {
		case 0:
			return fmt.Sprintf("%s[i] * %s", a.name, c), func(h []float64, i int) float64 { return a.f(h)[i] * cv }
		case 1:
			return fmt.Sprintf("%s[i] + %s", a.name, x.name), func(h []float64, i int) float64 { return a.f(h)[i] + x.f(h)[0] }
		case 2:
			return fmt.Sprintf("clip(%s[i], 0, %d)", a.name, 4), func(h []float64, i int) float64 { return math.Min(math.Max(a.f(h)[i], 0), 4) }
		case 3:
			return fmt.Sprintf("%s[i] - %s[0]", a.name, a.name), func(h []float64, i int) float64 { return a.f(h)[i] - a.f(h)[0] }
		default:
			return fmt.Sprintf("abs(%s[i] - %s)", a.name, x.name), func(h []float64, i int) float64 { return math.Abs(a.f(h)[i] - x.f(h)[0]) }
		}
	}

	for k := 2 + intn(4); k > 0; k-- {
		v := fresh()
		switch intn(8) {
		case 0: // a scalar from an array
			a := arr()
			switch intn(4) {
			case 0:
				w.emit("%s = max(%s);", v, a.name)
				addScalar(v, func(h []float64) float64 { return maxOf(a.f(h)) })
			case 1:
				w.emit("%s = argmax(%s);", v, a.name)
				addScalar(v, func(h []float64) float64 { return float64(argmaxOf(a.f(h))) })
			case 2:
				w.emit("%s = sum(%s);", v, a.name)
				addScalar(v, func(h []float64) float64 { return sumOf(a.f(h)) })
			default:
				b := arr()
				ix, idx := "argmax("+b.name+")", func(h []float64) int { return argmaxOf(b.f(h)) }
				if runnable { // the runtime cannot index by a confidential value
					ix, idx = "len("+b.name+") - 1", func([]float64) int { return cats - 1 }
				}
				w.emit("%s = %s[%s];", v, a.name, ix)
				addScalar(v, func(h []float64) float64 { return a.f(h)[idx(h)] })
			}
		case 1: // arithmetic on scalars
			x, y := scalar(), scalar()
			c, cv := lit(2, 3, -2)
			switch intn(5) {
			case 0:
				w.emit("%s = %s + %s;", v, x.name, y.name)
				addScalar(v, func(h []float64) float64 { return x.f(h)[0] + y.f(h)[0] })
			case 1:
				w.emit("%s = %s - %s;", v, x.name, y.name)
				addScalar(v, func(h []float64) float64 { return x.f(h)[0] - y.f(h)[0] })
			case 2:
				w.emit("%s = %s * %s;", v, x.name, c)
				addScalar(v, func(h []float64) float64 { return x.f(h)[0] * cv })
			case 3:
				d, dv := lit(2, 4)
				w.emit("%s = %s / %s;", v, x.name, d)
				addScalar(v, func(h []float64) float64 { return x.f(h)[0] / dv })
			default:
				w.emit("%s = %s * %s;", v, x.name, y.name)
				addScalar(v, func(h []float64) float64 { return x.f(h)[0] * y.f(h)[0] })
			}
		case 2: // clip or abs of a scalar
			x := scalar()
			if intn(2) == 0 {
				lo, lov := lit(0, 2)
				hi, hiv := lit(6, 10)
				w.emit("%s = clip(%s, %s, %s);", v, x.name, lo, hi)
				addScalar(v, func(h []float64) float64 { return math.Min(math.Max(x.f(h)[0], lov), hiv) })
			} else {
				w.emit("%s = abs(%s);", v, x.name)
				addScalar(v, func(h []float64) float64 { return math.Abs(x.f(h)[0]) })
			}
		case 3: // an element-wise map over an array
			e, f := elem(arr())
			w.emit("for i = 0 to %s do\n  %s[i] = %s;\nendfor;", last, v, e)
			addArray(v, f)
		case 4: // accumulate into a scalar
			x, a := scalar(), arr()
			iters := 1 + intn(cats)
			switch intn(3) {
			case 0:
				w.emit("%s = 0;\nfor i = 0 to %d do\n  %s = %s + %s;\nendfor;", v, iters-1, v, v, x.name)
				addScalar(v, func(h []float64) float64 { return float64(iters) * x.f(h)[0] })
			case 1:
				w.emit("%s = 0;\nfor i = 0 to %d do\n  %s = %s + %s[i];\nendfor;", v, iters-1, v, v, a.name)
				addScalar(v, func(h []float64) float64 { return sumOf(a.f(h)[:iters]) })
			default:
				w.emit("%s = 0;\nfor i = 0 to %d do\n  %s = %s[i] * 2 + %s;\nendfor;", v, iters-1, v, a.name, v)
				addScalar(v, func(h []float64) float64 { return 2 * sumOf(a.f(h)[:iters]) })
			}
		case 5: // a prefix sum
			a := arr()
			w.emit("%s[0] = %s[0];\nfor i = 1 to %s do\n  %s[i] = %s[i - 1] + %s[i];\nendfor;", v, a.name, last, v, v, a.name)
			addArray(v, func(h []float64, i int) float64 { return sumOf(a.f(h)[:i+1]) })
		case 6: // a conditional on a public value or, unless runnable, on a row
			x, y := scalar(), scalar()
			cond, hold := "1 > 0", func([]float64) bool { return true }
			if !runnable && intn(2) == 0 {
				t := intn(20)
				cond, hold = fmt.Sprintf("%s > %d", x.name, t), func(h []float64) bool { return x.f(h)[0] > float64(t) }
			} else if intn(2) == 0 {
				cond, hold = "1 > 2", func([]float64) bool { return false }
			}
			c, cv := lit(0, 5)
			e, f := fmt.Sprintf("%s * 3", y.name), func(h []float64) float64 { return 3 * y.f(h)[0] }
			branches := [2]string{c, e}
			if intn(2) == 0 { // the row-dependent value in either branch
				branches = [2]string{e, c}
			}
			w.emit("%s = %s;\nif %s then\n  %s = %s;\nelse\n  %s = %s;\nendif;", v, c, cond, v, branches[0], v, branches[1])
			addScalar(v, func(h []float64) float64 {
				if hold(h) == (branches[0] == e) {
					return f(h)
				}
				return cv
			})
		default: // an auction-style revenue array over a suffix sum
			a := arr()
			w.emit("%s[%s] = %s[%s];\nfor i = 0 to %d do\n  %s[%d - i] = %s[%d - i] + %s[%d - i];\nendfor;",
				v, last, a.name, last, cats-2, v, cats-2, v, cats-1, a.name, cats-2)
			r := fresh()
			w.emit("for p = 0 to %s do\n  %s[p] = p * %s[p];\nendfor;", last, r, v)
			addArray(r, func(h []float64, p int) float64 { return float64(p) * sumOf(a.f(h)[p:]) })
		}
	}

	var sites []genSite
	for k := 1 + intn(3); k > 0; k-- {
		eps, _ := lit(1, 2)
		v := fresh()
		switch intn(4) {
		case 0:
			x := scalar()
			w.emit("%s = laplace(%s, %s);", v, x.name, eps)
			s := genSite{line: w.line, fn: "laplace", arg: x.f}
			s.outs = []int{w.output("declassify(%s)", v)}
			sites = append(sites, s)
		case 1: // laplace at every element
			a := arr()
			w.emit("for i = 0 to %s do\n  %s[i] = laplace(%s[i], %s);\nendfor;", last, v, a.name, eps)
			s := genSite{line: w.line - 1, fn: "laplace", arg: a.f}
			for i := 0; i < cats; i++ {
				s.outs = append(s.outs, w.output("declassify(%s[%d])", v, i))
			}
			sites = append(sites, s)
		case 2:
			a := arr()
			w.emit("%s = em(%s, %s);", v, a.name, eps)
			sites = append(sites, genSite{line: w.line, fn: "em", arg: a.f})
			w.output("%s", v)
		default:
			a := arr()
			w.emit("%s = topk(%s, 2, %s);", v, a.name, eps)
			sites = append(sites, genSite{line: w.line, fn: "topk", arg: a.f})
			w.output("%s[0]", v)
			w.output("%s[1]", v)
		}
	}
	return sites
}

func maxOf(v []float64) float64 { return v[argmaxOf(v)] }

func argmaxOf(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

func sumOf(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// genHistogram is the category histogram of n devices assigned by data.
func genHistogram(n, cats int, data func(int) int) []float64 {
	h := make([]float64, cats)
	for i := 0; i < n; i++ {
		h[data(i)]++
	}
	return h
}

// genSiteRows indexes a certificate's mechanism rows by line.
func genSiteRows(t *testing.T, cert *privacy.Certificate, p genProg) map[int]privacy.MechanismUse {
	t.Helper()
	rows := map[int]privacy.MechanismUse{}
	for _, m := range cert.Mechanisms {
		rows[m.Pos.Line] = m
	}
	for _, s := range p.sites {
		if m, ok := rows[s.line]; !ok || m.Func != s.fn {
			t.Fatalf("line %d: no certified %s row in %+v\nprogram:\n%s", s.line, s.fn, cert.Mechanisms, p.src)
		}
	}
	return rows
}

// maxMove is max_i |a[i] − b[i]|.
func maxMove(a, b []float64) float64 {
	var m float64
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// TestGeneratedSensitivityCovers certifies generated programs and evaluates
// each mechanism argument in the clear on a histogram and on every histogram
// one device's move to another category makes of it: the argument must
// never move by more than its call site's certified sensitivity. A laplace
// argument typed Int, which draws whole-number noise, must evaluate to a
// whole number.
func TestGeneratedSensitivityCovers(t *testing.T) {
	const (
		cats     = 4
		devices  = 64
		programs = 1000
	)
	db := types.DBInfo{N: devices, Width: cats, ElemRange: types.Range{Lo: 0, Hi: 1}}
	admitted, integral := 0, 0
	for seed := int64(1); seed <= programs; seed++ {
		//arblint:ignore randsource fixed seeds make every failure reproducible from the test log
		rng := rand.New(rand.NewSource(seed))
		p := genProgram(rng, cats, false)
		_, _, cert, err := privacy.Admit(p.src, db)
		if err != nil {
			continue // refusing is always sound
		}
		admitted++
		rows := genSiteRows(t, cert, p)
		h := genHistogram(devices, cats, func(i int) int { return rng.Intn(cats) })
		for _, s := range p.sites {
			if !rows[s.line].Integral {
				continue
			}
			integral++
			for _, x := range s.arg(h) {
				if x != math.Trunc(x) {
					t.Fatalf("seed %d: laplace at line %d is typed Int but evaluates to %g\nprogram:\n%s", seed, s.line, x, p.src)
				}
			}
		}
		for from := 0; from < cats; from++ {
			for to := 0; to < cats; to++ {
				if from == to || h[from] == 0 {
					continue
				}
				h2 := append([]float64(nil), h...)
				h2[from]--
				h2[to]++
				for _, s := range p.sites {
					m := rows[s.line]
					if d := maxMove(s.arg(h), s.arg(h2)); d > float64(m.Sensitivity)+1e-9 {
						t.Fatalf("seed %d: %s at line %d moves by %g when a device moves %d→%d, certified sensitivity %d\nprogram:\n%s",
							seed, s.fn, s.line, d, from, to, m.Sensitivity, p.src)
					}
				}
			}
		}
	}
	if admitted < programs/4 || integral < programs/10 {
		t.Fatalf("only %d of %d generated programs admitted, %d Int-typed laplace sites", admitted, programs, integral)
	}
}

// TestDifferentialPrograms runs generated programs end to end on two
// deployments whose data differ in one device's category, under one seed so
// that every noise draw is the same on both: the public outputs come out
// exactly, each laplace output moves by no more than its site's certified
// sensitivity, and no call site releases more ε than it was charged.
func TestDifferentialPrograms(t *testing.T) {
	const (
		cats    = 4
		devices = 64
		trials  = 16
	)
	//arblint:ignore randsource fixed seed makes every failure reproducible from the test log
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < trials; trial++ {
		p := genProgram(rng, cats, true)
		base := make([]int, devices)
		for i := range base {
			base[i] = rng.Intn(cats)
		}
		moved := append([]int(nil), base...)
		moved[0] = (base[0] + 1 + rng.Intn(cats-1)) % cats
		var res [2]*Result
		for side, data := range [2][]int{base, moved} {
			d := smallDeployment(t, devices, cats, func(c *Config) {
				c.BudgetEpsilon = 1e9
				c.Data = func(i int) int { return data[i] }
			})
			r, err := d.Run(p.src, RunOptions{})
			if errors.Is(err, privacy.ErrUnboundedSensitivity) || errors.Is(err, privacy.ErrUnboundedLoop) {
				break // refused at admission, on both sides alike
			}
			if err != nil {
				t.Fatalf("trial %d: %v\nprogram:\n%s", trial, err, p.src)
			}
			res[side] = r
		}
		if res[1] == nil {
			continue
		}
		for side, r := range res {
			for i, want := range p.public {
				if got := r.Outputs[i].Int(); got != want {
					t.Errorf("trial %d side %d: output %d = %d, want %d\nprogram:\n%s", trial, side, i, got, want, p.src)
				}
			}
			assertSpentCovered(t, r.Certificate, r.Spent, fmt.Sprintf("trial %d side %d", trial, side))
		}
		rows := genSiteRows(t, res[0].Certificate, p)
		for _, s := range p.sites {
			for _, o := range s.outs {
				d := math.Abs(res[0].Outputs[o].Float() - res[1].Outputs[o].Float())
				if sens := rows[s.line].Sensitivity; d > float64(sens)+1e-3 {
					t.Errorf("trial %d: laplace at line %d released outputs %d apart, certified sensitivity %d\nprogram:\n%s",
						trial, s.line, int64(d), sens, p.src)
				}
			}
		}
	}
}
