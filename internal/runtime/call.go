package runtime

import (
	"fmt"

	"arboretum/internal/fixed"
	"arboretum/internal/lang"
	"arboretum/internal/mechanism"
)

// call evaluates a built-in function (Section 4.1's operator set). The
// high-level mechanisms dispatch to committee protocols.
func (ip *interp) call(ex *lang.CallExpr) (value, error) {
	switch ex.Func {
	case "sum":
		if id, ok := ex.Args[0].(*lang.Ident); ok && id.Name == "db" {
			return value{kind: vCipherArr, cts: ip.dbSums}, nil
		}
		return ip.sumArray(ex)
	case "em":
		return ip.emCall(ex)
	case "topk":
		return ip.topkCall(ex)
	case "laplace":
		return ip.laplaceCall(ex)
	case "max", "argmax":
		return ip.maxCall(ex)
	case "clip":
		return ip.clipCall(ex)
	case "abs":
		return ip.absCall(ex)
	case "exp", "log2", "sqrt":
		return ip.mathCall(ex)
	case "len":
		v, err := ip.eval(ex.Args[0])
		if err != nil {
			return value{}, err
		}
		if !v.isArr() {
			return value{}, fmt.Errorf("runtime: len of non-array")
		}
		return pub(fixed.FromInt(int64(v.length()))), nil
	case "output":
		v, err := ip.eval(ex.Args[0])
		if err != nil {
			return value{}, err
		}
		if v.kind != vPublic {
			return value{}, fmt.Errorf("runtime: output of a confidential value (declassify first)")
		}
		ip.outputs = append(ip.outputs, v.num)
		return v, nil
	case "declassify":
		v, err := ip.eval(ex.Args[0])
		if err != nil {
			return value{}, err
		}
		switch v.kind {
		case vPublic:
			return v, nil
		case vShared:
			if err := v.eng.health(); err != nil {
				return value{}, err
			}
			return pub(v.eng.engine.OpenFixed(v.sec)), nil
		default:
			return value{}, fmt.Errorf("runtime: declassify of %v (only mechanism outputs may be declassified)", v.kind)
		}
	case "sampleUniform":
		// Handled before input collection (run.go); a no-op here.
		return pub(0), nil
	case "gumbel":
		v, err := ip.eval(ex.Args[0])
		if err != nil {
			return value{}, err
		}
		if v.kind != vPublic {
			return value{}, fmt.Errorf("runtime: gumbel scale must be public")
		}
		return pub(mechanism.Gumbel(ip.dep.noiseRand(), v.num)), nil
	case "array":
		v, err := ip.eval(ex.Args[0])
		if err != nil {
			return value{}, err
		}
		n := v.num.Int()
		if n < 0 || n > 1<<20 {
			return value{}, fmt.Errorf("runtime: array size %d out of range", n)
		}
		return pubArr(make([]fixed.Fixed, n)), nil
	default:
		return value{}, fmt.Errorf("runtime: unknown function %q", ex.Func)
	}
}

// sumArray folds a non-db array.
func (ip *interp) sumArray(ex *lang.CallExpr) (value, error) {
	v, err := ip.eval(ex.Args[0])
	if err != nil {
		return value{}, err
	}
	switch v.kind {
	case vPublicArr:
		var acc fixed.Fixed
		for _, f := range v.arr {
			acc = acc.Add(f)
		}
		return pub(acc), nil
	case vCipherArr:
		ct, err := ip.km.pub.Sum(v.cts)
		if err != nil {
			return value{}, err
		}
		return value{kind: vCipher, ct: ct}, nil
	case vSharedArr:
		s, err := v.eng.engine.Sum(v.secs)
		if err != nil {
			return value{}, err
		}
		return value{kind: vShared, sec: s, eng: v.eng}, nil
	default:
		return value{}, fmt.Errorf("runtime: sum of non-array")
	}
}

// mechanismEngine resolves the committee for a mechanism call: inputs that
// are already shared stay with their committee; fresh ciphertext (or
// public) inputs move to the next spare committee, with a VSR hand-off of
// the key (Section 5.4).
func (ip *interp) mechanismEngine(v value) (*committeeExec, error) {
	if v.eng != nil {
		return v.eng, nil
	}
	if err := ip.rotate(); err != nil {
		return nil, err
	}
	return ip.ce, nil
}

func (ip *interp) emCall(ex *lang.CallExpr) (value, error) {
	scores, err := ip.eval(ex.Args[0])
	if err != nil {
		return value{}, err
	}
	use, err := ip.use(ex)
	if err != nil {
		return value{}, err
	}
	eps := use.CallEpsilon
	return ip.runVignette(ex.Position(), scores, func(ce *committeeExec, in value) (value, error) {
		shared, err := ip.toSharedIn(ce, in)
		if err != nil {
			return value{}, err
		}
		if shared.kind != vSharedArr || len(shared.secs) == 0 {
			return value{}, fmt.Errorf("runtime: em requires a score array")
		}
		var idx int
		switch ip.emVariant {
		case mechanism.EMExponentiate:
			idx, err = ce.exponentiateSelect(shared.secs, ip.sens, eps)
		default:
			idx, err = ce.gumbelArgmax(shared.secs, ip.sens, eps)
		}
		if err != nil {
			return value{}, err
		}
		return pub(fixed.FromInt(int64(idx))), nil
	})
}

func (ip *interp) topkCall(ex *lang.CallExpr) (value, error) {
	scores, err := ip.eval(ex.Args[0])
	if err != nil {
		return value{}, err
	}
	kv, err := ip.eval(ex.Args[1])
	if err != nil {
		return value{}, err
	}
	use, err := ip.use(ex)
	if err != nil {
		return value{}, err
	}
	// k is the program's value; the certificate charged for up to use.K
	// winners (k's inferred upper bound), so more than that is not released.
	k := kv.num.Int()
	if k > use.K {
		return value{}, fmt.Errorf("%v: topk count %d exceeds the certified bound %d", ex.Position(), k, use.K)
	}
	var won []int // winners opened so far: a retried attempt resumes after them
	return ip.runVignette(ex.Position(), scores, func(ce *committeeExec, in value) (value, error) {
		shared, err := ip.toSharedIn(ce, in)
		if err != nil {
			return value{}, err
		}
		if shared.kind != vSharedArr {
			return value{}, fmt.Errorf("runtime: topk requires a score array")
		}
		won, err = ce.topKSelect(shared.secs, won, int(k), ip.sens, use.CallEpsilon)
		if err != nil {
			return value{}, err
		}
		out := make([]fixed.Fixed, len(won))
		for i, idx := range won {
			out[i] = fixed.FromInt(int64(idx))
		}
		return pubArr(out), nil
	})
}

func (ip *interp) laplaceCall(ex *lang.CallExpr) (value, error) {
	v, err := ip.eval(ex.Args[0])
	if err != nil {
		return value{}, err
	}
	use, err := ip.use(ex)
	if err != nil {
		return value{}, err
	}
	eps := use.CallEpsilon
	switch v.kind {
	case vCipher:
		return ip.runVignette(ex.Position(), v, func(ce *committeeExec, in value) (value, error) {
			f, err := ce.laplaceRelease(ip.km, in.ct, ip.sens, eps)
			if err != nil {
				return value{}, err
			}
			return pub(f), nil
		})
	case vShared:
		return ip.runVignette(ex.Position(), v, func(ce *committeeExec, in value) (value, error) {
			sh, err := ip.toSharedIn(ce, in)
			if err != nil {
				return value{}, err
			}
			f, err := ce.laplaceShared(sh.sec, ip.sens, eps)
			if err != nil {
				return value{}, err
			}
			return pub(f), nil
		})
	case vPublic:
		scale := fixed.FromFloat(float64(ip.sens) / eps)
		noised := v.num.Add(mechanism.Laplace(ip.dep.noiseRand(), scale))
		ip.dep.spent[ex.Position()] += eps
		return pub(noised), nil
	default:
		return value{}, fmt.Errorf("runtime: laplace on %v", v.kind)
	}
}

func (ip *interp) maxCall(ex *lang.CallExpr) (value, error) {
	v, err := ip.eval(ex.Args[0])
	if err != nil {
		return value{}, err
	}
	if v.kind == vPublicArr {
		if len(v.arr) == 0 {
			return value{}, fmt.Errorf("runtime: max of empty array")
		}
		best, bestIdx := v.arr[0], 0
		for i, f := range v.arr {
			if f > best {
				best, bestIdx = f, i
			}
		}
		if ex.Func == "argmax" {
			return pub(fixed.FromInt(int64(bestIdx))), nil
		}
		return pub(best), nil
	}
	return ip.runVignette(ex.Position(), v, func(ce *committeeExec, in value) (value, error) {
		shared, err := ip.toSharedIn(ce, in)
		if err != nil {
			return value{}, err
		}
		if shared.kind != vSharedArr {
			return value{}, fmt.Errorf("runtime: %s requires an array", ex.Func)
		}
		if ex.Func == "argmax" {
			s, err := ce.engine.Argmax(shared.secs)
			if err != nil {
				return value{}, err
			}
			// Argmax indices are unscaled; rescale to the fixed convention.
			return value{kind: vShared, sec: ce.engine.MulConst(s, int64(fixed.One)), eng: ce}, nil
		}
		s, err := ce.maxShared(shared.secs)
		if err != nil {
			return value{}, err
		}
		return value{kind: vShared, sec: s, eng: ce}, nil
	})
}

func (ip *interp) clipCall(ex *lang.CallExpr) (value, error) {
	v, err := ip.eval(ex.Args[0])
	if err != nil {
		return value{}, err
	}
	loV, err := ip.eval(ex.Args[1])
	if err != nil {
		return value{}, err
	}
	hiV, err := ip.eval(ex.Args[2])
	if err != nil {
		return value{}, err
	}
	if loV.kind != vPublic || hiV.kind != vPublic {
		return value{}, fmt.Errorf("runtime: clip bounds must be public")
	}
	switch v.kind {
	case vPublic:
		f := v.num
		if f < loV.num {
			f = loV.num
		}
		if f > hiV.num {
			f = hiV.num
		}
		return pub(f), nil
	case vShared:
		s, err := ip.clipShared(v.eng, v.sec, loV.num, hiV.num)
		if err != nil {
			return value{}, err
		}
		return value{kind: vShared, sec: s, eng: v.eng}, nil
	case vCipher:
		sh, err := ip.toSharedIn(ip.ce, v)
		if err != nil {
			return value{}, err
		}
		s, err := ip.clipShared(ip.ce, sh.sec, loV.num, hiV.num)
		if err != nil {
			return value{}, err
		}
		return value{kind: vShared, sec: s, eng: ip.ce}, nil
	default:
		return value{}, fmt.Errorf("runtime: clip on %v", v.kind)
	}
}

func (ip *interp) absCall(ex *lang.CallExpr) (value, error) {
	v, err := ip.eval(ex.Args[0])
	if err != nil {
		return value{}, err
	}
	switch v.kind {
	case vPublic:
		return pub(v.num.Abs()), nil
	case vShared:
		s, err := ip.absShared(v.eng, v.sec)
		if err != nil {
			return value{}, err
		}
		return value{kind: vShared, sec: s, eng: v.eng}, nil
	case vCipher:
		sh, err := ip.toSharedIn(ip.ce, v)
		if err != nil {
			return value{}, err
		}
		s, err := ip.absShared(ip.ce, sh.sec)
		if err != nil {
			return value{}, err
		}
		return value{kind: vShared, sec: s, eng: ip.ce}, nil
	default:
		return value{}, fmt.Errorf("runtime: abs on %v", v.kind)
	}
}

func (ip *interp) mathCall(ex *lang.CallExpr) (value, error) {
	v, err := ip.eval(ex.Args[0])
	if err != nil {
		return value{}, err
	}
	if v.kind == vShared && ex.Func == "exp" {
		s, err := v.eng.engine.FixedExp(v.sec)
		if err != nil {
			return value{}, err
		}
		return value{kind: vShared, sec: s, eng: v.eng}, nil
	}
	if v.kind != vPublic {
		return value{}, fmt.Errorf("runtime: %s on %v", ex.Func, v.kind)
	}
	switch ex.Func {
	case "exp":
		return pub(fixed.Exp(v.num)), nil
	case "log2":
		if v.num <= 0 {
			return value{}, fmt.Errorf("runtime: log2 of non-positive value")
		}
		return pub(fixed.Log2(v.num)), nil
	case "sqrt":
		if v.num < 0 {
			return value{}, fmt.Errorf("runtime: sqrt of negative value")
		}
		return pub(fixed.Sqrt(v.num)), nil
	default:
		return value{}, fmt.Errorf("runtime: unknown math function %q", ex.Func)
	}
}
