package runtime

import (
	"fmt"

	"arboretum/internal/fixed"
	"arboretum/internal/lang"
	"arboretum/internal/mpc"
)

// binary evaluates a binary operator, dispatching on the operands'
// confidentiality: public×public stays local, a public operand meets shares
// locally where it can (constBinary), and anything else runs on shares in
// the committee MPC (the planner's cryptosystem rule of Section 4.5,
// enforced dynamically here).
func (ip *interp) binary(ex *lang.BinaryExpr) (value, error) {
	xv, err := ip.eval(ex.X)
	if err != nil {
		return value{}, err
	}
	yv, err := ip.eval(ex.Y)
	if err != nil {
		return value{}, err
	}
	if xv.isArr() || yv.isArr() {
		return value{}, fmt.Errorf("runtime: binary op on whole arrays")
	}
	// Fast path: both public.
	if xv.kind == vPublic && yv.kind == vPublic {
		return ip.publicBinary(ex.Op, xv.num, yv.num)
	}
	if v, ok := constBinary(ex.Op, xv, yv); ok {
		return v, nil
	}
	// Division by a public constant on a confidential value: scale by the
	// fixed-point reciprocal and truncate inside the MPC.
	if ex.Op == lang.QUO && yv.kind == vPublic {
		if yv.num == 0 {
			return value{}, fmt.Errorf("runtime: division by zero")
		}
		owner := ip.engineOf(xv)
		xs, err := ip.toSharedIn(owner, xv)
		if err != nil {
			return value{}, err
		}
		recip := fixed.One.Div(yv.num)
		scaled := owner.engine.MulConst(xs.sec, int64(recip))
		q, err := owner.engine.Trunc(scaled, fixed.FracBits)
		if err != nil {
			return value{}, err
		}
		return value{kind: vShared, sec: q, eng: owner}, nil
	}
	// Everything else runs on shares in the committee owning the operands.
	owner := ip.engineOf(xv, yv)
	xs, err := ip.toSharedIn(owner, xv)
	if err != nil {
		return value{}, err
	}
	ys, err := ip.toSharedIn(owner, yv)
	if err != nil {
		return value{}, err
	}
	return ip.sharedBinary(owner, ex.Op, xs.sec, ys.sec)
}

func (ip *interp) publicBinary(op lang.Token, x, y fixed.Fixed) (value, error) {
	b := func(cond bool) value {
		if cond {
			return pub(fixed.One)
		}
		return pub(0)
	}
	switch op {
	case lang.ADD:
		return pub(x.Add(y)), nil
	case lang.SUB:
		return pub(x.Sub(y)), nil
	case lang.MUL:
		return pub(x.Mul(y)), nil
	case lang.QUO:
		if y == 0 {
			return value{}, fmt.Errorf("runtime: division by zero")
		}
		return pub(x.Div(y)), nil
	case lang.LSS:
		return b(x < y), nil
	case lang.LEQ:
		return b(x <= y), nil
	case lang.GTR:
		return b(x > y), nil
	case lang.GEQ:
		return b(x >= y), nil
	case lang.EQL:
		return b(x == y), nil
	case lang.NEQ:
		return b(x != y), nil
	case lang.LAND:
		return b(x != 0 && y != 0), nil
	case lang.LOR:
		return b(x != 0 || y != 0), nil
	default:
		return value{}, fmt.Errorf("runtime: unknown operator %v", op)
	}
}

// constBinary applies a public operand to a shared one without a round: it
// adds or subtracts either way round (AddConst) and multiplies by a whole
// number (MulConst), exactly. ok=false leaves the rest to the MPC, whose
// products of fixed-point shares truncate.
func constBinary(op lang.Token, xv, yv value) (value, bool) {
	if xv.kind == vPublic && op != lang.SUB { // + and * commute
		xv, yv = yv, xv
	}
	sh, c := xv, yv
	if op == lang.SUB && xv.kind == vPublic {
		sh, c = yv, xv
	}
	if sh.kind != vShared || c.kind != vPublic {
		return value{}, false
	}
	e := sh.eng.engine
	var s mpc.Secret
	switch {
	case op == lang.ADD:
		s = e.AddConst(sh.sec, int64(c.num))
	case op == lang.SUB && xv.kind == vShared:
		s = e.AddConst(sh.sec, -int64(c.num))
	case op == lang.SUB:
		s = e.AddConst(e.MulConst(sh.sec, -1), int64(c.num))
	case op == lang.MUL && c.num%fixed.One == 0:
		s = e.MulConst(sh.sec, c.num.Int())
	default:
		return value{}, false
	}
	return value{kind: vShared, sec: s, eng: sh.eng}, true
}

func (ip *interp) sharedBinary(ce *committeeExec, op lang.Token, x, y mpc.Secret) (value, error) {
	e := ce.engine
	sh := func(s mpc.Secret) value { return value{kind: vShared, sec: s, eng: ce} }
	switch op {
	case lang.ADD:
		return sh(e.Add(x, y)), nil
	case lang.SUB:
		return sh(e.Sub(x, y)), nil
	case lang.MUL:
		p, err := e.FixedMul(x, y)
		if err != nil {
			return value{}, err
		}
		return sh(p), nil
	case lang.LSS:
		lt, err := e.Less(x, y)
		if err != nil {
			return value{}, err
		}
		return sh(e.MulConst(lt, int64(fixed.One))), nil
	case lang.GTR:
		gt, err := e.Less(y, x)
		if err != nil {
			return value{}, err
		}
		return sh(e.MulConst(gt, int64(fixed.One))), nil
	case lang.GEQ:
		lt, err := e.Less(x, y)
		if err != nil {
			return value{}, err
		}
		notLt := e.AddConst(e.MulConst(lt, -1), 1)
		return sh(e.MulConst(notLt, int64(fixed.One))), nil
	case lang.LEQ:
		gt, err := e.Less(y, x)
		if err != nil {
			return value{}, err
		}
		notGt := e.AddConst(e.MulConst(gt, -1), 1)
		return sh(e.MulConst(notGt, int64(fixed.One))), nil
	default:
		return value{}, fmt.Errorf("runtime: operator %v not supported on shares", op)
	}
}

// absShared computes |x| on shares: b = [x<0]; |x| = x − 2bx.
func (ip *interp) absShared(ce *committeeExec, x mpc.Secret) (mpc.Secret, error) {
	e := ce.engine
	b, err := e.LTZ(x)
	if err != nil {
		return mpc.Secret{}, err
	}
	bx := e.Mul(b, x)
	return e.Sub(x, e.MulConst(bx, 2)), nil
}

// clipShared clamps x into [lo, hi] with two compare-selects.
func (ip *interp) clipShared(ce *committeeExec, x mpc.Secret, lo, hi fixed.Fixed) (mpc.Secret, error) {
	e := ce.engine
	loS := e.JointFixed(lo)
	hiS := e.JointFixed(hi)
	below, err := e.Less(x, loS)
	if err != nil {
		return mpc.Secret{}, err
	}
	x = e.Select(below, loS, x)
	above, err := e.Less(hiS, x)
	if err != nil {
		return mpc.Secret{}, err
	}
	return e.Select(above, hiS, x), nil
}
