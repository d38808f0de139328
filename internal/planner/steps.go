// Package planner implements Arboretum's query planner (Section 4): it
// admits a query through the one front end (privacy.Admit), expands each abstract operator into candidate
// concrete implementations (Section 4.3), splits the work into vignettes
// assigned to the aggregator, committees, or devices (Section 4.4), adds
// encryption according to the taint analysis (Section 4.5), scores every
// candidate with the cost model, and returns the best plan under the
// analyst's limits, using branch-and-bound to prune the search (Section 4.6).
//
// The search granularity is the logical step (an operator occurrence or a
// fused block of scalar computation): each step contributes candidate
// (implementation × location × parameter) options, which name their
// vignettes by index into the search's one pool (options.go), and a candidate
// plan is one choice per step (per step kind when planning for execution,
// Request.ExecutableOnly). This is the design space the paper describes —
// operator instantiations (sum trees of different fanouts, the two em
// variants of Figure 4), placement, and cryptosystem — searched with pruning.
//
// # Thread safety
//
// Plan is safe to call concurrently: every call builds its own scorer, pool
// and search state, and only reads the label tables built at init. The
// search is one branch-and-bound DFS (search.go) on the calling goroutine, so
// a plan's Stats repeat exactly. The one mutable state calls share is the
// committee-size memo (score.go, sizeTable), whose entries are atomics that
// racing fills set to equal values.
package planner

import (
	"fmt"
	"math"

	"arboretum/internal/lang"
	"arboretum/internal/types"
)

// stepKind classifies a logical step.
type stepKind int

const (
	stepInput   stepKind = iota // devices encrypt inputs + prove well-formedness
	stepSample                  // secrecy-of-the-sample bin selection
	stepSum                     // aggregate the database
	stepCompute                 // per-element computation over a C-vector
	stepNoise                   // add Laplace noise to C values and decrypt
	stepEM                      // exponential mechanism over C scores
	stepTopK                    // top-k selection over C scores
	stepMaxSel                  // max/argmax over C encrypted values
	stepOutput                  // publish the result
)

func (k stepKind) String() string {
	switch k {
	case stepInput:
		return "input"
	case stepSample:
		return "sample"
	case stepSum:
		return "sum"
	case stepCompute:
		return "compute"
	case stepNoise:
		return "noise"
	case stepEM:
		return "em"
	case stepTopK:
		return "topk"
	case stepMaxSel:
		return "maxsel"
	case stepOutput:
		return "output"
	default:
		return fmt.Sprintf("step(%d)", int(k))
	}
}

// opTally counts primitive operations in a compute step, per element.
type opTally struct {
	adds, mults, divs, cmps, exps int64
}

func (o opTally) total() int64 {
	return o.adds + o.mults + o.divs + o.cmps + o.exps
}

// addTimes folds k repetitions of t into o: a loop body's tally times its
// trip count. Neither can overflow on a program privacy.Admit took: a body
// counts at most one operation per token (lang's cap, 2^16), and admission
// refuses a loop nest that runs its body more than 2^20 times, so a tally is
// below 2^36.
func (o *opTally) addTimes(t opTally, k int64) {
	o.adds += t.adds * k
	o.mults += t.mults * k
	o.divs += t.divs * k
	o.cmps += t.cmps * k
	o.exps += t.exps * k
}

// satMul is a·b for non-negative a and b, saturating at math.MaxInt64.
func satMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// step is one logical step of the query with its shape parameters.
type step struct {
	kind stepKind
	desc string
	c    int64   // width: number of values involved
	k    int64   // top-k's k
	ops  opTally // per-element operations (compute steps)
}

// decompose turns a certified program into the logical step sequence the
// search runs over. It recognizes the operator patterns of the evaluation
// queries; unrecognized constructs fold into compute steps conservatively.
func decompose(p *lang.Program, info *types.Info) ([]step, error) {
	d := &decomposer{info: info}
	d.steps = append(d.steps, step{kind: stepInput, desc: "encrypt inputs", c: info.DB.Width})
	if err := d.walk(p.Stmts); err != nil {
		return nil, err
	}
	d.flushCompute()
	if !d.sawOutput {
		if !containsCall(p.Stmts, "output") {
			return nil, fmt.Errorf("planner: query has no output step")
		}
		// The output call sits where the walk does not make steps (inside a
		// branch, or as a subexpression): the release is a publish step all
		// the same, so every query the front end admits has a plan.
		d.steps = append(d.steps, step{kind: stepOutput, desc: "publish result", c: 1})
	}
	// Move the sample step (if any) right after input: sampling shapes how
	// devices upload (Section 6's bin protocol).
	ordered := make([]step, 0, len(d.steps))
	var sample *step
	for i := range d.steps {
		if d.steps[i].kind == stepSample && sample == nil {
			sample = &d.steps[i]
			continue
		}
		ordered = append(ordered, d.steps[i])
	}
	if sample != nil {
		out := make([]step, 0, len(ordered)+1)
		out = append(out, ordered[0], *sample)
		out = append(out, ordered[1:]...)
		ordered = out
	}
	return ordered, nil
}

type decomposer struct {
	info      *types.Info
	steps     []step
	pending   opTally // accumulating scalar compute work
	pendingC  int64
	sawOutput bool
}

func (d *decomposer) flushCompute() {
	if d.pending.total() > 0 {
		c := d.pendingC
		if c < 1 {
			c = 1
		}
		d.steps = append(d.steps, step{kind: stepCompute, desc: "scalar computation", c: c, ops: d.pending})
		d.pending = opTally{}
		d.pendingC = 0
	}
}

func (d *decomposer) widthOf(e lang.Expr) int64 {
	if t, ok := d.info.TypeOf(e); ok && t.Array && t.Len > 0 {
		return t.Len
	}
	return 1
}

func (d *decomposer) walk(stmts []lang.Stmt) error {
	for _, s := range stmts {
		if err := d.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (d *decomposer) stmt(s lang.Stmt) error {
	switch st := s.(type) {
	case *lang.AssignStmt:
		if mech := d.mechanismOf(st.Value); mech != nil {
			d.flushCompute()
			d.steps = append(d.steps, *mech)
			return nil
		}
		// Plain computation: tally its operations.
		t := opTally{}
		tallyExpr(st.Value, &t)
		if st.Index != nil {
			tallyExpr(st.Index, &t)
		}
		d.pending.adds += t.adds
		d.pending.mults += t.mults
		d.pending.divs += t.divs
		d.pending.cmps += t.cmps
		d.pending.exps += t.exps
		if w := d.widthOf(st.Value); w > d.pendingC {
			d.pendingC = w
		}
		return nil
	case *lang.ExprStmt:
		if call, ok := st.X.(*lang.CallExpr); ok {
			switch call.Func {
			case "output":
				d.flushCompute()
				d.sawOutput = true
				d.steps = append(d.steps, step{kind: stepOutput, desc: "publish result", c: 1})
				return nil
			case "sampleUniform":
				d.flushCompute()
				rate := 0.5
				if f, ok := call.Args[0].(*lang.FloatLit); ok {
					rate = f.Value
				}
				d.steps = append(d.steps, step{
					kind: stepSample,
					desc: fmt.Sprintf("secrecy of the sample (rate %g)", rate),
					c:    1,
				})
				return nil
			}
		}
		if mech := d.mechanismOf(st.X); mech != nil {
			d.flushCompute()
			d.steps = append(d.steps, *mech)
			return nil
		}
		t := opTally{}
		tallyExpr(st.X, &t)
		d.pending.adds += t.adds
		d.pending.mults += t.mults
		return nil
	case *lang.ForStmt:
		// A mechanism or output inside a loop becomes one step per abstract
		// operator occurrence with the loop's width folded in; pure loops
		// fold to compute work.
		iters := d.info.LoopIters(st)
		if containsMechanism(st.Body) || containsCall(st.Body, "output") ||
			containsCall(st.Body, "sampleUniform") {
			d.flushCompute()
			return d.walkScaled(st.Body, iters)
		}
		t := opTally{}
		for _, b := range st.Body {
			tallyStmt(b, &t)
		}
		d.pending.addTimes(t, iters)
		if iters > d.pendingC {
			d.pendingC = iters
		}
		return nil
	case *lang.IfStmt:
		t := opTally{cmps: 1}
		tallyExpr(st.Cond, &t)
		for _, b := range st.Then {
			tallyStmt(b, &t)
		}
		for _, b := range st.Else {
			tallyStmt(b, &t)
		}
		d.pending.adds += t.adds
		d.pending.mults += t.mults
		d.pending.cmps += t.cmps
		d.pending.exps += t.exps
		return nil
	default:
		return fmt.Errorf("planner: unsupported statement %T", s)
	}
}

// walkScaled handles loop bodies containing mechanisms: each mechanism
// occurrence is emitted once with the loop width folded into c.
func (d *decomposer) walkScaled(stmts []lang.Stmt, iters int64) error {
	for _, s := range stmts {
		if as, ok := s.(*lang.AssignStmt); ok {
			if mech := d.mechanismOf(as.Value); mech != nil {
				m := *mech
				// A width is an array length: Request.N or Request.Categories,
				// which the caller sets and nothing bounds, or an index range
				// of the program. So this product can overflow where no
				// tally can.
				m.c = max(satMul(m.c, iters), 1)
				d.steps = append(d.steps, m)
				continue
			}
		}
		if err := d.stmt(s); err != nil {
			return err
		}
	}
	d.flushCompute()
	return nil
}

// mechanismOf recognizes an expression that is (or wraps) a mechanism or
// aggregate call and returns the corresponding step.
func (d *decomposer) mechanismOf(e lang.Expr) *step {
	call, ok := e.(*lang.CallExpr)
	if !ok {
		// declassify(em(...)) and similar wrappers.
		if u, isU := e.(*lang.UnaryExpr); isU {
			return d.mechanismOf(u.X)
		}
		return nil
	}
	switch call.Func {
	case "sum":
		if id, isID := call.Args[0].(*lang.Ident); isID && id.Name == "db" {
			return &step{kind: stepSum, desc: "aggregate database", c: d.info.DB.Width}
		}
		return nil
	case "em":
		return &step{kind: stepEM, desc: "exponential mechanism", c: d.widthOf(call.Args[0])}
	case "topk":
		k := int64(1)
		if lit, isLit := call.Args[1].(*lang.IntLit); isLit {
			k = lit.Value
		}
		return &step{kind: stepTopK, desc: fmt.Sprintf("top-%d selection", k), c: d.widthOf(call.Args[0]), k: k}
	case "laplace":
		return &step{kind: stepNoise, desc: "laplace noise + decrypt", c: d.widthOf(call.Args[0])}
	case "max", "argmax":
		return &step{kind: stepMaxSel, desc: call.Func + " selection", c: d.widthOf(call.Args[0])}
	case "declassify":
		return d.mechanismOf(call.Args[0])
	default:
		return nil
	}
}

func containsCall(stmts []lang.Stmt, fn string) bool {
	found := false
	lang.WalkExprs(stmts, func(e lang.Expr) {
		if call, ok := e.(*lang.CallExpr); ok && call.Func == fn {
			found = true
		}
	})
	return found
}

func containsMechanism(stmts []lang.Stmt) bool {
	found := false
	lang.WalkExprs(stmts, func(e lang.Expr) {
		if call, ok := e.(*lang.CallExpr); ok {
			switch call.Func {
			case "em", "topk", "laplace", "max", "argmax", "sum":
				found = true
			}
		}
	})
	return found
}

// tallyStmt counts primitive operations in a statement subtree.
func tallyStmt(s lang.Stmt, t *opTally) {
	switch st := s.(type) {
	case *lang.AssignStmt:
		tallyExpr(st.Value, t)
		if st.Index != nil {
			tallyExpr(st.Index, t)
		}
	case *lang.ExprStmt:
		tallyExpr(st.X, t)
	case *lang.ForStmt:
		inner := opTally{}
		for _, b := range st.Body {
			tallyStmt(b, &inner)
		}
		// Nested loop: scale conservatively by a static bound of the range.
		t.adds += inner.adds
		t.mults += inner.mults
		t.divs += inner.divs
		t.cmps += inner.cmps
		t.exps += inner.exps
	case *lang.IfStmt:
		t.cmps++
		tallyExpr(st.Cond, t)
		for _, b := range st.Then {
			tallyStmt(b, t)
		}
		for _, b := range st.Else {
			tallyStmt(b, t)
		}
	}
}

func tallyExpr(e lang.Expr, t *opTally) {
	switch ex := e.(type) {
	case *lang.BinaryExpr:
		switch ex.Op {
		case lang.ADD, lang.SUB:
			t.adds++
		case lang.MUL:
			t.mults++
		case lang.QUO:
			t.divs++
		case lang.LSS, lang.LEQ, lang.GTR, lang.GEQ, lang.EQL, lang.NEQ:
			t.cmps++
		}
		tallyExpr(ex.X, t)
		tallyExpr(ex.Y, t)
	case *lang.UnaryExpr:
		tallyExpr(ex.X, t)
	case *lang.IndexExpr:
		tallyExpr(ex.X, t)
		tallyExpr(ex.Index, t)
	case *lang.CallExpr:
		switch ex.Func {
		case "exp":
			t.exps++
		case "abs", "clip":
			// Absolute value and clipping need comparisons under encryption.
			t.cmps++
		}
		for _, a := range ex.Args {
			tallyExpr(a, t)
		}
	}
}
