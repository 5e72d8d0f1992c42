package instrument

import "defuse/internal/lang"

// This file evaluates guards that read only parameters once per loop nest.
// Index-set splitting decides every guard conjunct over a loop iterator, but
// a conjunct over parameters alone (strsm's live-in "m - 1 >= 0", seidel's
// "tsteps - 2 >= 0") stays around each fold it guards and is tested once per
// cell. Its value never changes while the program runs, so an int register
// bound above the nest's outermost loop holds it, and the guard tests the
// register.

// hoistParamGuards returns prog's body with every guard inside a loop nest
// whose condition reads only parameters testing a register bound before the
// nest. A nest is a for loop outside every other for loop except the kernel
// loop (see lang.KernelLoop), which is not a nest itself: a register bound at
// the top level sits in the epoch prologue or epilogue, beside the nest that
// reads it, and a guard directly in the kernel loop's body is tested once per
// kernel iteration already.
func hoistParamGuards(prog *lang.Program, names *names) []lang.Stmt {
	_, kernel, _ := lang.KernelLoop(prog.Body)
	h := hoister{prog: prog, names: names}
	return h.nests(prog.Body, kernel)
}

type hoister struct {
	prog  *lang.Program
	names *names
}

// nests rewrites a statement list whose for loops are nest roots; kernel,
// when in the list, is not one, but the loops in its body are.
func (h hoister) nests(ss []lang.Stmt, kernel *lang.For) []lang.Stmt {
	var out []lang.Stmt
	for _, s := range ss {
		switch x := s.(type) {
		case *lang.For:
			if x == kernel {
				out = append(out, &lang.For{Pos: x.Pos, Iter: x.Iter, Lo: x.Lo, Hi: x.Hi, Body: h.nests(x.Body, nil)})
				continue
			}
			regs := map[string]string{}
			var lets []lang.Stmt
			body := h.replace(x.Body, regs, &lets)
			out = append(append(out, lets...), &lang.For{Pos: x.Pos, Iter: x.Iter, Lo: x.Lo, Hi: x.Hi, Body: body})
		case *lang.While:
			out = append(out, &lang.While{Pos: x.Pos, Cond: x.Cond, Body: h.nests(x.Body, nil)})
		case *lang.If:
			out = append(out, &lang.If{Pos: x.Pos, Cond: x.Cond, Then: h.nests(x.Then, nil), Else: h.nests(x.Else, nil)})
		default:
			out = append(out, s)
		}
	}
	return out
}

// replace rebuilds ss with each parameter-only guard condition replaced by
// its register, appending a Let for each condition's first use to lets.
func (h hoister) replace(ss []lang.Stmt, regs map[string]string, lets *[]lang.Stmt) []lang.Stmt {
	var out []lang.Stmt
	for _, s := range ss {
		switch x := s.(type) {
		case *lang.For:
			out = append(out, &lang.For{Pos: x.Pos, Iter: x.Iter, Lo: x.Lo, Hi: x.Hi, Body: h.replace(x.Body, regs, lets)})
		case *lang.While:
			out = append(out, &lang.While{Pos: x.Pos, Cond: x.Cond, Body: h.replace(x.Body, regs, lets)})
		case *lang.If:
			cond := x.Cond
			if h.paramOnly(cond) {
				key := lang.ExprString(cond)
				reg, ok := regs[key]
				if !ok {
					reg = h.names.fresh("guard")
					regs[key] = reg
					*lets = append(*lets, &lang.Let{Pos: x.Pos, Name: reg, Type: lang.TypeInt, Value: lang.CloneExpr(cond)})
				}
				cond = &lang.Ref{Pos: x.Pos, Name: reg}
			}
			out = append(out, &lang.If{Pos: x.Pos, Cond: cond, Then: h.replace(x.Then, regs, lets), Else: h.replace(x.Else, regs, lets)})
		default:
			out = append(out, s)
		}
	}
	return out
}

// paramOnly reports whether e reads parameters and nothing else.
func (h hoister) paramOnly(e lang.Expr) bool {
	refs := lang.ExprRefs(e)
	for _, r := range refs {
		if !h.prog.IsParam(r.Name) {
			return false
		}
	}
	return len(refs) > 0
}
