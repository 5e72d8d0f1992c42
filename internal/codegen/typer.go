package codegen

import (
	"fmt"

	"defuse/internal/lang"
)

// Static typing for lowered expressions.
//
// The interpreter types values dynamically, but on a checked program the
// dynamic type of every expression is a pure function of its static
// structure: literals carry their type, variables and registers carry their
// declared type, parameters and iterators are integers, and every operator's result type
// depends only on its operand types (lang.Check rules out the constructs —
// iterator shadowing, floats leaking into integer contexts — that could make
// this context-sensitive). That function is exprIsInt; the compiler and the
// source generator both consult it, so the native backend's static types
// agree with the interpreter's dynamic ones by construction. This is one of
// the oracle-equivalence invariants documented in DESIGN.md §10.

// typeEnv resolves a name to its integer-ness: declared variables and
// registers from their declaration, parameters and loop iterators always
// integer.
type typeEnv struct {
	vars  map[string]bool // name → isInt for declared variables
	iters map[string]bool // in-scope loop iterators (always int)
	regs  map[string]bool // in-scope registers → isInt
}

func newTypeEnv(prog *lang.Program) *typeEnv {
	env := &typeEnv{vars: map[string]bool{}, iters: map[string]bool{}, regs: map[string]bool{}}
	for _, d := range prog.Decls {
		env.vars[d.Name] = d.Type == lang.TypeInt
	}
	return env
}

// nameIsInt reports whether a bare name holds an integer. Parameters and
// iterators are integers; anything else must be a register or a declared
// variable (Check guarantees it).
func (env *typeEnv) nameIsInt(name string) bool {
	if env.iters[name] {
		return true
	}
	if isInt, ok := env.regs[name]; ok {
		return isInt
	}
	if isInt, ok := env.vars[name]; ok {
		return isInt
	}
	// Not a declared variable or live iterator: a parameter (integer).
	return true
}

// exprIsInt reports whether e evaluates to an integer value under interp's
// dynamic typing rules.
func (env *typeEnv) exprIsInt(e lang.Expr) bool {
	switch ex := e.(type) {
	case *lang.IntLit:
		return true
	case *lang.FloatLit:
		return false
	case *lang.Ref:
		return env.nameIsInt(ex.Name)
	case *lang.Bin:
		switch ex.Op {
		case lang.BinEq, lang.BinNe, lang.BinLt, lang.BinLe, lang.BinGt, lang.BinGe,
			lang.BinAnd, lang.BinOr:
			// Comparisons and logical operators yield 0/1 integers.
			return true
		case lang.BinMod:
			// A successful %% is integer; float operands abort at runtime
			// before any result exists, so the static type is moot there.
			return true
		default:
			// +,-,*,/ follow numOp: integer iff both operands are.
			return env.exprIsInt(ex.L) && env.exprIsInt(ex.R)
		}
	case *lang.Un:
		if ex.Op == lang.UnNot {
			return true
		}
		return env.exprIsInt(ex.X)
	case *lang.Call:
		switch ex.Name {
		case "sqrt":
			return false
		case "abs":
			return env.exprIsInt(ex.Args[0])
		default: // min, max: numOp typing
			return env.exprIsInt(ex.Args[0]) && env.exprIsInt(ex.Args[1])
		}
	default:
		panic(fmt.Sprintf("codegen: unknown expression %T", e))
	}
}

// evalConstInt evaluates a declaration-dimension expression over the bound
// parameters at machine-construction time, mirroring the integer subset of
// interp's evaluator. Check restricts dimension expressions to integer
// literals, parameters, integer arithmetic, and min/max, so this evaluator
// is total on checked programs.
func (m *Machine) evalConstInt(e lang.Expr) (int64, error) {
	switch ex := e.(type) {
	case *lang.IntLit:
		return ex.Val, nil
	case *lang.Ref:
		if len(ex.Indices) != 0 {
			return 0, fmt.Errorf("%s: subscript in constant context", ex.Pos)
		}
		v, ok := m.LookupParam(ex.Name)
		if !ok {
			return 0, fmt.Errorf("%s: %q is not a parameter", ex.Pos, ex.Name)
		}
		return v, nil
	case *lang.Un:
		x, err := m.evalConstInt(ex.X)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case lang.UnNeg:
			return -x, nil
		default:
			return B2I(x == 0), nil
		}
	case *lang.Bin:
		l, err := m.evalConstInt(ex.L)
		if err != nil {
			return 0, err
		}
		r, err := m.evalConstInt(ex.R)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case lang.BinAdd:
			return l + r, nil
		case lang.BinSub:
			return l - r, nil
		case lang.BinMul:
			return l * r, nil
		case lang.BinDiv:
			if r == 0 {
				return 0, fmt.Errorf("%s: division by zero", ex.Pos)
			}
			return l / r, nil
		case lang.BinMod:
			if r == 0 {
				return 0, fmt.Errorf("%s: modulo by zero", ex.Pos)
			}
			return l % r, nil
		case lang.BinEq:
			return B2I(l == r), nil
		case lang.BinNe:
			return B2I(l != r), nil
		case lang.BinLt:
			return B2I(l < r), nil
		case lang.BinLe:
			return B2I(l <= r), nil
		case lang.BinGt:
			return B2I(l > r), nil
		case lang.BinGe:
			return B2I(l >= r), nil
		case lang.BinAnd:
			return B2I(l != 0 && r != 0), nil
		default:
			return B2I(l != 0 || r != 0), nil
		}
	case *lang.Call:
		if len(ex.Args) != 2 {
			return 0, fmt.Errorf("%s: %s in constant context", ex.Pos, ex.Name)
		}
		l, err := m.evalConstInt(ex.Args[0])
		if err != nil {
			return 0, err
		}
		r, err := m.evalConstInt(ex.Args[1])
		if err != nil {
			return 0, err
		}
		switch ex.Name {
		case "min":
			return MinI(l, r), nil
		case "max":
			return MaxI(l, r), nil
		default:
			return 0, fmt.Errorf("%s: %s in constant context", ex.Pos, ex.Name)
		}
	default:
		return 0, fmt.Errorf("constant context: unknown expression %T", e)
	}
}
