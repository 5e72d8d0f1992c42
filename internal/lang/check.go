package lang

import "fmt"

// SemanticError reports a semantic (name/type/shape) problem.
type SemanticError struct {
	Pos Pos
	Msg string
}

func (e *SemanticError) Error() string {
	return fmt.Sprintf("lang: %s: %s", e.Pos, e.Msg)
}

// Check performs semantic analysis: every reference resolves to a parameter,
// declaration, in-scope loop iterator or in-scope register; no iterator or
// register shadows another name; subscript arity matches the declaration;
// iterators, parameters and float registers are not assigned, and an int
// register only by "="; subscripts and loop bounds are integer-typed.
func Check(p *Program) error {
	c := &checker{prog: p, scopes: []map[string]bool{{}}}
	seen := map[string]bool{}
	for _, q := range p.Params {
		if seen[q] {
			return &SemanticError{Msg: fmt.Sprintf("duplicate parameter %q", q)}
		}
		seen[q] = true
	}
	for _, d := range p.Decls {
		if seen[d.Name] {
			return &SemanticError{Pos: d.Pos, Msg: fmt.Sprintf("duplicate declaration of %q", d.Name)}
		}
		seen[d.Name] = true
		for _, dim := range d.Dims {
			if err := c.checkExpr(dim, true); err != nil {
				return err
			}
		}
	}
	return c.checkStmts(p.Body)
}

type checker struct {
	prog   *Program
	scopes []map[string]bool // loop iterators in scope
	regs   []map[string]Type // registers bound in each open statement list
}

// reg returns the type of the in-scope register name.
func (c *checker) reg(name string) (Type, bool) {
	for _, s := range c.regs {
		if t, ok := s[name]; ok {
			return t, true
		}
	}
	return 0, false
}

// bound reports whether name already names a parameter, declaration,
// in-scope iterator or in-scope register.
func (c *checker) bound(name string) bool {
	_, isReg := c.reg(name)
	return isReg || c.prog.IsParam(name) || c.prog.Decl(name) != nil || c.iterInScope(name)
}

func (c *checker) iterInScope(name string) bool {
	for _, s := range c.scopes {
		if s[name] {
			return true
		}
	}
	return false
}

func (c *checker) checkStmts(ss []Stmt) error {
	c.regs = append(c.regs, map[string]Type{})
	defer func() { c.regs = c.regs[:len(c.regs)-1] }()
	for _, s := range ss {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch x := s.(type) {
	case *Assign:
		if err := c.checkTarget(x); err != nil {
			return err
		}
		return c.checkExpr(x.RHS, false)
	case *For:
		if c.bound(x.Iter) {
			return &SemanticError{Pos: x.Pos, Msg: fmt.Sprintf("loop iterator %q shadows an existing name", x.Iter)}
		}
		if err := c.checkExpr(x.Lo, true); err != nil {
			return err
		}
		if err := c.checkExpr(x.Hi, true); err != nil {
			return err
		}
		c.scopes = append(c.scopes, map[string]bool{x.Iter: true})
		err := c.checkStmts(x.Body)
		c.scopes = c.scopes[:len(c.scopes)-1]
		return err
	case *While:
		if err := c.checkExpr(x.Cond, false); err != nil {
			return err
		}
		return c.checkStmts(x.Body)
	case *If:
		if err := c.checkExpr(x.Cond, false); err != nil {
			return err
		}
		if err := c.checkStmts(x.Then); err != nil {
			return err
		}
		return c.checkStmts(x.Else)
	case *AddToChecksum:
		if err := c.checkExpr(x.Value, false); err != nil {
			return err
		}
		return c.checkExpr(x.Count, false)
	case *Let:
		if err := c.checkExpr(x.Value, false); err != nil {
			return err
		}
		if c.bound(x.Name) {
			return &SemanticError{Pos: x.Pos, Msg: fmt.Sprintf("register %q shadows an existing name", x.Name)}
		}
		c.regs[len(c.regs)-1][x.Name] = x.Type
		return nil
	case *AssertChecksums:
		return nil
	}
	return &SemanticError{Msg: fmt.Sprintf("unknown statement %T", s)}
}

// checkTarget validates an assignment's target: a declared variable, or an
// in-scope int register assigned by "=" (the value converts as a Let's
// does).
func (c *checker) checkTarget(x *Assign) error {
	r := x.LHS
	if c.prog.IsParam(r.Name) {
		return &SemanticError{Pos: r.Pos, Msg: fmt.Sprintf("cannot assign to parameter %q", r.Name)}
	}
	if c.iterInScope(r.Name) {
		return &SemanticError{Pos: r.Pos, Msg: fmt.Sprintf("cannot assign to loop iterator %q", r.Name)}
	}
	if t, ok := c.reg(r.Name); ok {
		switch {
		case t != TypeInt:
			return &SemanticError{Pos: r.Pos, Msg: fmt.Sprintf("cannot assign to float register %q", r.Name)}
		case len(r.Indices) != 0:
			return &SemanticError{Pos: r.Pos, Msg: fmt.Sprintf("%q is not an array", r.Name)}
		case x.Op != OpSet:
			return &SemanticError{Pos: r.Pos, Msg: fmt.Sprintf("register %q is assigned only by \"=\"", r.Name)}
		}
		return nil
	}
	d := c.prog.Decl(r.Name)
	if d == nil {
		return &SemanticError{Pos: r.Pos, Msg: fmt.Sprintf("assignment to undeclared variable %q", r.Name)}
	}
	if len(r.Indices) != len(d.Dims) {
		return &SemanticError{Pos: r.Pos, Msg: fmt.Sprintf(
			"%q has %d dimension(s), reference uses %d subscript(s)", r.Name, len(d.Dims), len(r.Indices))}
	}
	for _, ix := range r.Indices {
		if err := c.checkExpr(ix, true); err != nil {
			return err
		}
	}
	return nil
}

// checkExpr validates an expression; wantInt demands integer type (subscript
// and bound positions).
func (c *checker) checkExpr(e Expr, wantInt bool) error {
	switch x := e.(type) {
	case *IntLit:
		return nil
	case *FloatLit:
		if wantInt {
			return &SemanticError{Pos: x.Pos, Msg: "float literal in integer context"}
		}
		return nil
	case *Ref:
		return c.checkRefRead(x, wantInt)
	case *Bin:
		if x.Op.IsComparison() || x.Op.IsLogical() {
			if wantInt {
				return &SemanticError{Pos: x.Pos, Msg: "boolean expression in integer context"}
			}
			return firstErr(c.checkExpr(x.L, false), c.checkExpr(x.R, false))
		}
		return firstErr(c.checkExpr(x.L, wantInt), c.checkExpr(x.R, wantInt))
	case *Un:
		if x.Op == UnNot && wantInt {
			return &SemanticError{Pos: x.Pos, Msg: "boolean expression in integer context"}
		}
		return c.checkExpr(x.X, wantInt && x.Op == UnNeg)
	case *Call:
		// min and max are usable in integer contexts (index-set split loop
		// bounds are expressions like min(hi, n-2)); other intrinsics are
		// floating-point only.
		if wantInt && x.Name != "min" && x.Name != "max" {
			return &SemanticError{Pos: x.Pos, Msg: fmt.Sprintf("call to %s in integer context", x.Name)}
		}
		arity, ok := Intrinsics[x.Name]
		if !ok {
			return &SemanticError{Pos: x.Pos, Msg: fmt.Sprintf("unknown intrinsic %q", x.Name)}
		}
		if len(x.Args) != arity {
			return &SemanticError{Pos: x.Pos, Msg: fmt.Sprintf("%s takes %d argument(s)", x.Name, arity)}
		}
		for _, a := range x.Args {
			if err := c.checkExpr(a, wantInt); err != nil {
				return err
			}
		}
		return nil
	}
	return &SemanticError{Msg: fmt.Sprintf("unknown expression %T", e)}
}

func (c *checker) checkRefRead(r *Ref, wantInt bool) error {
	if t, ok := c.reg(r.Name); ok {
		if len(r.Indices) != 0 {
			return &SemanticError{Pos: r.Pos, Msg: fmt.Sprintf("%q is not an array", r.Name)}
		}
		if wantInt && t != TypeInt {
			return &SemanticError{Pos: r.Pos, Msg: fmt.Sprintf("float register %q in integer context", r.Name)}
		}
		return nil
	}
	if c.prog.IsParam(r.Name) || c.iterInScope(r.Name) {
		if len(r.Indices) != 0 {
			return &SemanticError{Pos: r.Pos, Msg: fmt.Sprintf("%q is not an array", r.Name)}
		}
		return nil
	}
	d := c.prog.Decl(r.Name)
	if d == nil {
		return &SemanticError{Pos: r.Pos, Msg: fmt.Sprintf("undeclared identifier %q", r.Name)}
	}
	if len(r.Indices) != len(d.Dims) {
		return &SemanticError{Pos: r.Pos, Msg: fmt.Sprintf(
			"%q has %d dimension(s), reference uses %d subscript(s)", r.Name, len(d.Dims), len(r.Indices))}
	}
	if wantInt && d.Type != TypeInt {
		return &SemanticError{Pos: r.Pos, Msg: fmt.Sprintf("float variable %q in integer context", r.Name)}
	}
	for _, ix := range r.Indices {
		if err := c.checkExpr(ix, true); err != nil {
			return err
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// IsAffine reports whether e is an affine combination of integer literals,
// parameters, and variables accepted by isVar (typically loop iterators):
// sums/differences of terms, with multiplication restricted to a constant
// times an affine expression.
func IsAffine(e Expr, isVar func(name string) bool) bool {
	affine, _ := classifyAffine(e, isVar)
	return affine
}

// classifyAffine reports (affine, constant) for e.
func classifyAffine(e Expr, isVar func(string) bool) (affine, constant bool) {
	switch x := e.(type) {
	case *IntLit:
		return true, true
	case *FloatLit:
		return false, false
	case *Ref:
		if len(x.Indices) == 0 && isVar(x.Name) {
			return true, false
		}
		return false, false
	case *Un:
		if x.Op != UnNeg {
			return false, false
		}
		return classifyAffine(x.X, isVar)
	case *Bin:
		la, lc := classifyAffine(x.L, isVar)
		ra, rc := classifyAffine(x.R, isVar)
		switch x.Op {
		case BinAdd, BinSub:
			return la && ra, lc && rc
		case BinMul:
			// Affine iff one side is a constant.
			return la && ra && (lc || rc), lc && rc
		default:
			return false, false
		}
	}
	return false, false
}
