package lang

import "fmt"

// Type is the element type of a variable.
type Type int

// Variable element types.
const (
	TypeFloat Type = iota
	TypeInt
)

// String returns the source keyword for the type.
func (t Type) String() string {
	if t == TypeInt {
		return "int"
	}
	return "float"
}

// Program is a parsed program: integer parameters, variable declarations
// (arrays and scalars), and a statement body.
type Program struct {
	Name   string
	Params []string
	Decls  []*VarDecl
	Body   []Stmt
}

// Decl returns the declaration of name, or nil.
func (p *Program) Decl(name string) *VarDecl {
	for _, d := range p.Decls {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// IsParam reports whether name is a program parameter.
func (p *Program) IsParam(name string) bool {
	for _, q := range p.Params {
		if q == name {
			return true
		}
	}
	return false
}

// VarDecl declares an array (len(Dims) > 0) or scalar (len(Dims) == 0).
type VarDecl struct {
	Pos  Pos
	Name string
	Type Type
	Dims []Expr // sizes, affine in parameters
}

// IsArray reports whether the declaration is an array.
func (d *VarDecl) IsArray() bool { return len(d.Dims) > 0 }

// CSName identifies one of the four global checksums.
type CSName int

// The four checksum accumulators of the scheme.
const (
	DefCS CSName = iota
	UseCS
	EDefCS
	EUseCS
)

var csNames = [...]string{"def_cs", "use_cs", "e_def_cs", "e_use_cs"}

// String returns the source name of the checksum.
func (c CSName) String() string {
	if int(c) < len(csNames) {
		return csNames[c]
	}
	return fmt.Sprintf("CSName(%d)", int(c))
}

// ParseCSName maps a source identifier to a checksum name.
func ParseCSName(s string) (CSName, bool) {
	for i, n := range csNames {
		if n == s {
			return CSName(i), true
		}
	}
	return 0, false
}

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	StmtPos() Pos
}

// AssignOp is an assignment operator.
type AssignOp int

// Assignment operators.
const (
	OpSet AssignOp = iota // =
	OpAdd                 // +=
	OpSub                 // -=
	OpMul                 // *=
	OpDiv                 // /=
)

var assignOpNames = [...]string{"=", "+=", "-=", "*=", "/="}

// String returns the operator's source text.
func (op AssignOp) String() string { return assignOpNames[op] }

// Assign is "lhs op rhs;", optionally labeled ("S1: ...").
type Assign struct {
	Pos   Pos
	Label string
	LHS   *Ref
	Op    AssignOp
	RHS   Expr
}

// For is an inclusive-bound counted loop "for i = lo to hi { ... }".
type For struct {
	Pos  Pos
	Iter string
	Lo   Expr
	Hi   Expr
	Body []Stmt
}

// While is a condition-controlled loop.
type While struct {
	Pos  Pos
	Cond Expr
	Body []Stmt
}

// If is a conditional with optional else branch.
type If struct {
	Pos  Pos
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// AddToChecksum is the instrumentation primitive
// "add_to_chksm(cs, value, count);": fold value into checksum cs, count
// times (count is evaluated at runtime and may be negative).
type AddToChecksum struct {
	Pos   Pos
	CS    CSName
	Value Expr
	Count Expr
}

// Let is "float r = value;" (or "int r = value;") in a statement list: it
// binds the register r for the rest of the list. The value converts to the
// register's type exactly as a store to a variable of that type would. A
// register is never allocated in simulated memory, so, like a loop iterator,
// it is outside the fault model (Section 2.2). The instrumenter loads a
// statement's operands into registers so that the statement and its checksum
// folds consume the same loaded values (Section 5).
type Let struct {
	Pos   Pos
	Name  string
	Type  Type
	Value Expr
}

// AssertChecksums is "assert_checksums();": the verifier comparing def/use
// and e_def/e_use.
type AssertChecksums struct {
	Pos Pos
}

func (*Assign) stmtNode()          {}
func (*For) stmtNode()             {}
func (*While) stmtNode()           {}
func (*If) stmtNode()              {}
func (*AddToChecksum) stmtNode()   {}
func (*Let) stmtNode()             {}
func (*AssertChecksums) stmtNode() {}

// StmtPos returns the statement's source position.
func (s *Assign) StmtPos() Pos          { return s.Pos }
func (s *For) StmtPos() Pos             { return s.Pos }
func (s *While) StmtPos() Pos           { return s.Pos }
func (s *If) StmtPos() Pos              { return s.Pos }
func (s *AddToChecksum) StmtPos() Pos   { return s.Pos }
func (s *Let) StmtPos() Pos             { return s.Pos }
func (s *AssertChecksums) StmtPos() Pos { return s.Pos }

// Expr is an expression node.
type Expr interface {
	exprNode()
	ExprPos() Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Pos Pos
	Val int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Pos Pos
	Val float64
}

// Ref reads (or, as an Assign LHS, writes) a scalar, parameter, iterator, or
// array element.
type Ref struct {
	Pos     Pos
	Name    string
	Indices []Expr // nil for scalars/iterators/parameters
}

// IsScalar reports whether the reference has no subscripts.
func (r *Ref) IsScalar() bool { return len(r.Indices) == 0 }

// BinOp is a binary operator.
type BinOp int

// Binary operators.
const (
	BinAdd BinOp = iota // +
	BinSub              // -
	BinMul              // *
	BinDiv              // /
	BinMod              // %
	BinEq               // ==
	BinNe               // !=
	BinLt               // <
	BinLe               // <=
	BinGt               // >
	BinGe               // >=
	BinAnd              // &&
	BinOr               // ||
)

var binOpNames = [...]string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}

// String returns the operator's source text.
func (op BinOp) String() string { return binOpNames[op] }

// IsComparison reports whether the operator yields a boolean.
func (op BinOp) IsComparison() bool { return op >= BinEq && op <= BinGe }

// IsLogical reports whether the operator combines booleans.
func (op BinOp) IsLogical() bool { return op == BinAnd || op == BinOr }

// Bin is a binary expression.
type Bin struct {
	Pos  Pos
	Op   BinOp
	L, R Expr
}

// UnOp is a unary operator.
type UnOp int

// Unary operators.
const (
	UnNeg UnOp = iota // -
	UnNot             // !
)

// String returns the operator's source text.
func (op UnOp) String() string {
	if op == UnNot {
		return "!"
	}
	return "-"
}

// Un is a unary expression.
type Un struct {
	Pos Pos
	Op  UnOp
	X   Expr
}

// Call is an intrinsic call: sqrt, abs, min, max.
type Call struct {
	Pos  Pos
	Name string
	Args []Expr
}

// Intrinsics lists the supported call targets and their arities.
var Intrinsics = map[string]int{"sqrt": 1, "abs": 1, "min": 2, "max": 2}

func (*IntLit) exprNode()   {}
func (*FloatLit) exprNode() {}
func (*Ref) exprNode()      {}
func (*Bin) exprNode()      {}
func (*Un) exprNode()       {}
func (*Call) exprNode()     {}

// ExprPos returns the expression's source position.
func (e *IntLit) ExprPos() Pos   { return e.Pos }
func (e *FloatLit) ExprPos() Pos { return e.Pos }
func (e *Ref) ExprPos() Pos      { return e.Pos }
func (e *Bin) ExprPos() Pos      { return e.Pos }
func (e *Un) ExprPos() Pos       { return e.Pos }
func (e *Call) ExprPos() Pos     { return e.Pos }

// CloneExpr deep-copies an expression.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case *IntLit:
		c := *x
		return &c
	case *FloatLit:
		c := *x
		return &c
	case *Ref:
		c := &Ref{Pos: x.Pos, Name: x.Name}
		for _, ix := range x.Indices {
			c.Indices = append(c.Indices, CloneExpr(ix))
		}
		return c
	case *Bin:
		return &Bin{Pos: x.Pos, Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *Un:
		return &Un{Pos: x.Pos, Op: x.Op, X: CloneExpr(x.X)}
	case *Call:
		c := &Call{Pos: x.Pos, Name: x.Name}
		for _, a := range x.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	}
	panic(fmt.Sprintf("lang: CloneExpr: unknown node %T", e))
}

// CloneStmt deep-copies a statement.
func CloneStmt(s Stmt) Stmt {
	switch x := s.(type) {
	case *Assign:
		return &Assign{Pos: x.Pos, Label: x.Label, LHS: CloneExpr(x.LHS).(*Ref), Op: x.Op, RHS: CloneExpr(x.RHS)}
	case *For:
		return &For{Pos: x.Pos, Iter: x.Iter, Lo: CloneExpr(x.Lo), Hi: CloneExpr(x.Hi), Body: CloneStmts(x.Body)}
	case *While:
		return &While{Pos: x.Pos, Cond: CloneExpr(x.Cond), Body: CloneStmts(x.Body)}
	case *If:
		return &If{Pos: x.Pos, Cond: CloneExpr(x.Cond), Then: CloneStmts(x.Then), Else: CloneStmts(x.Else)}
	case *AddToChecksum:
		return &AddToChecksum{Pos: x.Pos, CS: x.CS, Value: CloneExpr(x.Value), Count: CloneExpr(x.Count)}
	case *Let:
		return &Let{Pos: x.Pos, Name: x.Name, Type: x.Type, Value: CloneExpr(x.Value)}
	case *AssertChecksums:
		c := *x
		return &c
	}
	panic(fmt.Sprintf("lang: CloneStmt: unknown node %T", s))
}

// CloneStmts deep-copies a statement list.
func CloneStmts(ss []Stmt) []Stmt {
	if ss == nil {
		return nil
	}
	out := make([]Stmt, len(ss))
	for i, s := range ss {
		out[i] = CloneStmt(s)
	}
	return out
}

// WalkStmts visits every statement in the list recursively, pre-order. The
// visitor returning false prunes the subtree.
func WalkStmts(ss []Stmt, visit func(Stmt) bool) {
	for _, s := range ss {
		if !visit(s) {
			continue
		}
		switch x := s.(type) {
		case *For:
			WalkStmts(x.Body, visit)
		case *While:
			WalkStmts(x.Body, visit)
		case *If:
			WalkStmts(x.Then, visit)
			WalkStmts(x.Else, visit)
		}
	}
}

// KernelLoop splits a program body at its kernel loop: the top-level for
// loop with the largest statement tree, the first on ties. Instrumented
// programs open with flat checksum-registration loops (live-in folds,
// counter loops) that belong to the prologue, so the kernel is the largest
// nest, not the first loop. With no top-level for loop, pre is the whole
// body and loop is nil.
func KernelLoop(body []Stmt) (pre []Stmt, loop *For, post []Stmt) {
	best, bestSize := -1, 0
	for i, s := range body {
		f, ok := s.(*For)
		if !ok {
			continue
		}
		size := 0
		WalkStmts(f.Body, func(Stmt) bool { size++; return true })
		if best < 0 || size > bestSize {
			best, bestSize = i, size
		}
	}
	if best < 0 {
		return body, nil, nil
	}
	return body[:best], body[best].(*For), body[best+1:]
}

// WalkExpr visits e and its children, pre-order.
func WalkExpr(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch x := e.(type) {
	case *Ref:
		for _, ix := range x.Indices {
			WalkExpr(ix, visit)
		}
	case *Bin:
		WalkExpr(x.L, visit)
		WalkExpr(x.R, visit)
	case *Un:
		WalkExpr(x.X, visit)
	case *Call:
		for _, a := range x.Args {
			WalkExpr(a, visit)
		}
	}
}

// ExprRefs returns every Ref in the expression (including subscript refs),
// outermost first.
func ExprRefs(e Expr) []*Ref {
	var refs []*Ref
	WalkExpr(e, func(x Expr) bool {
		if r, ok := x.(*Ref); ok {
			refs = append(refs, r)
		}
		return true
	})
	return refs
}
