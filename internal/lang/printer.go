package lang

import (
	"fmt"
	"strings"
)

// Print renders a program back to parseable source text.
func Print(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s(%s)\n", p.Name, strings.Join(p.Params, ", "))
	for _, d := range p.Decls {
		b.WriteString(d.Type.String())
		b.WriteString(" ")
		b.WriteString(d.Name)
		for _, dim := range d.Dims {
			fmt.Fprintf(&b, "[%s]", ExprString(dim))
		}
		b.WriteString(";\n")
	}
	printStmts(&b, p.Body, 0)
	return b.String()
}

func printStmts(b *strings.Builder, ss []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range ss {
		switch x := s.(type) {
		case *Assign:
			b.WriteString(ind)
			if x.Label != "" {
				b.WriteString(x.Label + ": ")
			}
			fmt.Fprintf(b, "%s %s %s;\n", ExprString(x.LHS), x.Op, ExprString(x.RHS))
		case *For:
			fmt.Fprintf(b, "%sfor %s = %s to %s {\n", ind, x.Iter, ExprString(x.Lo), ExprString(x.Hi))
			printStmts(b, x.Body, depth+1)
			b.WriteString(ind + "}\n")
		case *While:
			fmt.Fprintf(b, "%swhile (%s) {\n", ind, ExprString(x.Cond))
			printStmts(b, x.Body, depth+1)
			b.WriteString(ind + "}\n")
		case *If:
			fmt.Fprintf(b, "%sif (%s) {\n", ind, ExprString(x.Cond))
			printStmts(b, x.Then, depth+1)
			if len(x.Else) > 0 {
				b.WriteString(ind + "} else {\n")
				printStmts(b, x.Else, depth+1)
			}
			b.WriteString(ind + "}\n")
		case *AddToChecksum:
			fmt.Fprintf(b, "%sadd_to_chksm(%s, %s, %s);\n", ind, x.CS, ExprString(x.Value), ExprString(x.Count))
		case *Let:
			fmt.Fprintf(b, "%s%s %s = %s;\n", ind, x.Type, x.Name, ExprString(x.Value))
		case *AssertChecksums:
			b.WriteString(ind + "assert_checksums();\n")
		default:
			panic(fmt.Sprintf("lang: print: unknown statement %T", s))
		}
	}
}

// precedence levels for printing with minimal parentheses.
func binPrec(op BinOp) int {
	switch op {
	case BinOr:
		return 1
	case BinAnd:
		return 2
	case BinEq, BinNe, BinLt, BinLe, BinGt, BinGe:
		return 3
	case BinAdd, BinSub:
		return 4
	default: // mul, div, mod
		return 5
	}
}

// ExprString renders an expression to parseable source text.
func ExprString(e Expr) string {
	return exprString(e, 0)
}

func exprString(e Expr, parentPrec int) string {
	switch x := e.(type) {
	case *IntLit:
		return fmt.Sprintf("%d", x.Val)
	case *FloatLit:
		s := fmt.Sprintf("%g", x.Val)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *Ref:
		var b strings.Builder
		b.WriteString(x.Name)
		for _, ix := range x.Indices {
			fmt.Fprintf(&b, "[%s]", exprString(ix, 0))
		}
		return b.String()
	case *Bin:
		prec := binPrec(x.Op)
		// Right operand of -, /, % needs parens at equal precedence.
		rp := prec
		switch x.Op {
		case BinSub, BinDiv, BinMod:
			rp = prec + 1
		}
		s := fmt.Sprintf("%s %s %s", exprString(x.L, prec), x.Op, exprString(x.R, rp))
		if prec < parentPrec {
			return "(" + s + ")"
		}
		return s
	case *Un:
		return x.Op.String() + exprString(x.X, 6)
	case *Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = exprString(a, 0)
		}
		return fmt.Sprintf("%s(%s)", x.Name, strings.Join(args, ", "))
	}
	panic(fmt.Sprintf("lang: print: unknown expression %T", e))
}
