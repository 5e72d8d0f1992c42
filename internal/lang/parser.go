package lang

import (
	"fmt"
	"strconv"
)

// Parser builds a Program from tokens.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a complete program:
//
//	program name(p1, p2, ...)
//	float A[n][n];
//	int cols[nz];
//	float temp;
//	<statements>
func Parse(src string) (*Program, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	return p.parseProgram()
}

// MustParse parses src and panics on error; intended for tests and embedded
// benchmark sources that are known-good.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) errf(pos Pos, format string, args ...interface{}) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) expect(k TokKind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, p.errf(t.Pos, "expected %v, found %v %q", k, t.Kind, t.Text)
	}
	return p.next(), nil
}

func (p *Parser) accept(k TokKind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *Parser) parseProgram() (*Program, error) {
	if _, err := p.expect(TokProgram); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	prog := &Program{Name: name.Text}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	if p.cur().Kind != TokRParen {
		for {
			id, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			prog.Params = append(prog.Params, id.Text)
			if !p.accept(TokComma) {
				break
			}
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}

	// Declarations: consecutive "float|int name[dims...][, name...];" lines.
	// "float|int name = ..." is a register binding, the first statement.
	for (p.cur().Kind == TokFloatKw || p.cur().Kind == TokIntKw) && !p.atLet() {
		decls, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		prog.Decls = append(prog.Decls, decls...)
	}

	// Body statements until EOF.
	for p.cur().Kind != TokEOF {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, s)
	}
	return prog, nil
}

func (p *Parser) parseDecl() ([]*VarDecl, error) {
	tt := p.next()
	typ := TypeFloat
	if tt.Kind == TokIntKw {
		typ = TypeInt
	}
	var decls []*VarDecl
	for {
		id, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		d := &VarDecl{Pos: id.Pos, Name: id.Text, Type: typ}
		for p.cur().Kind == TokLBracket {
			p.next()
			dim, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.Dims = append(d.Dims, dim)
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
		}
		decls = append(decls, d)
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokSemicolon); err != nil {
		return nil, err
	}
	return decls, nil
}

func (p *Parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	var body []Stmt
	for p.cur().Kind != TokRBrace {
		if p.cur().Kind == TokEOF {
			return nil, p.errf(p.cur().Pos, "unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
	}
	p.next() // consume }
	return body, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case TokFor:
		return p.parseFor()
	case TokWhile:
		return p.parseWhile()
	case TokIf:
		return p.parseIf()
	case TokAddToChksm:
		return p.parseAddToChksm()
	case TokFloatKw, TokIntKw:
		return p.parseLet()
	case TokAssertChecksums:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemicolon); err != nil {
			return nil, err
		}
		return &AssertChecksums{Pos: t.Pos}, nil
	case TokIdent:
		// Either "Label: stmt" or an assignment.
		if p.toks[p.pos+1].Kind == TokColon {
			label := p.next().Text
			p.next() // colon
			inner, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			as, ok := inner.(*Assign)
			if !ok {
				return nil, p.errf(t.Pos, "label %q must precede an assignment", label)
			}
			as.Label = label
			return as, nil
		}
		return p.parseAssign()
	}
	return nil, p.errf(t.Pos, "unexpected token %v %q at statement start", t.Kind, t.Text)
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next() // for
	iter, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokTo); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &For{Pos: t.Pos, Iter: iter.Text, Lo: lo, Hi: hi, Body: body}, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t := p.next() // while
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &While{Pos: t.Pos, Cond: cond, Body: body}, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.next() // if
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	var els []Stmt
	if p.accept(TokElse) {
		if p.cur().Kind == TokIf {
			inner, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			els = []Stmt{inner}
		} else {
			els, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
	}
	return &If{Pos: t.Pos, Cond: cond, Then: then, Else: els}, nil
}

func (p *Parser) parseAddToChksm() (Stmt, error) {
	t := p.next() // add_to_chksm
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	csTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	cs, ok := ParseCSName(csTok.Text)
	if !ok {
		return nil, p.errf(csTok.Pos, "unknown checksum %q (want def_cs, use_cs, e_def_cs, or e_use_cs)", csTok.Text)
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	value, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	count, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemicolon); err != nil {
		return nil, err
	}
	return &AddToChecksum{Pos: t.Pos, CS: cs, Value: value, Count: count}, nil
}

// atLet reports whether the tokens ahead read "float|int name =".
func (p *Parser) atLet() bool {
	return p.pos+2 < len(p.toks) && p.toks[p.pos+1].Kind == TokIdent && p.toks[p.pos+2].Kind == TokAssign
}

func (p *Parser) parseLet() (Stmt, error) {
	t := p.next() // float | int
	typ := TypeFloat
	if t.Kind == TokIntKw {
		typ = TypeInt
	}
	id, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	value, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemicolon); err != nil {
		return nil, err
	}
	return &Let{Pos: t.Pos, Name: id.Text, Type: typ, Value: value}, nil
}

func (p *Parser) parseAssign() (Stmt, error) {
	lhsTok := p.cur()
	lhs, err := p.parseRef()
	if err != nil {
		return nil, err
	}
	var op AssignOp
	switch p.cur().Kind {
	case TokAssign:
		op = OpSet
	case TokPlusEq:
		op = OpAdd
	case TokMinusEq:
		op = OpSub
	case TokStarEq:
		op = OpMul
	case TokSlashEq:
		op = OpDiv
	default:
		return nil, p.errf(p.cur().Pos, "expected assignment operator, found %v", p.cur().Kind)
	}
	p.next()
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemicolon); err != nil {
		return nil, err
	}
	return &Assign{Pos: lhsTok.Pos, LHS: lhs, Op: op, RHS: rhs}, nil
}

func (p *Parser) parseRef() (*Ref, error) {
	id, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	r := &Ref{Pos: id.Pos, Name: id.Text}
	for p.cur().Kind == TokLBracket {
		p.next()
		ix, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		r.Indices = append(r.Indices, ix)
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Expression parsing with precedence climbing.

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokOrOr {
		t := p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Bin{Pos: t.Pos, Op: BinOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokAndAnd {
		t := p.next()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &Bin{Pos: t.Pos, Op: BinAnd, L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[TokKind]BinOp{
	TokEq: BinEq, TokNe: BinNe, TokLt: BinLt, TokLe: BinLe, TokGt: BinGt, TokGe: BinGe,
}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if op, ok := cmpOps[p.cur().Kind]; ok {
		t := p.next()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Bin{Pos: t.Pos, Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().Kind {
		case TokPlus:
			op = BinAdd
		case TokMinus:
			op = BinSub
		default:
			return l, nil
		}
		t := p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &Bin{Pos: t.Pos, Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().Kind {
		case TokStar:
			op = BinMul
		case TokSlash:
			op = BinDiv
		case TokPercent:
			op = BinMod
		default:
			return l, nil
		}
		t := p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Bin{Pos: t.Pos, Op: op, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case TokMinus:
		t := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Un{Pos: t.Pos, Op: UnNeg, X: x}, nil
	case TokBang:
		t := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Un{Pos: t.Pos, Op: UnNot, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf(t.Pos, "bad integer literal %q", t.Text)
		}
		return &IntLit{Pos: t.Pos, Val: v}, nil
	case TokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf(t.Pos, "bad float literal %q", t.Text)
		}
		return &FloatLit{Pos: t.Pos, Val: v}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		// Intrinsic call or reference.
		if arity, ok := Intrinsics[t.Text]; ok && p.toks[p.pos+1].Kind == TokLParen {
			p.next()
			p.next() // (
			call := &Call{Pos: t.Pos, Name: t.Text}
			if p.cur().Kind != TokRParen {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(TokComma) {
						break
					}
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			if len(call.Args) != arity {
				return nil, p.errf(t.Pos, "%s takes %d argument(s), got %d", t.Text, arity, len(call.Args))
			}
			return call, nil
		}
		return p.parseRef()
	}
	return nil, p.errf(t.Pos, "unexpected token %v %q in expression", t.Kind, t.Text)
}
