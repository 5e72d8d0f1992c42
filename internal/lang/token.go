// Package lang implements a small imperative loop language used as the
// instrumentation target of the paper's compiler algorithms. It covers the
// constructs the paper's benchmarks need: parameterized affine for-loops,
// data-dependent while-loops and conditionals, float and int arrays and
// scalars, and indirect (data-dependent) array subscripts. The checksum
// instrumentation primitives (add_to_chksm, assert_checksums) and the
// register bindings the instrumenter feeds them from (Let) are statements
// of the language itself, so instrumented programs remain ordinary programs
// that the interpreter can execute.
package lang

import "fmt"

// TokKind enumerates token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt    // integer literal
	TokFloat  // floating-point literal
	TokString // (reserved)

	// punctuation and operators
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokLBracket
	TokRBracket
	TokComma
	TokSemicolon
	TokColon
	TokAssign  // =
	TokPlusEq  // +=
	TokMinusEq // -=
	TokStarEq  // *=
	TokSlashEq // /=
	TokPlus    // +
	TokMinus   // -
	TokStar    // *
	TokSlash   // /
	TokPercent // %
	TokEq      // ==
	TokNe      // !=
	TokLt      // <
	TokLe      // <=
	TokGt      // >
	TokGe      // >=
	TokAndAnd  // &&
	TokOrOr    // ||
	TokBang    // !

	// keywords
	TokProgram
	TokFor
	TokTo
	TokWhile
	TokIf
	TokElse
	TokFloatKw
	TokIntKw
	TokAddToChksm
	TokAssertChecksums
)

var kindNames = map[TokKind]string{
	TokEOF: "EOF", TokIdent: "identifier", TokInt: "int literal",
	TokFloat: "float literal", TokString: "string literal",
	TokLParen: "(", TokRParen: ")", TokLBrace: "{", TokRBrace: "}",
	TokLBracket: "[", TokRBracket: "]", TokComma: ",", TokSemicolon: ";",
	TokColon: ":", TokAssign: "=", TokPlusEq: "+=", TokMinusEq: "-=",
	TokStarEq: "*=", TokSlashEq: "/=", TokPlus: "+", TokMinus: "-",
	TokStar: "*", TokSlash: "/", TokPercent: "%", TokEq: "==", TokNe: "!=",
	TokLt: "<", TokLe: "<=", TokGt: ">", TokGe: ">=",
	TokAndAnd: "&&", TokOrOr: "||", TokBang: "!",
	TokProgram: "program", TokFor: "for", TokTo: "to", TokWhile: "while",
	TokIf: "if", TokElse: "else", TokFloatKw: "float", TokIntKw: "int",
	TokAddToChksm: "add_to_chksm", TokAssertChecksums: "assert_checksums",
}

// String returns a readable name for the token kind.
func (k TokKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

var keywords = map[string]TokKind{
	"program":          TokProgram,
	"for":              TokFor,
	"to":               TokTo,
	"while":            TokWhile,
	"if":               TokIf,
	"else":             TokElse,
	"float":            TokFloatKw,
	"int":              TokIntKw,
	"add_to_chksm":     TokAddToChksm,
	"assert_checksums": TokAssertChecksums,
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

// String renders "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a lexical token.
type Token struct {
	Kind TokKind
	Text string
	Pos  Pos
}

// SyntaxError reports a lexing or parsing failure with its position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("lang: %s: %s", e.Pos, e.Msg)
}
