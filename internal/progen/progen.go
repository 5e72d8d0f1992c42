// Package progen generates random programs in the defuse loop language for
// property-based testing of the instrumentation pipeline. Generated programs
// are well-formed, in-bounds, and numerically safe (no division, no sqrt of
// negatives), so an instrumented run that fails its checksum assertion — or
// diverges from the uninstrumented run — always indicates a bug in the
// analysis or instrumentation rather than in the program.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds the generator.
type Config struct {
	MaxArrays  int // number of 1-D float arrays (>=1)
	MaxScalars int // number of float scalars
	MaxStmts   int // top-level constructs
	MaxDepth   int // loop nest depth
	MaxOffset  int // |c| in subscripts i+c
	// WithWhile puts a run of the top-level constructs in a top-level
	// "while (wctr < w) { ...; wctr = wctr + 1; }", w a parameter (the trip
	// count) drawn in [0, 3]. Each trip first overwrites every cell of the
	// float array wtmp, which only the loop's constructs read: a value
	// used up in the iteration that defines it.
	WithWhile    bool
	WithIndirect bool // indirect subscripts through an int array
}

// DefaultConfig returns a balanced configuration.
func DefaultConfig() Config {
	return Config{MaxArrays: 3, MaxScalars: 2, MaxStmts: 4, MaxDepth: 2, MaxOffset: 2}
}

// Program is a generated program plus everything needed to run it.
type Program struct {
	Source string
	Params map[string]int64
	// FloatArrays lists the float arrays to initialize (all sized n+pad).
	FloatArrays []string
	// IntArrays lists index arrays (values must be in [0, n)).
	IntArrays []string
	// Scalars lists float scalars.
	Scalars []string
	// N is the value of parameter n used for array extents.
	N int64
}

// Generate produces one random program.
func Generate(rng *rand.Rand, cfg Config) *Program {
	g := &gen{rng: rng, cfg: cfg}
	return g.run()
}

type gen struct {
	rng *rand.Rand
	cfg Config
	b   strings.Builder

	arrays  []string
	ints    []string
	scalars []string
	label   int
	indent  int  // nesting of the construct being emitted (1 inside the while)
	inWhile bool // wctr's loop is open: its constructs may read wtmp
}

// whileTemp is the array the while loop of WithWhile overwrites each trip.
const whileTemp = "wtmp"

const pad = 8 // arrays sized n + 2*pad; subscripts stay within [0, n+2*pad)

func (g *gen) run() *Program {
	nArr := 1 + g.rng.Intn(g.cfg.MaxArrays)
	for i := 0; i < nArr; i++ {
		g.arrays = append(g.arrays, fmt.Sprintf("A%d", i))
	}
	nSc := g.rng.Intn(g.cfg.MaxScalars + 1)
	for i := 0; i < nSc; i++ {
		g.scalars = append(g.scalars, fmt.Sprintf("s%d", i))
	}
	if g.cfg.WithIndirect {
		g.ints = append(g.ints, "idx0")
	}

	if g.cfg.WithWhile {
		fmt.Fprintf(&g.b, "program fuzz(n, w)\n")
	} else {
		fmt.Fprintf(&g.b, "program fuzz(n)\n")
	}
	for _, a := range g.arrays {
		fmt.Fprintf(&g.b, "float %s[n + %d];\n", a, 2*pad)
	}
	for _, s := range g.scalars {
		fmt.Fprintf(&g.b, "float %s;\n", s)
	}
	for _, ia := range g.ints {
		fmt.Fprintf(&g.b, "int %s[n + %d];\n", ia, 2*pad)
	}
	if g.cfg.WithWhile {
		fmt.Fprintf(&g.b, "float %s[n + %d];\nint wctr;\nwctr = 0;\n", whileTemp, 2*pad)
	}

	stmts := 1 + g.rng.Intn(g.cfg.MaxStmts)
	// Constructs first..last-1 go in the while loop, the rest around it.
	first, last := 0, 0
	if g.cfg.WithWhile {
		first = g.rng.Intn(stmts)
		last = first + 1 + g.rng.Intn(stmts-first)
	}
	for i := 0; i < stmts; i++ {
		if g.cfg.WithWhile && i == first {
			g.label++
			fmt.Fprintf(&g.b, "while (wctr < w) {\n  for wi = 0 to n + %d {\n    T%d: %s[wi] = (%s[wi] * %d.%d);\n  }\n",
				2*pad-1, g.label, whileTemp, g.arrays[g.rng.Intn(len(g.arrays))], g.rng.Intn(9), g.rng.Intn(9))
			g.indent, g.inWhile = 1, true
		}
		g.construct(0, nil)
		if g.cfg.WithWhile && i == last-1 {
			fmt.Fprintf(&g.b, "  wctr = wctr + 1;\n}\n")
			g.indent, g.inWhile = 0, false
		}
	}

	n := int64(4 + g.rng.Intn(8))
	params := map[string]int64{"n": n}
	floats := g.arrays
	if g.cfg.WithWhile {
		params["w"] = int64(g.rng.Intn(4))
		floats = append(floats[:len(floats):len(floats)], whileTemp)
	}
	return &Program{
		Source:      g.b.String(),
		Params:      params,
		FloatArrays: floats,
		IntArrays:   g.ints,
		Scalars:     g.scalars,
		N:           n,
	}
}

// construct emits one loop nest or statement at the given depth with the
// in-scope iterators.
func (g *gen) construct(depth int, iters []string) {
	ind := strings.Repeat("  ", g.indent+depth)
	switch {
	case depth < g.cfg.MaxDepth && g.rng.Intn(3) != 0:
		iter := fmt.Sprintf("i%d", len(iters))
		lo := g.rng.Intn(3)
		// Upper bound keeps subscripts with offsets in [-MaxOffset,
		// +MaxOffset] inside [0, n+2*pad): iterate over [lo, n-1+off] with
		// subscript base shifted by +pad.
		hiOff := g.rng.Intn(3) - 1
		fmt.Fprintf(&g.b, "%sfor %s = %d to n - 1 + %d {\n", ind, iter, lo, hiOff)
		body := 1 + g.rng.Intn(2)
		for k := 0; k < body; k++ {
			g.construct(depth+1, append(iters, iter))
		}
		fmt.Fprintf(&g.b, "%s}\n", ind)
	default:
		g.assign(ind, iters)
	}
}

func (g *gen) assign(ind string, iters []string) {
	g.label++
	lhs := g.lvalue(iters)
	rhs := g.expr(iters, 3)
	op := "="
	if g.rng.Intn(3) == 0 {
		op = "+="
	}
	fmt.Fprintf(&g.b, "%sT%d: %s %s %s;\n", ind, g.label, lhs, op, rhs)
}

// lvalue picks a scalar or an in-bounds array reference.
func (g *gen) lvalue(iters []string) string {
	if len(g.scalars) > 0 && g.rng.Intn(3) == 0 {
		return g.scalars[g.rng.Intn(len(g.scalars))]
	}
	return g.arrayRef(iters)
}

// arrayRef builds A[i + pad + c] (or A[c] at depth 0), always in bounds.
func (g *gen) arrayRef(iters []string) string {
	return g.ref(g.arrays, iters)
}

// readRef builds an in-bounds reference to read: inside the while loop it
// may name wtmp too.
func (g *gen) readRef(iters []string) string {
	if g.inWhile {
		return g.ref(append(g.arrays[:len(g.arrays):len(g.arrays)], whileTemp), iters)
	}
	return g.ref(g.arrays, iters)
}

func (g *gen) ref(arrays, iters []string) string {
	a := arrays[g.rng.Intn(len(arrays))]
	return fmt.Sprintf("%s[%s]", a, g.subscript(iters))
}

func (g *gen) subscript(iters []string) string {
	if len(iters) == 0 {
		return fmt.Sprintf("%d", g.rng.Intn(2*pad))
	}
	it := iters[g.rng.Intn(len(iters))]
	off := g.rng.Intn(2*g.cfg.MaxOffset+1) - g.cfg.MaxOffset
	if g.cfg.WithIndirect && len(g.ints) > 0 && g.rng.Intn(4) == 0 {
		// Indirect subscript: idx0[i + pad] holds a value in [0, n).
		return fmt.Sprintf("%s[%s + %d]", g.ints[0], it, pad)
	}
	return fmt.Sprintf("%s + %d", it, pad+off)
}

// expr builds a numerically safe float expression.
func (g *gen) expr(iters []string, budget int) string {
	if budget <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%d.%d", g.rng.Intn(9), g.rng.Intn(9))
		case 1:
			if len(g.scalars) > 0 {
				return g.scalars[g.rng.Intn(len(g.scalars))]
			}
			return g.readRef(iters)
		default:
			return g.readRef(iters)
		}
	}
	l := g.expr(iters, budget-1)
	r := g.expr(iters, budget-1)
	op := []string{"+", "-", "*"}[g.rng.Intn(3)]
	return fmt.Sprintf("(%s %s %s)", l, op, r)
}
