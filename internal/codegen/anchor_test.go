package codegen_test

import (
	"testing"

	"defuse/internal/bench"
	"defuse/internal/codegen"
	"defuse/internal/codegen/gennative"
	"defuse/internal/lang"
	"defuse/internal/machine"
)

// TestEpochAnchorIsKernelLoop holds every backend's epoch plan to the
// kernel loop. For each suite kernel whose Original has a top-level for
// loop, both instrumented variants must anchor on a loop that assigns a
// program variable — not a loop of checksum folds or counter writes — and
// epoch 0 of a four-epoch plan must store into program variables on the
// interpreter and the generated source alike.
//
// The exception is the Resilient-Optimized variants whose time loop
// Algorithm 2 splits into six top-level segments: the rule anchors on the
// one-iteration t = 0 segment, which is empty when tsteps < 3 (ADI and
// seidel at this scale), so their epoch 0 need not store anything until
// plans anchor on the segment group, an open ROADMAP item. Their anchor
// must still assign a program variable, and both backends must still agree.
func TestEpochAnchorIsKernelLoop(t *testing.T) {
	splitTime := map[string]bool{
		"ADI/Resilient-Optimized": true, "jacobi1d/Resilient-Optimized": true, "seidel/Resilient-Optimized": true,
	}
	const epochs, seed = 4, 1
	for _, b := range bench.Suite() {
		orig := b.Program()
		if _, loop, _ := lang.KernelLoop(orig.Body); loop == nil {
			continue // a while kernel (CG, moldyn)
		}
		for _, v := range []bench.Variant{bench.Resilient, bench.ResilientOpt} {
			label := b.Name + "/" + string(v)
			prog, err := b.BuildVariant(v)
			if err != nil {
				t.Fatal(err)
			}
			_, loop, _ := lang.KernelLoop(prog.Body)
			if loop == nil || !assignsDeclOf(orig, loop.Body) {
				t.Errorf("%s: the epoch anchor assigns no variable of the original program", label)
				continue
			}
			gen, ok := gennative.Lookup(b.Name, string(v))
			if !ok {
				t.Fatalf("%s: no generated kernel", label)
			}
			im, gm := buildPair(t, b, prog, seed)
			ip, err := im.PlanEpochs(epochs)
			if err != nil {
				t.Fatal(err)
			}
			gp, err := codegen.PlanEpochs(gm, prog, gen.Fn, epochs)
			if err != nil {
				t.Fatal(err)
			}
			for _, bk := range []struct {
				name string
				plan *machine.Plan
			}{{"interp", ip}, {"gennative", gp}} {
				st := bk.plan.State()
				before := st.Mem().Words()
				if err := bk.plan.RunEpoch(0); err != nil {
					t.Fatalf("%s/%s: epoch 0: %v", label, bk.name, err)
				}
				if !splitTime[label] && !storedInto(st, orig, before) {
					t.Errorf("%s/%s: epoch 0 of %d stored into no variable of the original program",
						label, bk.name, epochs)
				}
			}
			diffFullState(t, label+" gennative epoch 0", im.Mem().Words(), gm.Mem().Words(), pairState(im.Pair()), pairState(gm.Pair()))
		}
	}
}

// assignsDeclOf reports whether ss assigns a variable declared by orig.
func assignsDeclOf(orig *lang.Program, ss []lang.Stmt) bool {
	found := false
	lang.WalkStmts(ss, func(s lang.Stmt) bool {
		if a, ok := s.(*lang.Assign); ok && orig.Decl(a.LHS.Name) != nil {
			found = true
		}
		return !found
	})
	return found
}

// storedInto reports whether a word of a variable declared by orig differs
// from before.
func storedInto(st *machine.State, orig *lang.Program, before []uint64) bool {
	after := st.Mem().Words()
	for _, d := range orig.Decls {
		base, size, err := st.Region(d.Name)
		if err != nil {
			continue
		}
		for k := base; k < base+size; k++ {
			if after[k] != before[k] {
				return true
			}
		}
	}
	return false
}
