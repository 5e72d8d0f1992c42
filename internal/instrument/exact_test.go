package instrument

import (
	"strings"
	"testing"

	"defuse/internal/deps"
	"defuse/internal/interp"
	"defuse/internal/lang"
	"defuse/internal/pdg"
	"defuse/internal/usecount"
)

// strideSrc writes A at strides 2 and 3 in one loop and reads it at stride
// 1. Whether S1 (A[2*i], later in the same iteration space) kills a value of
// S3 (A[3*i]) depends on the parity of the cell, a divisibility condition
// Fourier-Motzkin projection drops, so the S3 -> S2 flow dependence is
// inexact even though every relation is countable.
const strideSrc = `
program stride(n)
float A[3*n];
float B[n];
for i = 0 to n - 1 {
  S1: A[2*i] = 1.0;
  S3: A[3*i] = 2.0;
}
for j = 0 to n - 1 {
  S2: B[j] = A[j];
}
`

func TestInexactFlowDemotesToDynamic(t *testing.T) {
	m, err := pdg.Extract(lang.MustParse(strideSrc))
	if err != nil {
		t.Fatal(err)
	}
	flow := deps.Analyze(m)
	inexact := 0
	for _, d := range flow.Deps {
		if !d.Exact {
			inexact++
		}
	}
	if inexact == 0 || flow.Exact {
		t.Fatalf("expected an inexact flow dependence, got Exact=%v with %d inexact deps", flow.Exact, inexact)
	}
	// The projected range of the inexact S3 -> S2 relation is inexact too,
	// so use counting refuses A on its own (the live-in check that
	// TestInexactLiveInRangeDemotesToDynamic isolates), and the flow
	// exactness flag is a second, independent stop.
	if uc := usecount.Analyze(flow); uc.Analyzable("A") {
		t.Fatal("use counting accepted A despite its inexact live-in range")
	}

	res := instrumented(t, strideSrc, Options{})
	if got := res.Report.Plans["A"]; got != PlanDynamic {
		t.Fatalf("plan for A = %s, want %s", got, PlanDynamic)
	}
	if got := res.Report.Plans["B"]; got != PlanStatic {
		t.Errorf("plan for B = %s, want %s (its dependences are exact)", got, PlanStatic)
	}
	// With a static plan, n = 13 miscounts a use and reports a false
	// positive; the dynamic plan must verify clean at every size.
	for n := int64(1); n <= 16; n++ {
		mc, err := interp.New(res.Prog, map[string]int64{"n": n})
		if err != nil {
			t.Fatal(err)
		}
		if err := mc.Run(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

// evenSrc writes the even cells of A and reads every cell, so the odd reads
// observe live-in values. The flow dependence S1 -> S2 (j = 2*i) is exact,
// but its range — the reads some write feeds — is the even cells, a
// divisibility condition Fourier-Motzkin projection drops: the projected
// range covers the odd reads too, and a static plan built on it would
// count no live-in use of the odd cells.
const evenSrc = `
program even(n)
float A[2*n];
float B[2*n];
for i = 0 to n - 1 {
  S1: A[2*i] = 1.0;
}
for j = 0 to 2*n - 1 {
  S2: B[j] = A[j];
}
`

func TestInexactLiveInRangeDemotesToDynamic(t *testing.T) {
	m, err := pdg.Extract(lang.MustParse(evenSrc))
	if err != nil {
		t.Fatal(err)
	}
	flow := deps.Analyze(m)
	if !flow.Exact {
		t.Fatal("expected every flow dependence to be exact")
	}
	uc := usecount.Analyze(flow)
	if uc.Analyzable("A") {
		t.Fatal("A analyzable although its live-in range is inexact")
	}
	if reason := uc.Classes["A"].Reason; !strings.Contains(reason, "inexact") {
		t.Errorf("A demoted for %q, want the inexact live-in range", reason)
	}

	res := instrumented(t, evenSrc, Options{})
	if got := res.Report.Plans["A"]; got != PlanDynamic {
		t.Fatalf("plan for A = %s, want %s", got, PlanDynamic)
	}
	for n := int64(1); n <= 8; n++ {
		mc, err := interp.New(res.Prog, map[string]int64{"n": n})
		if err != nil {
			t.Fatal(err)
		}
		if err := mc.Run(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
	// A flip of the odd live-in cell A[1] while S1's loop runs — after the
	// prologue registered the live-ins, before S2 reads it — must be caught.
	clean, err := interp.New(res.Prog, map[string]int64{"n": 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Run(); err != nil {
		t.Fatal(err)
	}
	mc, err := interp.New(res.Prog, map[string]int64{"n": 4})
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := mc.Region("A")
	if err != nil {
		t.Fatal(err)
	}
	flipAt := clean.Counts.Stmts / 4
	mc.SetStepHook(func(step uint64) {
		if step == flipAt {
			mc.Mem().FlipBit(base+1, 7)
		}
	})
	if _, ok := mc.Run().(*interp.DetectionError); !ok {
		t.Errorf("flip of live-in A[1] at step %d escaped detection", flipAt)
	}
}
