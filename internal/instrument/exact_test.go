package instrument

import (
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
	// Use counting alone accepts A: only the exactness flag can stop a
	// static plan built on the approximate relation.
	if uc := usecount.Analyze(flow); !uc.Analyzable("A") {
		t.Fatalf("A not analyzable before the exactness check: %s", uc.Classes["A"].Reason)
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
