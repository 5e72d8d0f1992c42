package poly_test

import (
	"testing"

	"defuse/internal/bench"
	"defuse/internal/deps"
	"defuse/internal/pdg"
	"defuse/internal/poly"
)

// TestSuiteDependencesMatchReference recomputes every Table 2 kernel's flow
// dependences with the reference always-split subtraction in place of
// Subtract. Both runs must find the same dependences with the same
// exactness, and each relation must hold the same integer points as the
// reference's: EqualSet, decided exactly and by the reference itself.
func TestSuiteDependencesMatchReference(t *testing.T) {
	for _, bm := range bench.Suite() {
		t.Run(bm.Name, func(t *testing.T) {
			m, err := pdg.Extract(bm.Program())
			if err != nil {
				t.Fatal(err)
			}
			got := deps.Analyze(m)
			var want *deps.Flow
			poly.WithReferenceSubtract(func() { want = deps.Analyze(m) })
			if len(got.Deps) != len(want.Deps) || got.Exact != want.Exact {
				t.Fatalf("%d dependences (exact %v), reference %d (exact %v)",
					len(got.Deps), got.Exact, len(want.Deps), want.Exact)
			}
			var gotPieces, wantPieces int
			for i, g := range got.Deps {
				w := want.Deps[i]
				if g.Src != w.Src || g.Dst != w.Dst || g.DstRead != w.DstRead || g.Exact != w.Exact {
					t.Fatalf("dependence %d: %s -> %s (read #%d, exact %v), reference %s -> %s (read #%d, exact %v)",
						i, g.Src.ID, g.Dst.ID, g.DstRead, g.Exact, w.Src.ID, w.Dst.ID, w.DstRead, w.Exact)
				}
				var eq, exact bool
				poly.WithReferenceSubtract(func() { eq, exact = wrapped(g.Rel).EqualSet(wrapped(w.Rel)) })
				if !eq || !exact {
					t.Errorf("%v\nreference %v\nEqualSet = %v, exact %v", g, w.Rel, eq, exact)
				}
				gotPieces += len(g.Rel.Pieces)
				wantPieces += len(w.Rel.Pieces)
			}
			t.Logf("%d dependences: %d pieces, reference %d", len(got.Deps), gotPieces, wantPieces)
		})
	}
}

// wrapped flattens a relation's pieces into one set over input and output
// iterators.
func wrapped(m poly.Map) poly.Set {
	var s poly.Set
	for _, bm := range m.Pieces {
		s.Pieces = append(s.Pieces, bm.Wrap())
	}
	return s
}
