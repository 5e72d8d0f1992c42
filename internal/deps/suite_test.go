package deps_test

import (
	"testing"

	"defuse/internal/bench"
	"defuse/internal/deps"
)

// TestCrossValidateSuite checks the Table 2 kernels whose dependences are
// built from the most subtractions (kills across time steps and sweeps)
// against a trace of their real sources at small parameters.
func TestCrossValidateSuite(t *testing.T) {
	params := map[string]map[string]int64{
		"ADI":      {"tsteps": 3, "n": 5},
		"jacobi1d": {"tsteps": 4, "n": 7},
		"seidel":   {"tsteps": 3, "n": 6},
	}
	for _, bm := range bench.Suite() {
		p, ok := params[bm.Name]
		if !ok {
			continue
		}
		delete(params, bm.Name)
		t.Run(bm.Name, func(t *testing.T) { deps.CrossValidate(t, bm.Source, p) })
	}
	for name := range params {
		t.Errorf("no %s in bench.Suite()", name)
	}
}
