package usecount_test

import (
	"fmt"
	"sort"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/deps"
	"defuse/internal/lang"
	"defuse/internal/pdg"
	"defuse/internal/usecount"
)

// TestUseCountsAgainstTrace cross-validates Algorithm 1 against a dynamic
// trace on several kernels: for every write instance, the traced number of
// reads of that value must equal the static count. cholesky, ADI, jacobi1d
// and seidel are the Table 2 sources at small parameters.
func TestUseCountsAgainstTrace(t *testing.T) {
	suite := map[string]string{}
	for _, bm := range bench.Suite() {
		suite[bm.Name] = bm.Source
	}
	cases := []struct {
		name   string
		src    string
		params map[string]int64
	}{
		{"cholesky", suite["cholesky"], map[string]int64{"n": 6}},
		{"jacobi", `
program jac(n, tmax)
float A[n], B[n];
for t = 0 to tmax - 1 {
  for i = 1 to n - 2 {
    S1: B[i] = A[i - 1] + A[i] + A[i + 1];
  }
  for i = 1 to n - 2 {
    S2: A[i] = B[i];
  }
}
`, map[string]int64{"n": 8, "tmax": 3}},
		{"trisolv", `
program trisolv(n)
float L[n][n], x[n], b[n];
for i = 0 to n - 1 {
  S1: x[i] = b[i];
  for j = 0 to i - 1 {
    S2: x[i] = x[i] - L[i][j] * x[j];
  }
  S3: x[i] = x[i] / L[i][i];
}
`, map[string]int64{"n": 6}},
		{"dsyrk", `
program dsyrk(n, m)
float C[n][n], A[n][m];
for i = 0 to n - 1 {
  for j = 0 to n - 1 {
    for k = 0 to m - 1 {
      S1: C[i][j] = C[i][j] + A[i][k] * A[j][k];
    }
  }
}
`, map[string]int64{"n": 4, "m": 3}},
		{"ADI", suite["ADI"], map[string]int64{"tsteps": 3, "n": 5}},
		{"jacobi1d", suite["jacobi1d"], map[string]int64{"tsteps": 4, "n": 7}},
		{"seidel", suite["seidel"], map[string]int64{"tsteps": 3, "n": 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := pdg.Extract(lang.MustParse(tc.src))
			if err != nil {
				t.Fatal(err)
			}
			a := usecount.Analyze(deps.Analyze(m))
			traced := traceUseCounts(t, m, tc.params)
			for _, s := range m.Stmts {
				dc := a.Defs[s]
				if dc == nil {
					t.Fatalf("%s: no def count", s.ID)
				}
				for _, pt := range s.Domain.EnumeratePoints(tc.params, 64) {
					env := map[string]int64{}
					for k, v := range tc.params {
						env[k] = v
					}
					for k, v := range pt {
						env[k] = v
					}
					got, err := dc.TotalAt(env)
					if err != nil {
						t.Fatal(err)
					}
					key := instKeyOf(s, env)
					if got != traced[key] {
						t.Errorf("%s at %v: static count %d, traced %d", s.ID, pt, got, traced[key])
					}
				}
			}
		})
	}
}

func instKeyOf(s *pdg.Statement, env map[string]int64) string {
	idx := make([]int64, len(s.Iters))
	for k, it := range s.Iters {
		idx[k] = env[it]
	}
	return fmt.Sprintf("%s%v", s.ID, idx)
}

// traceUseCounts executes the model and counts, per write instance, how many
// subsequent reads observe that write.
func traceUseCounts(t *testing.T, m *pdg.Model, params map[string]int64) map[string]int64 {
	t.Helper()
	type inst struct {
		stmt *pdg.Statement
		env  map[string]int64
		key  []int64
	}
	var insts []inst
	for _, s := range m.Stmts {
		for _, pt := range s.Domain.EnumeratePoints(params, 64) {
			env := map[string]int64{}
			for k, v := range params {
				env[k] = v
			}
			for k, v := range pt {
				env[k] = v
			}
			key := make([]int64, len(s.Schedule))
			for k, term := range s.Schedule {
				if term.IsIter {
					key[k] = env[term.Iter]
				} else {
					key[k] = term.Const
				}
			}
			insts = append(insts, inst{s, env, key})
		}
	}
	sort.Slice(insts, func(a, b int) bool {
		ka, kb := insts[a].key, insts[b].key
		for i := range ka {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		return false
	})
	counts := map[string]int64{}
	lastWriter := map[string]string{}
	for i := range insts {
		ins := &insts[i]
		for ri := range ins.stmt.Reads {
			read := &ins.stmt.Reads[ri]
			idx := make([]int64, len(read.Index))
			for k, lin := range read.Index {
				idx[k], _ = lin.Eval(ins.env)
			}
			cell := fmt.Sprintf("%s%v", read.Array, idx)
			if w, ok := lastWriter[cell]; ok {
				counts[w]++
			}
		}
		w := &ins.stmt.Write
		idx := make([]int64, len(w.Index))
		for k, lin := range w.Index {
			idx[k], _ = lin.Eval(ins.env)
		}
		lastWriter[fmt.Sprintf("%s%v", w.Array, idx)] = instKeyOf(ins.stmt, ins.env)
	}
	return counts
}
