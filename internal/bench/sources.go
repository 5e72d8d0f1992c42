// Package bench reproduces the paper's evaluation (Section 6.2): the ten
// benchmarks of Table 2 (affine PLUTO kernels plus the irregular CG and
// moldyn), compiled in three variants — Original, Resilient (Algorithm 3
// instrumentation), and Resilient-Optimized (index-set splitting + inspector
// hoisting) — and measured for overhead (Figure 10) and under the hardware
// checksum-unit cost model (Figure 11).
package bench

import (
	"fmt"
	"math/rand"

	"defuse/internal/lang"
)

// DataHost is the backend-independent data-initialization surface: the
// subset of the machine API a benchmark's Init needs, satisfied by both
// interp.Machine and codegen.Machine so the same seeding code feeds the
// interpreter and the native backend with bit-identical inputs.
type DataHost interface {
	SetFloat(name string, v float64, idx ...int64) error
	SetInt(name string, v int64, idx ...int64) error
	FillFloat(name string, gen func(flat int64) float64) error
	FillInt(name string, gen func(flat int64) int64) error
}

// Benchmark describes one Table 2 entry.
type Benchmark struct {
	Name        string
	Description string
	Source      string
	// Irregular marks the benchmarks with data-dependent accesses (CG,
	// moldyn in the paper).
	Irregular bool
	// Params returns the parameter assignment for a scale factor in (0, 1];
	// scale 1 approximates the paper's problem sizes, the default harness
	// scale keeps interpreter runs fast.
	Params func(scale float64) map[string]int64
	// Init seeds the machine's arrays and scalars from rng; InitDefault
	// supplies the benchmark's historical Seed for reproducible defaults,
	// and differential harnesses pass their own streams to vary the data.
	Init func(m DataHost, params map[string]int64, rng *rand.Rand)
	// Seed is the benchmark's default data seed (used by InitDefault).
	Seed int64
	// PaperSize is Table 2's problem-size string.
	PaperSize string
}

const adiSrc = `
program adi(tsteps, n)
float X[n][n], A[n][n], B[n][n];
for t = 0 to tsteps - 1 {
  for i1 = 0 to n - 1 {
    for i2 = 1 to n - 1 {
      S1: X[i1][i2] = X[i1][i2] - X[i1][i2 - 1] * A[i1][i2] / B[i1][i2 - 1];
      S2: B[i1][i2] = B[i1][i2] - A[i1][i2] * A[i1][i2] / B[i1][i2 - 1];
    }
  }
  for i1 = 0 to n - 1 {
    S3: X[i1][n - 1] = X[i1][n - 1] / B[i1][n - 1];
  }
  for i1 = 0 to n - 1 {
    for i2 = 0 to n - 3 {
      S4: X[i1][n - i2 - 2] = (X[i1][n - 2 - i2] - X[i1][n - 2 - i2 - 1] * A[i1][n - i2 - 3]) / B[i1][n - 3 - i2];
    }
  }
  for i1 = 1 to n - 1 {
    for i2 = 0 to n - 1 {
      S5: X[i1][i2] = X[i1][i2] - X[i1 - 1][i2] * A[i1][i2] / B[i1 - 1][i2];
      S6: B[i1][i2] = B[i1][i2] - A[i1][i2] * A[i1][i2] / B[i1 - 1][i2];
    }
  }
  for i2 = 0 to n - 1 {
    S7: X[n - 1][i2] = X[n - 1][i2] / B[n - 1][i2];
  }
  for i1 = 0 to n - 3 {
    for i2 = 0 to n - 1 {
      S8: X[n - 2 - i1][i2] = (X[n - 2 - i1][i2] - X[n - i1 - 3][i2] * A[n - 3 - i1][i2]) / B[n - 2 - i1][i2];
    }
  }
}
`

const cgSrc = `
program cg(n, k, maxiter)
float Aval[n][k], p[n], q[n], x[n], r[n];
float alpha, beta, rnorm, rnorm_new, pq;
int cols[n][k];
int iter;
iter = 0;
while (iter < maxiter) {
  for i0 = 0 to n - 1 {
    S0: q[i0] = 0.0;
  }
  for i1 = 0 to n - 1 {
    for j1 = 0 to k - 1 {
      S1: q[i1] += Aval[i1][j1] * p[cols[i1][j1]];
    }
  }
  pq = 0.0;
  for i2 = 0 to n - 1 {
    S2: pq += p[i2] * q[i2];
  }
  alpha = rnorm / pq;
  for i3 = 0 to n - 1 {
    S3: x[i3] = x[i3] + alpha * p[i3];
  }
  for i4 = 0 to n - 1 {
    S4: r[i4] = r[i4] - alpha * q[i4];
  }
  rnorm_new = 0.0;
  for i5 = 0 to n - 1 {
    S5: rnorm_new += r[i5] * r[i5];
  }
  beta = rnorm_new / rnorm;
  rnorm = rnorm_new;
  for i6 = 0 to n - 1 {
    S6: p[i6] = r[i6] + beta * p[i6];
  }
  iter = iter + 1;
}
`

const choleskySrc = `
program cholesky(n)
float A[n][n];
for j = 0 to n - 1 {
  S1: A[j][j] = sqrt(A[j][j]);
  for i = j + 1 to n - 1 {
    S2: A[i][j] = A[i][j] / A[j][j];
  }
}
`

const dsyrkSrc = `
program dsyrk(n, m)
float C[n][n], A[n][m];
for i = 0 to n - 1 {
  for j = 0 to n - 1 {
    for k = 0 to m - 1 {
      S1: C[i][j] = C[i][j] + A[i][k] * A[j][k];
    }
  }
}
`

const jacobi1dSrc = `
program jacobi1d(tsteps, n)
float A[n], B[n];
for t = 0 to tsteps - 1 {
  for i = 1 to n - 2 {
    S1: B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0;
  }
  for i = 1 to n - 2 {
    S2: A[i] = B[i];
  }
}
`

const luSrc = `
program lu(n)
float A[n][n];
for k = 0 to n - 1 {
  for j = k + 1 to n - 1 {
    S1: A[k][j] = A[k][j] / A[k][k];
  }
  for i = k + 1 to n - 1 {
    for j = k + 1 to n - 1 {
      S2: A[i][j] = A[i][j] - A[i][k] * A[k][j];
    }
  }
}
`

const moldynSrc = `
program moldyn(n, k, maxiter)
float x[n], f[n], cutoff, dt;
int neigh[n][k];
int iter, stride;
iter = 0;
while (iter < maxiter) {
  stride = stride + 1;
  for i0 = 0 to n - 1 {
    for k0 = 0 to k - 1 {
      S0: neigh[i0][k0] = (i0 + k0 * stride) % n;
    }
  }
  for i1 = 0 to n - 1 {
    S1: f[i1] = 0.0;
  }
  for i2 = 0 to n - 1 {
    for k2 = 0 to k - 1 {
      S2: f[i2] = f[i2] + min(cutoff, x[neigh[i2][k2]] - x[i2]);
    }
  }
  for i3 = 0 to n - 1 {
    S3: x[i3] = x[i3] + f[i3] * dt;
  }
  iter = iter + 1;
}
`

const seidelSrc = `
program seidel(tsteps, n)
float A[n][n];
for t = 0 to tsteps - 1 {
  for i = 1 to n - 2 {
    for j = 1 to n - 2 {
      S1: A[i][j] = (A[i - 1][j - 1] + A[i - 1][j] + A[i - 1][j + 1] + A[i][j - 1] + A[i][j] + A[i][j + 1] + A[i + 1][j - 1] + A[i + 1][j] + A[i + 1][j + 1]) / 9.0;
    }
  }
}
`

const strsmSrc = `
program strsm(n, m)
float L[n][n], B[n][m];
for j = 0 to m - 1 {
  for i = 0 to n - 1 {
    for k = 0 to i - 1 {
      S1: B[i][j] = B[i][j] - L[i][k] * B[k][j];
    }
    S2: B[i][j] = B[i][j] / L[i][i];
  }
}
`

const trisolvSrc = `
program trisolv(n)
float L[n][n], x[n], b[n];
for i = 0 to n - 1 {
  S1: x[i] = b[i];
  for j = 0 to i - 1 {
    S2: x[i] = x[i] - L[i][j] * x[j];
  }
  S3: x[i] = x[i] / L[i][i];
}
`

func scaleInt(base int64, scale float64, min int64) int64 {
	v := int64(float64(base) * scale)
	if v < min {
		v = min
	}
	return v
}

// Suite returns the Table 2 benchmarks in the paper's order.
func Suite() []*Benchmark {
	return []*Benchmark{
		{
			Name: "ADI", Description: "Alternating direction implicit solver",
			Source: adiSrc, PaperSize: "TSteps = 500, N = 3000",
			Params: func(s float64) map[string]int64 {
				return map[string]int64{"tsteps": scaleInt(500, s, 2), "n": scaleInt(3000, s, 8)}
			},
			Seed: 101,
			Init: func(m DataHost, p map[string]int64, rng *rand.Rand) {
				must(m.FillFloat("X", func(i int64) float64 { return rng.Float64() }))
				must(m.FillFloat("A", func(i int64) float64 { return 0.1 + 0.1*rng.Float64() }))
				must(m.FillFloat("B", func(i int64) float64 { return 2.0 + rng.Float64() }))
			},
		},
		{
			Name: "CG", Description: "Conjugate gradient", Irregular: true,
			Source: cgSrc, PaperSize: "TSteps = 1500, NZ = 513072",
			Params: func(s float64) map[string]int64 {
				return map[string]int64{"n": scaleInt(3000, s, 8), "k": 8, "maxiter": scaleInt(1500, s, 2)}
			},
			Seed: 102,
			Init: func(m DataHost, p map[string]int64, rng *rand.Rand) {
				n, k := p["n"], p["k"]
				must(m.FillFloat("Aval", func(i int64) float64 { return 0.5 + rng.Float64() }))
				must(m.FillInt("cols", func(i int64) int64 { return rng.Int63n(n) }))
				rn := 0.0
				for i := int64(0); i < n; i++ {
					v := 1 + rng.Float64()
					must(m.SetFloat("p", v, i))
					must(m.SetFloat("r", v, i))
					rn += v * v
				}
				must(m.SetFloat("rnorm", rn))
				_ = k
			},
		},
		{
			Name: "cholesky", Description: "Cholesky decomposition",
			Source: choleskySrc, PaperSize: "N = 3000",
			Params: func(s float64) map[string]int64 {
				return map[string]int64{"n": scaleInt(3000, s, 8)}
			},
			Seed: 103,
			Init: func(m DataHost, p map[string]int64, rng *rand.Rand) {
				n := p["n"]
				must(m.FillFloat("A", func(i int64) float64 { return 0.2 * rng.Float64() }))
				for d := int64(0); d < n; d++ {
					must(m.SetFloat("A", float64(n)+rng.Float64(), d, d))
				}
			},
		},
		{
			Name: "dsyrk", Description: "Symmetric rank-k update",
			Source: dsyrkSrc, PaperSize: "N = 3000",
			Params: func(s float64) map[string]int64 {
				n := scaleInt(3000, s, 8)
				return map[string]int64{"n": n, "m": n}
			},
			Seed: 104,
			Init: func(m DataHost, p map[string]int64, rng *rand.Rand) {
				must(m.FillFloat("C", func(i int64) float64 { return rng.Float64() }))
				must(m.FillFloat("A", func(i int64) float64 { return rng.Float64() }))
			},
		},
		{
			Name: "jacobi1d", Description: "1-D Jacobi stencil computation",
			Source: jacobi1dSrc, PaperSize: "TSteps = 100000, N = 400000",
			Params: func(s float64) map[string]int64 {
				return map[string]int64{"tsteps": scaleInt(100000, s, 2), "n": scaleInt(400000, s, 8)}
			},
			Seed: 105,
			Init: func(m DataHost, p map[string]int64, rng *rand.Rand) {
				must(m.FillFloat("A", func(i int64) float64 { return rng.Float64() * 100 }))
			},
		},
		{
			Name: "LU", Description: "LU decomposition",
			Source: luSrc, PaperSize: "N = 3000",
			Params: func(s float64) map[string]int64 {
				return map[string]int64{"n": scaleInt(3000, s, 8)}
			},
			Seed: 106,
			Init: func(m DataHost, p map[string]int64, rng *rand.Rand) {
				n := p["n"]
				must(m.FillFloat("A", func(i int64) float64 { return 0.1 * rng.Float64() }))
				for d := int64(0); d < n; d++ {
					must(m.SetFloat("A", float64(n)+1+rng.Float64(), d, d))
				}
			},
		},
		{
			Name: "moldyn", Description: "Molecular dynamics", Irregular: true,
			Source: moldynSrc, PaperSize: "TSteps = 100000, N = 400000",
			Params: func(s float64) map[string]int64 {
				return map[string]int64{"n": scaleInt(400000, s, 8), "k": 6, "maxiter": scaleInt(100, s, 5)}
			},
			Seed: 107,
			Init: func(m DataHost, p map[string]int64, rng *rand.Rand) {
				must(m.FillFloat("x", func(i int64) float64 { return rng.Float64() * 10 }))
				must(m.SetFloat("cutoff", 2.5))
				must(m.SetFloat("dt", 0.0001))
			},
		},
		{
			Name: "seidel", Description: "2-D seidel stencil",
			Source: seidelSrc, PaperSize: "TSteps = 500, N = 3000",
			Params: func(s float64) map[string]int64 {
				return map[string]int64{"tsteps": scaleInt(500, s, 2), "n": scaleInt(3000, s, 8)}
			},
			Seed: 108,
			Init: func(m DataHost, p map[string]int64, rng *rand.Rand) {
				must(m.FillFloat("A", func(i int64) float64 { return rng.Float64() * 50 }))
			},
		},
		{
			Name: "strsm", Description: "Triangular matrix equations solver",
			Source: strsmSrc, PaperSize: "N = 3000",
			Params: func(s float64) map[string]int64 {
				n := scaleInt(3000, s, 8)
				return map[string]int64{"n": n, "m": n}
			},
			Seed: 109,
			Init: func(m DataHost, p map[string]int64, rng *rand.Rand) {
				n := p["n"]
				must(m.FillFloat("L", func(i int64) float64 { return 0.05 * rng.Float64() }))
				for d := int64(0); d < n; d++ {
					must(m.SetFloat("L", 2+rng.Float64(), d, d))
				}
				must(m.FillFloat("B", func(i int64) float64 { return rng.Float64() }))
			},
		},
		{
			Name: "trisolv", Description: "Triangular system of linear equations solver",
			Source: trisolvSrc, PaperSize: "N = 3000",
			Params: func(s float64) map[string]int64 {
				return map[string]int64{"n": scaleInt(3000, s, 8)}
			},
			Seed: 110,
			Init: func(m DataHost, p map[string]int64, rng *rand.Rand) {
				n := p["n"]
				must(m.FillFloat("L", func(i int64) float64 { return 0.05 * rng.Float64() }))
				for d := int64(0); d < n; d++ {
					must(m.SetFloat("L", 2+rng.Float64(), d, d))
				}
				must(m.FillFloat("b", func(i int64) float64 { return rng.Float64() }))
			},
		},
	}
}

// ByName returns the benchmark with the given (Table 2) name.
func ByName(name string) (*Benchmark, error) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown benchmark %q", name)
}

// Program parses the benchmark's source.
func (b *Benchmark) Program() *lang.Program { return lang.MustParse(b.Source) }

// InitDefault seeds the machine with the benchmark's default data stream —
// the historical fixed-seed initialization every measurement path uses.
func (b *Benchmark) InitDefault(m DataHost, params map[string]int64) {
	b.Init(m, params, rand.New(rand.NewSource(b.Seed)))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
