package defuse

// This file regenerates the paper's evaluation through testing.B benchmarks:
// one benchmark family per table/figure. Run with
//
//	go test -bench=. -benchmem
//
// BenchmarkTable1*   — fault-coverage trials (Table 1 cells)
// BenchmarkFig10*    — Original / Resilient / Resilient-Optimized variants
//                      of each Table 2 kernel (Figure 10): the ns/op ratio
//                      between variants is the normalized runtime
// BenchmarkFig11*    — the hardware-assisted estimate is derived from op
//                      counts; the bench exercises the estimator pipeline
// BenchmarkCompile   — instrumentation (compile-time) cost itself

import (
	"fmt"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/checksum"
	"defuse/internal/faults"
	"defuse/internal/hwsim"
)

// benchScale keeps interpreter-based kernels fast under testing.B.
const benchScale = 0.004

// BenchmarkTable1Coverage runs one Table 1 trial batch per iteration for the
// headline cells (2-6 flips on random data, one and two checksums).
func BenchmarkTable1Coverage(b *testing.B) {
	for _, flips := range []int{2, 3, 6} {
		for _, dual := range []bool{false, true} {
			name := fmt.Sprintf("flips=%d/dual=%v", flips, dual)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := faults.Table1Cell(100, flips, faults.Random, dual, 100, int64(i))
					if err != nil {
						b.Fatal(err)
					}
					if r.Trials != 100 {
						b.Fatal("bad trial count")
					}
				}
			})
		}
	}
}

// BenchmarkTable1Checksum measures the raw checksum operators used by the
// coverage study (the per-word cost that Table 1's scheme pays).
func BenchmarkTable1Checksum(b *testing.B) {
	data := make([]uint64, 1<<14)
	for i := range data {
		data[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for _, k := range []checksum.Kind{checksum.ModAdd, checksum.XOR, checksum.OnesComp, checksum.Fletcher64} {
		b.Run(k.String(), func(b *testing.B) {
			b.SetBytes(int64(len(data) * 8))
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= checksum.Sum(k, data)
			}
			_ = sink
		})
	}
	b.Run("dual-modadd", func(b *testing.B) {
		b.SetBytes(int64(len(data) * 8))
		var sink uint64
		for i := 0; i < b.N; i++ {
			f, s := checksum.DualSum(checksum.ModAdd, data)
			sink ^= f ^ s
		}
		_ = sink
	})
}

// BenchmarkFig10 runs every Table 2 kernel in each Figure 10 variant on the
// interpreter. Its ns/op time the tree-walker; Figure 10's wall clock comes
// from the generated kernels (cmd/overhead -backend native).
func BenchmarkFig10(b *testing.B) {
	for _, bm := range bench.Suite() {
		for _, v := range []bench.Variant{bench.Original, bench.Resilient, bench.ResilientOpt} {
			b.Run(fmt.Sprintf("%s/%s", bm.Name, v), func(b *testing.B) {
				prog, err := bm.BuildVariant(v)
				if err != nil {
					b.Fatal(err)
				}
				params := bm.Params(benchScale)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m, err := NewMachine(prog, params)
					if err != nil {
						b.Fatal(err)
					}
					bm.InitDefault(m, params)
					b.StartTimer()
					if err := m.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig11Estimator measures the hardware checksum-unit estimate
// pipeline: an instrumented run plus the cost-model evaluation.
func BenchmarkFig11Estimator(b *testing.B) {
	bm, err := bench.ByName("cholesky")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bm.BuildVariant(bench.ResilientOpt)
	if err != nil {
		b.Fatal(err)
	}
	params := bm.Params(benchScale)
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(prog, params)
		if err != nil {
			b.Fatal(err)
		}
		bm.InitDefault(m, params)
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		if hwsim.HardwareCost(m.Counts, hwsim.DefaultConfig()) <= 0 {
			b.Fatal("zero cost")
		}
	}
}

// BenchmarkCompile measures the instrumentation pipeline itself (polyhedral
// analysis, use counts, splitting) per kernel.
func BenchmarkCompile(b *testing.B) {
	for _, bm := range bench.Suite() {
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bm.BuildVariant(bench.ResilientOpt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGoInstr measures Go source instrumentation throughput.
func BenchmarkGoInstr(b *testing.B) {
	src := `package p

func kernel(a float64, b float64) float64 {
	t := a * b
	u := t + a
	v := u * t
	return v - b
}
`
	for i := 0; i < b.N; i++ {
		if _, _, err := InstrumentGo("p.go", src, GoOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
