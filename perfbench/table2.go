package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"defuse/internal/bench"
	"defuse/internal/codegen"
	"defuse/internal/codegen/gennative"
	"defuse/internal/hwsim"
	"defuse/internal/instrument"
	"defuse/internal/interp"
	"defuse/internal/lang"
)

// table2-native: the ten Table 2 kernels compiled by the defuse pipeline,
// timed as Go code. Set-up instruments every kernel twice (Resilient and
// Resilient-Optimized); the timed phase runs the committed gennative
// kernels on fresh machines, variants interleaved rep by rep; a final
// cost-model pass counts operations on the interpreter.

// table2Scale is the timed problem size: the smallest scale at which every
// Original kernel runs for at least a few microseconds.
const table2Scale = 0.01

// costModelScale is the scale of the committed cost-model figures.
const costModelScale = 0.004

// compileWorkers is how many kernels are instrumented at once (2 cores).
const compileWorkers = 2

// table2Reps is each kernel's repetition count per variant for a 10-second
// run. Counts are fixed, not a time budget, so a slower build runs longer
// rather than measuring less; they are sized to give each kernel roughly a
// second of timed work on a 2-core x86 box, jacobi1d (~1.4 s per rep of all
// three variants) excepted.
var table2Reps = map[string]int{
	"ADI": 150, "CG": 130, "cholesky": 2000, "dsyrk": 160, "jacobi1d": 2,
	"LU": 300, "moldyn": 10, "seidel": 170, "strsm": 220, "trisolv": 1600,
}

var table2Variants = []bench.Variant{bench.Original, bench.Resilient, bench.ResilientOpt}

// kernelVariant is one compiled benchmark variant.
type kernelVariant struct {
	b       *bench.Benchmark
	v       bench.Variant
	prog    *lang.Program
	fn      codegen.Fn
	report  instrument.Report
	compile time.Duration // instrument.Instrument wall time (0 for Original)
}

// table2Build is the product of one set-up.
type table2Build struct {
	suite    []*bench.Benchmark
	variants map[string][3]*kernelVariant
	floats   map[string][]string // float arrays compared across variants
	compile  time.Duration       // sum of instrument.Instrument wall times
	alloc    uint64              // bytes allocated while compiling
}

// buildTable2 instruments the suite on compileWorkers goroutines, recording
// one compile span per instrument.Instrument call.
func buildTable2(rec *recorder, parent int64) (*table2Build, error) {
	bld := &table2Build{
		suite:    bench.Suite(),
		variants: map[string][3]*kernelVariant{},
		floats:   map[string][]string{},
	}
	type job struct {
		kv *kernelVariant
		i  int
	}
	var jobs []job
	for _, b := range bld.suite {
		var vs [3]*kernelVariant
		for vi, v := range table2Variants {
			kern, ok := gennative.Lookup(b.Name, string(v))
			if !ok {
				return nil, fmt.Errorf("table2: no generated kernel for %s/%s", b.Name, v)
			}
			vs[vi] = &kernelVariant{b: b, v: v, fn: kern.Fn}
			if v == bench.Original {
				vs[vi].prog = b.Program()
			} else {
				jobs = append(jobs, job{vs[vi], len(jobs)})
			}
		}
		bld.variants[b.Name] = vs
		for _, d := range vs[0].prog.Decls {
			if d.Type == lang.TypeFloat && d.IsArray() {
				bld.floats[b.Name] = append(bld.floats[b.Name], d.Name)
			}
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ch := make(chan job)
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < compileWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				kv := j.kv
				opt := instrument.Options{}
				if kv.v == bench.ResilientOpt {
					opt = instrument.Options{Split: true, Inspector: true}
				}
				sp := rec.start(parent, "compile", "instrument.Instrument "+kv.b.Name+"/"+string(kv.v))
				t0 := time.Now()
				res, err := instrument.Instrument(kv.b.Program(), opt)
				kv.compile = time.Since(t0)
				sp.end()
				if err != nil {
					errs[j.i] = fmt.Errorf("table2: instrumenting %s as %s: %w", kv.b.Name, kv.v, err)
					continue
				}
				kv.prog, kv.report = res.Prog, res.Report
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	runtime.ReadMemStats(&after)
	bld.alloc = after.TotalAlloc - before.TotalAlloc
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, b := range bld.suite {
		for _, kv := range bld.variants[b.Name] {
			bld.compile += kv.compile
		}
	}
	return bld, nil
}

// table2Run is the timed phase's raw material.
type table2Run struct {
	samples map[string][3][]float64 // seconds per execution, by kernel and variant
	machine time.Duration           // MachineFor + data initialisation
	wall    time.Duration           // the whole timed phase
	execs   int
}

// kernelSeed derives a kernel's data seed from the run seed.
func kernelSeed(seed int64, b *bench.Benchmark) int64 { return seed*1_000_003 + b.Seed }

// repsFor scales a kernel's 10-second repetition count to the run length.
func repsFor(name string, seconds float64) int {
	return max(1, int(math.Round(float64(table2Reps[name])*seconds/10)))
}

// timeTable2 runs the interleaved schedule: in rep r every kernel that still
// has reps left runs its three variants, in an order rotated by r, each on
// a fresh machine with the same seeded data. Only the kernel call is timed.
// Every execution is checked: it must not fail (a DetectionError on a clean
// run is a failure) and its float outputs must equal the Original's bit for
// bit.
func timeTable2(bld *table2Build, seed int64, seconds float64, t *tally, rec *recorder, parent int64) table2Run {
	run := table2Run{samples: map[string][3][]float64{}}
	maxReps := 0
	for _, b := range bld.suite {
		maxReps = max(maxReps, repsFor(b.Name, seconds))
	}
	ref := map[string]uint64{}
	start := time.Now()
	for r := 0; r < maxReps; r++ {
		for _, b := range bld.suite {
			if r >= repsFor(b.Name, seconds) {
				continue
			}
			params := b.Params(table2Scale)
			vs := bld.variants[b.Name]
			smp := run.samples[b.Name]
			for j := 0; j < 3; j++ {
				vi := (j + r) % 3
				kv := vs[vi]
				sp := rec.start(parent, "codegen", "codegen.MachineFor "+b.Name)
				t0 := time.Now()
				m, err := codegen.MachineFor(kv.prog, params)
				if err == nil {
					b.Init(m, params, rand.New(rand.NewSource(kernelSeed(seed, b))))
				}
				run.machine += time.Since(t0)
				sp.end()
				if err != nil {
					t.check(false, "%s/%s: machine: %v", b.Name, kv.v, err)
					continue
				}
				sp = rec.start(parent, "codegen", "kernel "+b.Name+"/"+string(kv.v))
				t0 = time.Now()
				err = kv.fn(m, 0, 1)
				d := time.Since(t0)
				sp.end()
				run.execs++
				if err != nil {
					t.check(false, "%s/%s rep %d: %v", b.Name, kv.v, r, err)
					continue
				}
				sum, err := floatDigest(m, bld.floats[b.Name])
				if err != nil {
					t.check(false, "%s/%s: snapshot: %v", b.Name, kv.v, err)
					continue
				}
				if r == 0 && vi == 0 {
					ref[b.Name] = sum
				}
				t.check(sum == ref[b.Name], "%s/%s rep %d: outputs differ from Original", b.Name, kv.v, r)
				smp[vi] = append(smp[vi], d.Seconds())
			}
			run.samples[b.Name] = smp
		}
	}
	run.wall = time.Since(start)
	return run
}

// floatSource is a machine whose float arrays can be read back.
type floatSource interface {
	SnapshotFloats(name string) ([]float64, error)
}

// floatDigest hashes the bits of the named float arrays.
func floatDigest(m floatSource, names []string) (uint64, error) {
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range names {
		vals, err := m.SnapshotFloats(name)
		if err != nil {
			return 0, err
		}
		for _, v := range vals {
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64(), nil
}

// table2Figures summarises a timed phase.
type table2Figures struct {
	resilient, optimized map[string]float64 // per-kernel overheads
	resilientGeo         float64
	optimizedGeo         float64
	geoMedian            [3]float64 // geomean over kernels of per-kernel median seconds
}

// pairedRatio is the median over reps of a protected execution's time over
// the Original execution of the same rep. The two ran back to back, so a
// change in machine speed between reps cancels.
func pairedRatio(protected, original []float64) float64 {
	n := min(len(protected), len(original))
	ratios := make([]float64, n)
	for r := 0; r < n; r++ {
		ratios[r] = protected[r] / original[r]
	}
	return median(ratios)
}

func summarizeTable2(bld *table2Build, run table2Run) (table2Figures, error) {
	f := table2Figures{resilient: map[string]float64{}, optimized: map[string]float64{}}
	var res, opt []float64
	var per [3][]float64
	for _, b := range bld.suite {
		smp := run.samples[b.Name]
		for vi := range table2Variants {
			if len(smp[vi]) == 0 {
				return f, fmt.Errorf("table2: %s/%s has no successful execution", b.Name, table2Variants[vi])
			}
			per[vi] = append(per[vi], median(smp[vi]))
		}
		f.resilient[b.Name] = pairedRatio(smp[1], smp[0])
		f.optimized[b.Name] = pairedRatio(smp[2], smp[0])
		res = append(res, f.resilient[b.Name])
		opt = append(opt, f.optimized[b.Name])
	}
	var err error
	if f.resilientGeo, err = geomean(res); err != nil {
		return f, err
	}
	if f.optimizedGeo, err = geomean(opt); err != nil {
		return f, err
	}
	for vi := range per {
		if f.geoMedian[vi], err = geomean(per[vi]); err != nil {
			return f, err
		}
	}
	return f, nil
}

// costModel is the interpreter pass's outcome.
type costModel struct {
	resilientOps, optimizedOps, hwEstimate float64
	csOps                                  uint64
	wall                                   time.Duration
}

// runCostModel executes every variant on the op-counting interpreter at the
// committed scale and prices the counts with hwsim; the three variants'
// outputs must agree exactly and no run may report a detection.
func runCostModel(ctx context.Context, bld *table2Build, seed int64, t *tally, rec *recorder, parent int64) (costModel, error) {
	var cm costModel
	var res, opt, hw []float64
	start := time.Now()
	for _, b := range bld.suite {
		if err := ctx.Err(); err != nil {
			return cm, err
		}
		params := b.Params(costModelScale)
		var counts [3]interp.OpCounts
		var ref uint64
		ok := true
		for vi, kv := range bld.variants[b.Name] {
			sp := rec.start(parent, "interp", "interp.Run "+b.Name+"/"+string(kv.v))
			m, err := interp.New(kv.prog, params)
			if err == nil {
				b.Init(m, params, rand.New(rand.NewSource(kernelSeed(seed, b))))
				err = m.Run()
			}
			sp.end()
			if err != nil {
				t.check(false, "cost model %s/%s: %v", b.Name, kv.v, err)
				ok = false
				continue
			}
			sum, err := floatDigest(m, bld.floats[b.Name])
			if err != nil {
				return cm, err
			}
			if vi == 0 {
				ref = sum
			}
			t.check(sum == ref, "cost model %s/%s: outputs differ from Original", b.Name, kv.v)
			counts[vi] = m.Counts
		}
		if !ok {
			continue
		}
		base := hwsim.SoftwareCost(counts[0])
		res = append(res, hwsim.SoftwareCost(counts[1])/base)
		opt = append(opt, hwsim.SoftwareCost(counts[2])/base)
		hw = append(hw, hwsim.HardwareCost(counts[2], hwsim.DefaultConfig())/base)
		cm.csOps += counts[1].CsOps + counts[2].CsOps
	}
	cm.wall = time.Since(start)
	var err error
	if cm.resilientOps, err = geomean(res); err != nil {
		return cm, fmt.Errorf("cost model: %w", err)
	}
	if cm.optimizedOps, err = geomean(opt); err != nil {
		return cm, fmt.Errorf("cost model: %w", err)
	}
	if cm.hwEstimate, err = geomean(hw); err != nil {
		return cm, fmt.Errorf("cost model: %w", err)
	}
	return cm, nil
}

// sourceBytes renders every variant with codegen.Source, the generator the
// committed gennative kernels come from, and returns the total size.
func sourceBytes(bld *table2Build, rec *recorder, parent int64) (int, error) {
	n := 0
	for _, b := range bld.suite {
		for _, kv := range bld.variants[b.Name] {
			sp := rec.start(parent, "codegen", "codegen.Source "+b.Name+"/"+string(kv.v))
			src, err := codegen.Source(kv.prog, "run_kernel")
			sp.end()
			if err != nil {
				return 0, fmt.Errorf("codegen.Source %s/%s: %w", b.Name, kv.v, err)
			}
			n += len(src)
		}
	}
	return n, nil
}
