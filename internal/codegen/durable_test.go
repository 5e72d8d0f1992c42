package codegen_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/checksum"
	"defuse/internal/codegen"
	"defuse/internal/codegen/gennative"
	"defuse/internal/interp"
	"defuse/internal/lang"
	"defuse/internal/memsim"
	"defuse/internal/recovery"
	"defuse/internal/wal"
)

// Durable epoch state across backends. A WAL record holds the machine state
// at a verified epoch boundary; both backends must encode it identically, so
// a log sealed by one resumes under the other, and a record from a machine
// with a different layout must never resume.

const durableDigestFile = "testdata/durable.digest"

// durableRun is one backend's epoch-supervised view of an initialized
// machine: the calls the durable tests make, with the backend erased.
type durableRun struct {
	epochs    int
	runEpoch  func(k int) error
	supervise func(ctx context.Context, pol recovery.Policy, path string) (recovery.DurableOutcome, error)
	stepHook  func(h func(step uint64))
	words     func() []uint64
	pair      func() *checksum.Pair
	float     func(name string, idx ...int64) (float64, error)
	mem       *memsim.Memory
	region    func(name string) (base, size int, err error)
}

// newDurableRun builds an initialized machine on backend ("interp" or
// "codegen", which runs fn, prog's generated form) with the given base
// offset and plans epochs over it.
func newDurableRun(t *testing.T, backend string, prog *lang.Program, fn codegen.Fn, params map[string]int64,
	pad, epochs int, init func(bench.DataHost)) *durableRun {
	t.Helper()
	switch backend {
	case "interp":
		m, err := interp.New(prog, params, interp.WithBaseOffset(pad))
		if err != nil {
			t.Fatal(err)
		}
		init(m)
		p, err := m.PlanEpochs(epochs)
		if err != nil {
			t.Fatal(err)
		}
		return &durableRun{
			epochs: p.Epochs(), runEpoch: p.RunEpoch, supervise: p.SuperviseDurable,
			stepHook: m.SetStepHook, words: m.Mem().Words, pair: m.Pair, float: m.Float,
			mem: m.Mem(), region: m.Region,
		}
	case "codegen":
		m, err := codegen.MachineFor(prog, params, codegen.WithBaseOffset(pad))
		if err != nil {
			t.Fatal(err)
		}
		init(m)
		p, err := codegen.PlanEpochs(m, prog, fn, epochs)
		if err != nil {
			t.Fatal(err)
		}
		return &durableRun{
			epochs: p.Epochs(), runEpoch: p.RunEpoch, supervise: p.SuperviseDurable,
			stepHook: m.SetStepHook, words: m.Mem().Words, pair: m.Pair, float: m.Float,
			mem: m.Mem(), region: m.Region,
		}
	}
	t.Fatalf("unknown backend %q", backend)
	return nil
}

// runAllEpochs executes every epoch in order and returns the step count at
// each epoch's exit.
func (r *durableRun) runAllEpochs(t *testing.T) []uint64 {
	t.Helper()
	var last uint64
	r.stepHook(func(step uint64) { last = step })
	defer r.stepHook(nil)
	exits := make([]uint64, r.epochs)
	for k := range exits {
		if err := r.runEpoch(k); err != nil {
			t.Fatalf("epoch %d: %v", k, err)
		}
		exits[k] = last
	}
	return exits
}

// sealFirst runs build()'s machine under the durable supervisor at path and
// stops it after exactly n verified, sealed epochs: the supervisor's context
// is cancelled during epoch n-1, so that epoch completes and seals and the
// supervisor refuses to start epoch n — a process killed between seals.
func sealFirst(t *testing.T, build func() *durableRun, path string, n int) {
	t.Helper()
	exits := build().runAllEpochs(t)
	r := build()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	after := uint64(0)
	if n >= 2 {
		after = exits[n-2]
	}
	r.stepHook(func(step uint64) {
		if step > after {
			cancel()
		}
	})
	out, err := r.supervise(ctx, recovery.Policy{}, path)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err %v, want context.Canceled", err)
	}
	if out.Seals != n || out.Detected {
		t.Fatalf("interrupted run sealed %d epochs (detected=%v), want %d clean seals", out.Seals, out.Detected, n)
	}
}

// sameState asserts two runs hold bit-identical memory, accumulators and
// shadows.
func sameState(t *testing.T, label string, got, want *durableRun) {
	t.Helper()
	gw, ww := got.words(), want.words()
	if len(gw) != len(ww) {
		t.Fatalf("%s: %d memory words, want %d", label, len(gw), len(ww))
	}
	for i := range ww {
		if gw[i] != ww[i] {
			t.Fatalf("%s: word %d = %#x, want %#x", label, i, gw[i], ww[i])
		}
	}
	gp, wp := got.pair(), want.pair()
	if gp.Def != wp.Def || gp.Use != wp.Use || gp.EDef != wp.EDef || gp.EUse != wp.EUse ||
		gp.Shadows() != wp.Shadows() {
		t.Fatalf("%s: checksum state %+v shadows %v, want %+v shadows %v",
			label, *gp, gp.Shadows(), *wp, wp.Shadows())
	}
}

// balancedProgram is an epoch-balanced kernel: every outer iteration folds
// each value it defines into the def and use sides, so the def/use identity
// holds at every iteration boundary and every interior epoch seals.
const balancedProgram = `
program balanced(n)
float A[n], B[n];
for i = 0 to n - 1 {
  A[i] = B[i] + 1.5;
  add_to_chksm(def_cs, A[i], 1);
  add_to_chksm(e_def_cs, A[i], 1);
  B[i] = A[i] * 2.0;
  add_to_chksm(use_cs, A[i], 1);
  add_to_chksm(e_use_cs, A[i], 1);
}
`

// durableCase is one program with its parameters and data, and its
// generated form if it is a committed kernel.
type durableCase struct {
	name   string
	prog   *lang.Program
	fn     codegen.Fn
	params map[string]int64
	init   func(bench.DataHost)
}

func balancedCase(t *testing.T, n int64) durableCase {
	t.Helper()
	prog, err := lang.Parse(balancedProgram)
	if err != nil {
		t.Fatal(err)
	}
	return durableCase{
		name: "balanced", prog: prog, params: map[string]int64{"n": n},
		init: func(h bench.DataHost) {
			rng := rand.New(rand.NewSource(7))
			if err := h.FillFloat("B", func(int64) float64 { return rng.Float64()*4 - 2 }); err != nil {
				t.Fatal(err)
			}
		},
	}
}

func kernelCase(t *testing.T, name string, v bench.Variant) durableCase {
	t.Helper()
	for _, b := range bench.Suite() {
		if b.Name != name {
			continue
		}
		prog, err := b.BuildVariant(v)
		if err != nil {
			t.Fatal(err)
		}
		gen, ok := gennative.Lookup(b.Name, string(v))
		if !ok {
			t.Fatalf("%s/%s: no generated kernel", name, v)
		}
		params := b.Params(diffScale)
		return durableCase{
			name: name + "/" + string(v), prog: prog, fn: gen.Fn, params: params,
			init: func(h bench.DataHost) { b.Init(h, params, rand.New(rand.NewSource(1))) },
		}
	}
	t.Fatalf("%s not in suite", name)
	return durableCase{}
}

func (c durableCase) build(t *testing.T, backend string, pad, epochs int) func() *durableRun {
	return func() *durableRun { return newDurableRun(t, backend, c.prog, c.fn, c.params, pad, epochs, c.init) }
}

// backends lists the backends a case runs on: interp, and codegen if the
// case has a generated form.
func (c durableCase) backends() []string {
	if c.fn == nil {
		return []string{"interp"}
	}
	return []string{"interp", "codegen"}
}

// TestDurableStateDigest pins the durable encoding of the machine state at
// every verified epoch boundary: three Table 2 kernels × {Resilient,
// Resilient-Optimized} × {interp, generated source}, as one whole-program
// epoch and as four epochs. Table 2 kernels balance their checksums only at
// the program's post-dominator, so most four-epoch runs detect at the first
// interior boundary that is not balanced; the seals before it are pinned
// too. Each line hashes every WAL record's resume epoch and state bytes (the
// record minus its configuration fingerprint). Both backends must produce
// the same hashes.
func TestDurableStateDigest(t *testing.T) {
	var lines []string
	for _, name := range []string{"jacobi1d", "CG", "seidel"} {
		for _, v := range []bench.Variant{bench.Resilient, bench.ResilientOpt} {
			c := kernelCase(t, name, v)
			for _, epochs := range []int{1, 4} {
				byBackend := map[string]string{}
				for _, backend := range []string{"interp", "codegen"} {
					path := filepath.Join(t.TempDir(), "state.wal")
					out, err := c.build(t, backend, 0, epochs)().supervise(context.Background(), recovery.Policy{}, path)
					if err != nil {
						t.Fatalf("%s/%s epochs=%d: %v", c.name, backend, epochs, err)
					}
					// A run that never verifies a boundary seals nothing:
					// its log holds no record.
					scan, err := wal.Recover(path)
					if err != nil && !errors.Is(err, wal.ErrNoCheckpoint) {
						t.Fatal(err)
					}
					h := sha256.New()
					for _, r := range scan.Records {
						h.Write(r.Payload[8:])
					}
					byBackend[backend] = fmt.Sprintf("seals=%d detected=%v records=%d sha256=%x",
						out.Seals, out.Detected, len(scan.Records), h.Sum(nil)[:12])
					lines = append(lines, fmt.Sprintf("%s epochs=%d %s %s", c.name, epochs, backend, byBackend[backend]))
				}
				if byBackend["interp"] != byBackend["codegen"] {
					t.Errorf("%s epochs=%d: backends encode differently:\ninterp  %s\ncodegen %s",
						c.name, epochs, byBackend["interp"], byBackend["codegen"])
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(durableDigestFile)
	if err != nil {
		t.Fatalf("%v; the current digest is:\n%s", err, got)
	}
	if got != string(want) {
		t.Fatalf("durable state encoding drifted from %s. If the change is intended, replace the file with:\n%s",
			durableDigestFile, got)
	}
}

// TestDurableCrossBackendResume seals two of four epochs on one backend and
// resumes the log on the other, both ways. The resumed run must pick up at
// epoch 2 and finish bit-identical — memory, accumulators and shadows — to
// an uninterrupted interpreter run. The kernel is jacobi1d's Original: its
// checksum pair stays zero, so its interior boundaries verify, while an
// instrumented kernel's fail once epoch 0 holds kernel work (its checksums
// balance only at the program's post-dominator).
func TestDurableCrossBackendResume(t *testing.T) {
	const epochs = 4
	c := kernelCase(t, "jacobi1d", bench.Original)
	ref := c.build(t, "interp", 0, epochs)()
	ref.runAllEpochs(t)
	for _, dir := range [][2]string{{"interp", "codegen"}, {"codegen", "interp"}} {
		label := c.name + "/" + dir[0] + "->" + dir[1]
		path := filepath.Join(t.TempDir(), "cross.wal")
		sealFirst(t, c.build(t, dir[0], 0, epochs), path, 2)
		r := c.build(t, dir[1], 0, epochs)()
		out, err := r.supervise(context.Background(), recovery.DefaultPolicy(), path)
		if err != nil {
			t.Fatalf("%s: resumed run: %v", label, err)
		}
		if !out.Resumed || out.ResumeEpoch != 2 || out.Detected || out.CorruptRecords != 0 {
			t.Fatalf("%s: outcome %+v, want a clean resume at epoch 2", label, out)
		}
		sameState(t, label, r, ref)
	}
}

// armUseLoadFlips arms r to flip bit sweepBit of A[c], for each c in cells,
// as balancedProgram's second statement loads it: memory keeps the flip and
// the load returns it, so the def fold saw the stored value and the use
// folds see the flipped one. Interp's folds re-read A[c] from memory around
// that load, so a clean run tells which load of A[c] it is: the last one
// before B[c] is stored.
func armUseLoadFlips(t *testing.T, clean, r *durableRun, cells ...int) {
	t.Helper()
	a, _, err := clean.region("A")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := clean.region("B")
	if err != nil {
		t.Fatal(err)
	}
	loads := map[int]int{} // address of A[c] -> loads of it so far
	nth := map[int]int{}   // address of A[c] -> which load to flip
	clean.mem.SetAccessHook(func(store bool, eff int) {
		for _, c := range cells {
			switch {
			case store && eff == b+c && nth[a+c] == 0:
				nth[a+c] = loads[a+c]
			case !store && eff == a+c:
				loads[a+c]++
			}
		}
	})
	clean.runAllEpochs(t)
	for _, c := range cells {
		if nth[a+c] == 0 {
			t.Fatalf("clean run never loaded A[%d] before storing B[%d]", c, c)
		}
	}
	seen := map[int]int{}
	r.mem.SetLoadHook(func(eff int, raw uint64) uint64 {
		if want, ok := nth[eff]; ok {
			if seen[eff]++; seen[eff] == want {
				r.mem.FlipBit(eff, sweepBit)
				raw ^= 1 << sweepBit
			}
		}
		return raw
	})
}

// TestTaintedRunResumesFromLastCleanSeal strikes balancedProgram with two
// transients under the zero Policy: one in epoch 2 of 4, which the boundary
// detects and the supervisor cannot repair, so the run degrades; and one in
// epoch 3 on a cell whose struck bit holds the opposite value, so the two
// flips move the use sums by +2^b and -2^b and boundary 3 verifies though
// the state is wrong. The degraded run must seal nothing after its
// unverified epoch, so a second supervisor on the same log resumes before
// the fault and ends at the clean reference state instead of reporting the
// tainted state as a clean run. balancedProgram has no generated form, so
// it runs on the interpreter.
func TestTaintedRunResumesFromLastCleanSeal(t *testing.T) {
	const epochs, n = 4, 64 // epoch k defines A[16k .. 16k+15]
	c := balancedCase(t, n)
	ref := c.build(t, "interp", 0, epochs)()
	ref.runAllEpochs(t)
	bit := func(i int64) uint64 {
		v, err := ref.float("A", i)
		if err != nil {
			t.Fatal(err)
		}
		return math.Float64bits(v) >> sweepBit & 1
	}
	first, second := int64(40), int64(48)
	for second < n && bit(second) == bit(first) {
		second++
	}
	if second == n {
		t.Fatalf("no cell in epoch 3 has bit %d opposite to A[%d]'s", sweepBit, first)
	}
	for _, backend := range c.backends() {
		build := c.build(t, backend, 0, epochs)
		path := filepath.Join(t.TempDir(), "tainted.wal")
		r := build()
		armUseLoadFlips(t, build(), r, int(first), int(second))
		out, err := r.supervise(context.Background(), recovery.Policy{}, path)
		if err != nil {
			t.Fatalf("%s: faulty run: %v", backend, err)
		}
		if !out.Tainted || out.FirstDetection != 2 || out.DataFaults != 1 || out.Recovered || out.Seals != 2 {
			t.Fatalf("%s: faulty run %+v, want tainted at epoch 2 with only epochs 0-1 sealed", backend, out)
		}
		r = build()
		out, err = r.supervise(context.Background(), recovery.Policy{}, path)
		if err != nil {
			t.Fatalf("%s: resumed run: %v", backend, err)
		}
		if !out.Resumed || out.ResumeEpoch != 2 || out.Detected || out.Tainted || out.Recovered {
			t.Fatalf("%s: resumed run %+v, want a clean resume at epoch 2", backend, out)
		}
		sameState(t, backend, r, ref)
	}
}

// epochProgram has a prologue, a checksum-complete outer loop and an
// epilogue, so each part of an epoch plan leaves a visible mark.
const epochProgram = `
program t(n)
float A[n], first, last;
first = 123.0;
for i = 0 to n - 1 {
  A[i] = i * 3.0;
  add_to_chksm(def_cs, A[i], 1);
  add_to_chksm(use_cs, A[i], 1);
  A[i] = A[i] + 1.0;
}
last = 456.0;
`

// TestDurableRefusesForeignBaseOffset seals two of four epochs at base
// offset 0 and points a machine with base offset 3 at the log. The layouts
// differ, so the record is foreign: the run must start fresh, not restore
// words into the wrong addresses. epochProgram, which leaves a mark in each
// part of an epoch plan, runs on the interpreter; jacobi1d's Original, whose
// interior boundaries verify, runs on both backends and must end as an
// uninterrupted run at offset 3 does.
func TestDurableRefusesForeignBaseOffset(t *testing.T) {
	prog, err := lang.Parse(epochProgram)
	if err != nil {
		t.Fatal(err)
	}
	epoch := durableCase{name: "epoch", prog: prog, params: map[string]int64{"n": 12}, init: func(bench.DataHost) {}}
	r := refuseForeign(t, epoch, "interp")
	for i := int64(0); i < 12; i++ {
		if got, _ := r.float("A", i); got != float64(3*i+1) {
			t.Fatalf("A[%d] = %v, want %v", i, got, 3*i+1)
		}
	}
	for name, want := range map[string]float64{"first": 123, "last": 456} {
		if got, _ := r.float(name); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	c := kernelCase(t, "jacobi1d", bench.Original)
	for _, backend := range c.backends() {
		r := refuseForeign(t, c, backend)
		ref := c.build(t, backend, 3, 4)()
		ref.runAllEpochs(t)
		sameState(t, c.name+"/"+backend, r, ref)
	}
}

// refuseForeign seals two of four epochs of c at base offset 0, supervises a
// run at base offset 3 on the same log, and requires it to refuse the
// records, start fresh and end verified.
func refuseForeign(t *testing.T, c durableCase, backend string) *durableRun {
	t.Helper()
	label := c.name + "/" + backend
	path := filepath.Join(t.TempDir(), "offset.wal")
	sealFirst(t, c.build(t, backend, 0, 4), path, 2)
	r := c.build(t, backend, 3, 4)()
	out, err := r.supervise(context.Background(), recovery.DefaultPolicy(), path)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if out.Resumed || out.CorruptRecords == 0 {
		t.Fatalf("%s: outcome %+v, want the offset-0 records refused and a fresh run", label, out)
	}
	if err := r.pair().Verify(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return r
}
