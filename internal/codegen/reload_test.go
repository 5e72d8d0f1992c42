package codegen_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/checksum"
	"defuse/internal/codegen"
	"defuse/internal/codegen/gennative"
	"defuse/internal/instrument"
	"defuse/internal/interp"
	"defuse/internal/lang"
	"defuse/internal/memsim"
)

// The reload-window sweep holds the backends to the paper's def→use contract
// exactly. A cell's value is sealed at its def (its store, or the prologue
// fold that folds a live-in value) and must be checked at every later program
// read. So a bit flip that lands after a def and before a later program read
// of the same cell must be detected, or must leave the output as it was. A
// fold that reads the cell from memory again, instead of taking the value
// the statement loads or stores, opens a window in which such a flip
// escapes: the checksum and the program see different values (Section 5).

// sweepBit is the bit flipped: an exponent-adjacent mantissa bit, so every
// flip changes a float value by a large relative amount.
const sweepBit = 40

// sweepCase is one instrumented program the sweep covers.
type sweepCase struct {
	name    string
	prog    *lang.Program // instrumented
	fn      codegen.Fn    // prog's committed generated form, or nil
	params  map[string]int64
	init    func(host)
	tracked []string // float arrays whose plan is not control
	outputs []string // every float variable of the original program
}

// newSweepCase instruments src with opt and names its tracked float arrays.
func newSweepCase(t *testing.T, name string, src *lang.Program, opt instrument.Options,
	params map[string]int64, init func(host)) sweepCase {
	t.Helper()
	res, err := instrument.Instrument(src, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	c := sweepCase{name: name, prog: res.Prog, params: params, init: init}
	for _, d := range src.Decls {
		if d.Type != lang.TypeFloat {
			continue
		}
		c.outputs = append(c.outputs, d.Name)
		if d.IsArray() && res.Report.Plans[d.Name] != instrument.PlanControl {
			c.tracked = append(c.tracked, d.Name)
		}
	}
	return c
}

// sweepCases returns trisolv at n = 4, moldyn (dynamic counters, indirect
// subscripts) at n = 4, k = 2 and CG (counters kept in registers across its
// inner loops) at n = 4, k = 2, each over two iterations, with their
// generated kernels, three generated programs (one with indirect
// subscripts), and the while seeds at every trip count, each as Resilient
// and Resilient-Optimized.
func sweepCases(t *testing.T) []sweepCase {
	variants := []struct {
		v   bench.Variant
		opt instrument.Options
	}{{bench.Resilient, instrument.Options{}}, {bench.ResilientOpt, instrument.Options{Split: true, Inspector: true}}}
	kernels := map[string]map[string]int64{
		"trisolv": {"n": 4},
		"moldyn":  {"n": 4, "k": 2, "maxiter": 2},
		"CG":      {"n": 4, "k": 2, "maxiter": 2},
	}
	var cases []sweepCase
	for _, b := range bench.Suite() {
		params := kernels[b.Name]
		if params == nil {
			continue
		}
		init := func(h host) { b.Init(h, params, rand.New(rand.NewSource(1))) }
		for _, v := range variants {
			c := newSweepCase(t, b.Name+"/"+string(v.v), b.Program(), v.opt, params, init)
			gen, ok := gennative.Lookup(b.Name, string(v.v))
			if !ok {
				t.Fatalf("%s: no generated kernel", c.name)
			}
			c.fn = gen.Fn
			cases = append(cases, c)
		}
	}
	for _, g := range []struct {
		seed     int64
		indirect bool
	}{{20000, false}, {20003, false}, {20002, true}} {
		gp, prog, err := generate(g.seed, g.indirect, false)
		if err != nil {
			t.Fatal(err)
		}
		seed := g.seed
		init := func(h host) { setupHost(t, h, gp, seed) }
		for _, v := range variants {
			cases = append(cases, newSweepCase(t, fmt.Sprintf("progen%d/%s", g.seed, v.v), prog, v.opt, gp.Params, init))
		}
	}
	for _, g := range whileSeeds {
		gp, prog, err := generate(g.seed, g.indirect, true)
		if err != nil {
			t.Fatal(err)
		}
		seed := g.seed
		init := func(h host) { setupHost(t, h, gp, seed) }
		for _, trips := range whileTrips {
			for _, v := range variants {
				name := fmt.Sprintf("while%d/w=%d/%s", g.seed, trips, v.v)
				cases = append(cases, newSweepCase(t, name, prog, v.opt, whileParams(gp, trips), init))
			}
		}
	}
	return cases
}

// sweepRun is one backend's freshly initialized machine for a case.
type sweepRun struct {
	mem      *memsim.Memory
	run      func() error
	snapshot func(name string) ([]float64, error)
	region   func(name string) (base, size int, err error)
	csLoads  func() uint64 // checksum loads so far (interp only)
}

// sweepBackend builds a case's machine on one backend.
type sweepBackend struct {
	name  string
	build func(t *testing.T, c sweepCase) sweepRun
}

// interpBackend builds a case's machine on interp.
var interpBackend = sweepBackend{"interp", func(t *testing.T, c sweepCase) sweepRun {
	m, err := interp.New(c.prog, c.params)
	if err != nil {
		t.Fatal(err)
	}
	c.init(m)
	return sweepRun{mem: m.Mem(), run: m.Run, snapshot: m.SnapshotFloats, region: m.Region,
		csLoads: func() uint64 { return m.Counts.CsLoads }}
}}

// gennativeBackend builds a case's machine for its generated kernel.
var gennativeBackend = sweepBackend{"gennative", func(t *testing.T, c sweepCase) sweepRun {
	m, err := codegen.MachineFor(c.prog, c.params)
	if err != nil {
		t.Fatal(err)
	}
	c.init(m)
	return sweepRun{mem: m.Mem(), run: func() error { return c.fn(m, 0, 1) }, snapshot: m.SnapshotFloats, region: m.Region}
}}

// sweepBackends lists the backends a case runs on: interp, and the
// generated kernel if the case has one. A program with no committed
// generated form has no native form in this process, so it sweeps on interp
// alone.
func sweepBackends(c sweepCase) []sweepBackend {
	if c.fn == nil {
		return []sweepBackend{interpBackend}
	}
	return []sweepBackend{interpBackend, gennativeBackend}
}

// access is one memory access of a clean run, in program order.
type access struct {
	addr  int
	store bool
	cs    bool // a load an add_to_chksm performs, not the program
}

// cleanTrace records every memory access of a fault-free interp run and
// marks the loads that checksum folds perform: interp counts a load as
// program or checksum work right after it returns, so the CsLoads counter
// seen by the next access tells which one it was.
func cleanTrace(t *testing.T, c sweepCase) []access {
	r := interpBackend.build(t, c)
	var tr []access
	var cs []uint64
	r.mem.SetAccessHook(func(store bool, eff int) {
		tr = append(tr, access{addr: eff, store: store})
		cs = append(cs, r.csLoads())
	})
	if err := r.run(); err != nil {
		t.Fatalf("%s: clean run: %v", c.name, err)
	}
	cs = append(cs, r.csLoads())
	for k := range tr {
		tr[k].cs = !tr[k].store && cs[k+1] > cs[k]
	}
	return tr
}

// window is the stretch of steps between two consecutive accesses of one
// cell. A flip at any step in it strikes the value the closing access sees
// and nothing before, so every step of the window runs alike: one trial,
// flipping just before the closing access, stands for all of them.
type window struct {
	cell  int
	prev  int // the cell's previous access
	at    int // the access that closes the window, a load
	label string
}

// contractWindows lists every window of every tracked cell that lies inside
// the def→use contract: it opens after one of the cell's def steps and ends
// at a load, and the cell's next program access from there on is a read,
// not a store. A cell's def steps are its stores and the checksum reads that
// precede its first program access (the prologue's live-in folds).
func contractWindows(t *testing.T, c sweepCase, r sweepRun, tr []access) []window {
	labels := map[int]string{}
	var cells []int
	for _, name := range c.tracked {
		base, size, err := r.region(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < size; i++ {
			labels[base+i] = fmt.Sprintf("%s[%d]", name, i)
			cells = append(cells, base+i)
		}
	}
	accesses := map[int][]int{} // cell → its accesses, in order
	for k, a := range tr {
		if _, ok := labels[a.addr]; ok {
			accesses[a.addr] = append(accesses[a.addr], k)
		}
	}
	// readNext reports whether the first program access in ks is a read.
	readNext := func(ks []int) bool {
		for _, k := range ks {
			if !tr[k].cs {
				return !tr[k].store
			}
		}
		return false
	}
	var ws []window
	for _, cell := range cells {
		ks := accesses[cell]
		defined, touched := false, false
		for j, k := range ks {
			a := tr[k]
			if defined && !a.store && readNext(ks[j:]) {
				ws = append(ws, window{cell: cell, prev: ks[j-1], at: k, label: labels[cell]})
			}
			switch {
			case a.store:
				defined, touched = true, true
			case a.cs:
				defined = defined || !touched
			default:
				touched = true
			}
		}
	}
	return ws
}

// flipBefore arms r to flip bit sweepBit of cell just before access k, a
// load of that cell: the load returns the flipped value and memory keeps it.
func flipBefore(r sweepRun, k, cell int) {
	n := 0
	r.mem.SetAccessHook(func(bool, int) { n++ })
	r.mem.SetLoadHook(func(eff int, raw uint64) uint64 {
		if n-1 == k && eff == cell {
			r.mem.FlipBit(cell, sweepBit)
			raw ^= 1 << sweepBit
		}
		return raw
	})
}

// TestReloadWindowSweep flips every tracked float cell at every step of a
// clean run, on interp and on the generated kernels, and fails on any flip
// after the cell's def and before a later program read of it that goes
// undetected and changes the output.
func TestReloadWindowSweep(t *testing.T) {
	for _, c := range sweepCases(t) {
		tr := cleanTrace(t, c)
		for _, be := range sweepBackends(c) {
			t.Run(c.name+"/"+be.name, func(t *testing.T) { sweep(t, c, tr, be) })
		}
	}
}

// sweep runs case c on backend be clean, checking that it makes interp's
// accesses tr, then flips the cell of every def→use window in turn. It fails
// on a flip that goes undetected and changes the output, and returns the
// windows swept and the flips detected.
func sweep(t *testing.T, c sweepCase, tr []access, be sweepBackend) (swept, detected int) {
	t.Helper()
	clean := be.build(t, c)
	var seq []access
	clean.mem.SetAccessHook(func(store bool, eff int) {
		seq = append(seq, access{addr: eff, store: store})
	})
	if err := clean.run(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if len(seq) != len(tr) {
		t.Fatalf("clean run made %d accesses, interp %d", len(seq), len(tr))
	}
	for k := range seq {
		if seq[k].addr != tr[k].addr || seq[k].store != tr[k].store {
			t.Fatalf("access %d differs from interp's", k)
		}
	}
	want := map[string][]float64{}
	for _, name := range c.outputs {
		want[name], _ = clean.snapshot(name)
	}

	ws := contractWindows(t, c, clean, tr)
	if len(ws) == 0 {
		t.Fatal("no def→use window to sweep")
	}
	var escapes []string
	steps := 0
	for _, w := range ws {
		r := be.build(t, c)
		flipBefore(r, w.at, w.cell)
		err := r.run()
		var mm *checksum.MismatchError
		if errors.As(err, &mm) {
			detected++
			continue
		}
		if err != nil {
			t.Fatalf("flip of %s before access %d: %v", w.label, w.at, err)
		}
		if !changed(r, c.outputs, want) {
			continue
		}
		steps += w.at - w.prev
		escapes = append(escapes, fmt.Sprintf("%s: after the %s at access %d, before the %s at %d",
			w.label, kind(tr[w.prev]), w.prev, kind(tr[w.at]), w.at))
	}
	t.Logf("%d def→use windows swept, %d escaped", len(ws), len(escapes))
	if len(escapes) > 0 {
		t.Errorf("%d of %d def→use windows (%d flip steps) let a flip change the output undetected:",
			len(escapes), len(ws), steps)
		for i, e := range escapes {
			if i == 5 {
				t.Errorf("  ... and %d more", len(escapes)-i)
				break
			}
			t.Errorf("  %s", e)
		}
	}
	return len(ws), detected
}

// aliasSrc reads the cell it writes twice, once through a subscript array.
// With j[i] == i both reads hit x[i], so the statement's kill fold must count
// the increment the x[j[i]] read stores into the counter of x[i].
const aliasSrc = `
program alias(n)
float x[n];
int j[n];
for i = 0 to n - 1 {
  S1: x[i] = x[i] + x[j[i]];
}
`

// TestAliasedCounterSameCell runs x[i] = x[i] + x[j[i]] with j[i] == i, as
// Resilient and Resilient-Optimized, on interp: the clean
// run must verify and double every cell, and flips in its def→use windows
// must be detected.
func TestAliasedCounterSameCell(t *testing.T) {
	prog, err := lang.Parse(aliasSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	params := map[string]int64{"n": n}
	init := func(h host) {
		if err := h.FillFloat("x", func(i int64) float64 { return float64(i) + 0.5 }); err != nil {
			t.Fatal(err)
		}
		if err := h.FillInt("j", func(i int64) int64 { return i }); err != nil {
			t.Fatal(err)
		}
	}
	for _, opt := range []instrument.Options{{}, {Split: true, Inspector: true}} {
		c := newSweepCase(t, fmt.Sprintf("alias split=%v", opt.Split), prog, opt, params, init)
		if len(c.tracked) != 1 {
			t.Fatalf("%s: tracked arrays %v, want [x]", c.name, c.tracked)
		}
		tr := cleanTrace(t, c)
		for _, be := range sweepBackends(c) {
			t.Run(c.name+"/"+be.name, func(t *testing.T) {
				r := be.build(t, c)
				if err := r.run(); err != nil {
					t.Fatalf("clean run: %v", err)
				}
				got, err := r.snapshot("x")
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range got {
					if want := 2 * (float64(i) + 0.5); v != want {
						t.Fatalf("x[%d] = %v, want %v", i, v, want)
					}
				}
				if _, detected := sweep(t, c, tr, be); detected == 0 {
					t.Error("no flip detected")
				}
			})
		}
	}
}

// deltaAliasSrc increments two counter cells of x in its inner loop: x[i],
// whose subscript the loop does not change, and x[j[i][kk]]. With
// j[i][kk] == i both are the same cell, so the increments the instrumenter
// sums in a register for x[i] (delta promotion) and the ones it stores
// through x[j_r] must add up in the cell that S2's kill fold reads.
const deltaAliasSrc = `
program deltaalias(n, k)
float x[n], y[n];
int j[n][k];
for i = 0 to n - 1 {
  for kk = 0 to k - 1 {
    S1: y[i] = y[i] + x[i] * x[j[i][kk]];
  }
}
for i2 = 0 to n - 1 {
  S2: x[i2] = x[i2] + y[i2];
}
`

// runOriginal runs src uninstrumented on interp and returns its float
// variables.
func runOriginal(t *testing.T, src *lang.Program, params map[string]int64, init func(host), outputs []string) map[string][]float64 {
	t.Helper()
	m, err := interp.New(src, params)
	if err != nil {
		t.Fatal(err)
	}
	init(m)
	if err := m.Run(); err != nil {
		t.Fatalf("original: %v", err)
	}
	want := map[string][]float64{}
	for _, name := range outputs {
		want[name], _ = m.SnapshotFloats(name)
	}
	return want
}

// TestPromotedCounterDeltaAlias runs deltaAliasSrc with j[i][kk] == i as
// Resilient and Resilient-Optimized, on interp: the inner
// loop's x[i] counter must be delta-promoted, the clean run must verify and
// match the original program, and flips in its def→use windows must be
// detected.
func TestPromotedCounterDeltaAlias(t *testing.T) {
	prog, err := lang.Parse(deltaAliasSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n, k = 5, 3
	params := map[string]int64{"n": n, "k": k}
	init := func(h host) {
		if err := h.FillFloat("x", func(i int64) float64 { return float64(i) + 0.5 }); err != nil {
			t.Fatal(err)
		}
		if err := h.FillInt("j", func(flat int64) int64 { return flat / k }); err != nil {
			t.Fatal(err)
		}
	}
	for _, opt := range []instrument.Options{{}, {Split: true, Inspector: true}} {
		res, err := instrument.Instrument(prog, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.PromotedDelta == 0 {
			t.Fatalf("split=%v: no counter cell delta-promoted:\n%s", opt.Split, lang.Print(res.Prog))
		}
		c := newSweepCase(t, fmt.Sprintf("deltaalias split=%v", opt.Split), prog, opt, params, init)
		want := runOriginal(t, prog, params, init, c.outputs)
		tr := cleanTrace(t, c)
		for _, be := range sweepBackends(c) {
			t.Run(c.name+"/"+be.name, func(t *testing.T) {
				r := be.build(t, c)
				if err := r.run(); err != nil {
					t.Fatalf("clean run: %v", err)
				}
				if changed(r, c.outputs, want) {
					t.Fatal("clean run differs from the original program")
				}
				if _, detected := sweep(t, c, tr, be); detected == 0 {
					t.Error("no flip detected")
				}
			})
		}
	}
}

// zeroTripSrc reads x[i + 1] and writes w[i + 1] in an inner loop that is
// empty exactly when i + 1 == n, the one iteration where both subscripts are
// out of range. The indirect reads give x and w dynamic plans, so the inner
// loop keeps x's counter cell in a register as a delta and w's in full.
const zeroTripSrc = `
program zerotrip(n)
float x[n], w[n], y[n];
int j[n];
for i = 0 to n - 1 {
  for kk = i + 1 to n - 1 {
    S1: w[i + 1] = w[i + 1] + x[i + 1] * x[j[kk]];
  }
}
for m = 0 to n - 1 {
  S2: y[m] = w[j[m]];
}
`

// TestPromotedCounterZeroTrip runs zeroTripSrc as Resilient and
// Resilient-Optimized on interp: both promotion forms must
// apply, and the promoted counter cells, out of range when the inner loop is
// empty, must not be touched then, so every run verifies and matches the
// original program.
func TestPromotedCounterZeroTrip(t *testing.T) {
	prog, err := lang.Parse(zeroTripSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	params := map[string]int64{"n": n}
	init := func(h host) {
		if err := h.FillFloat("x", func(i int64) float64 { return float64(i) + 0.25 }); err != nil {
			t.Fatal(err)
		}
		if err := h.FillFloat("w", func(i int64) float64 { return 1 - float64(i)/8 }); err != nil {
			t.Fatal(err)
		}
		if err := h.FillInt("j", func(i int64) int64 { return (i * 5) % n }); err != nil {
			t.Fatal(err)
		}
	}
	for _, opt := range []instrument.Options{{}, {Split: true, Inspector: true}} {
		res, err := instrument.Instrument(prog, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.PromotedFull == 0 || res.Report.PromotedDelta == 0 {
			t.Fatalf("split=%v: promoted %d full, %d delta, want both:\n%s",
				opt.Split, res.Report.PromotedFull, res.Report.PromotedDelta, lang.Print(res.Prog))
		}
		c := newSweepCase(t, fmt.Sprintf("zerotrip split=%v", opt.Split), prog, opt, params, init)
		want := runOriginal(t, prog, params, init, c.outputs)
		for _, be := range sweepBackends(c) {
			r := be.build(t, c)
			if err := r.run(); err != nil {
				t.Fatalf("%s/%s: %v", c.name, be.name, err)
			}
			if changed(r, c.outputs, want) {
				t.Fatalf("%s/%s: output differs from the original program", c.name, be.name)
			}
		}
	}
}

// kind names an access for an escape report.
func kind(a access) string {
	switch {
	case a.store:
		return "store"
	case a.cs:
		return "checksum read"
	}
	return "program read"
}

// changed reports whether any output float differs, bit for bit, from want.
func changed(r sweepRun, outputs []string, want map[string][]float64) bool {
	for _, name := range outputs {
		got, _ := r.snapshot(name)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[name][i]) {
				return true
			}
		}
	}
	return false
}
