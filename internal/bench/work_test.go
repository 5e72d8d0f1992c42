package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

const workFile = "testdata/checked_work.txt"

// workScales are the interpreter scales the checked work is pinned at: the
// smallest keeps boundary segments of split loops in play, the larger one
// runs every kernel's steady state.
var workScales = []float64{0.0002, 0.004}

// outputHash hashes a run's float arrays bit for bit, in array-name order.
func outputHash(out map[string][]float64) string {
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	var buf [8]byte
	for _, n := range names {
		fmt.Fprintf(h, "%s:%d;", n, len(out[n]))
		for _, v := range out[n] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestCheckedWork pins the checksum work and the outputs of every Table 2
// kernel's instrumented variants on the interpreter: program loads and
// stores, add_to_chksm executions, checksum loads and checksum arithmetic,
// and a hash of the float outputs. Control work (Arith, Compare, Branches,
// Stmts) is left free, so a change that only removes loops and guards that
// never run, or guard conjuncts their loop nest already decides, must leave
// every line here as it is. Regenerate with
// `go test ./internal/bench -run TestCheckedWork -update` only when the
// checked work is meant to change.
func TestCheckedWork(t *testing.T) {
	var got []string
	for _, b := range Suite() {
		for _, v := range []Variant{Resilient, ResilientOpt} {
			for _, scale := range workScales {
				r, err := b.Run(v, scale)
				if err != nil {
					t.Fatalf("%s/%s at %g: %v", b.Name, v, scale, err)
				}
				c := r.Counts
				got = append(got, fmt.Sprintf("%s %s %g loads=%d stores=%d cs_ops=%d cs_loads=%d cs_arith=%d out=%s",
					b.Name, v, scale, c.Loads, c.Stores, c.CsOps, c.CsLoads, c.CsArith, outputHash(r.Output)))
			}
		}
	}
	if *updateDigest {
		if err := os.WriteFile(workFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(workFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s has %d lines, the runs produced %d", workFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("checked work changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
