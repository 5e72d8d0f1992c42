package bench

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"defuse/internal/deps"
	"defuse/internal/instrument"
	"defuse/internal/lang"
	"defuse/internal/pdg"
	"defuse/internal/usecount"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/analysis.digest from the current analysis")

const digestFile = "testdata/analysis.digest"

// analysisText renders everything the compile-time analysis decides for one
// kernel variant: the flow dependences with their exactness, the use-count
// results, and the instrumentation report's plans and counts. shape is the
// readable summary of what the instrumenter emitted: its checksum
// statements, the guards left in the code, the extra loops index-set
// splitting added and the use-counter cells kept in registers (full/delta).
func analysisText(t *testing.T, b *Benchmark, v Variant) (text, shape string) {
	t.Helper()
	var sb strings.Builder

	model, err := pdg.Extract(instrument.CloneProgram(b.Program()))
	if err != nil {
		t.Fatalf("%s: pdg: %v", b.Name, err)
	}
	flow := deps.Analyze(model)
	fmt.Fprintf(&sb, "flow exact=%v\n", flow.Exact)
	for _, d := range flow.Deps {
		fmt.Fprintf(&sb, "dep %s exact=%v\n", d, d.Exact)
	}

	uc := usecount.Analyze(flow)
	names := make([]string, 0, len(uc.Classes))
	for n := range uc.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := uc.Classes[n]
		fmt.Fprintf(&sb, "class %s analyzable=%v reason=%q\n", n, c.Analyzable, c.Reason)
	}
	for _, s := range model.Stmts {
		dc := uc.Defs[s]
		if dc == nil {
			continue
		}
		for _, c := range dc.Contribs {
			fmt.Fprintf(&sb, "def %s via %s: %s\n", s.ID, c.Dep, c.Count)
		}
	}
	arrays := make([]string, 0, len(uc.LiveIns))
	for a := range uc.LiveIns {
		arrays = append(arrays, a)
	}
	sort.Strings(arrays)
	for _, a := range arrays {
		for _, li := range uc.LiveIns[a] {
			fmt.Fprintf(&sb, "livein %s %s read #%d cells %v: %s\n", a, li.Stmt.ID, li.ReadIdx, li.CellVars, li.Count)
		}
	}

	res, err := instrument.Instrument(b.Program(), variantOptions(v))
	if err != nil {
		t.Fatalf("%s/%s: instrument: %v", b.Name, v, err)
	}
	rep := res.Report
	plans := make([]string, 0, len(rep.Plans))
	for n, p := range rep.Plans {
		plans = append(plans, n+"="+string(p))
	}
	sort.Strings(plans)
	fmt.Fprintf(&sb, "plans %s\n", strings.Join(plans, " "))
	fmt.Fprintf(&sb, "checksum_stmts=%d split_segments=%d inspectors_hoisted=%d\n",
		rep.ChecksumStmts, rep.SplitSegments, rep.InspectorsHoisted)
	guards := 0
	lang.WalkStmts(res.Prog.Body, func(s lang.Stmt) bool {
		if _, ok := s.(*lang.If); ok {
			guards++
		}
		return true
	})
	shape = fmt.Sprintf("checksum_stmts=%d guards=%d split_segments=%d promoted=%d/%d",
		rep.ChecksumStmts, guards, rep.SplitSegments, rep.PromotedFull, rep.PromotedDelta)
	return sb.String(), shape
}

// TestAnalysisDigest pins the compile-time analysis of every Table 2 kernel
// for both instrumented variants. The genkernels drift gate pins generated
// text; this pins what produced it, including exactness flags and plans, so a
// change to the polyhedral core that alters any decision fails here. Each
// line also spells out the emitted checksum statements, residual guards,
// split segments and promoted counter cells, so a re-pin shows how they moved
// per kernel.
// Regenerate with `go test ./internal/bench -run TestAnalysisDigest -update`
// only when a decision is meant to change.
func TestAnalysisDigest(t *testing.T) {
	var got []string
	for _, b := range Suite() {
		for _, v := range []Variant{Resilient, ResilientOpt} {
			text, shape := analysisText(t, b, v)
			sum := sha256.Sum256([]byte(text))
			got = append(got, fmt.Sprintf("%s %s %s %x", b.Name, v, shape, sum))
		}
	}
	if *updateDigest {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
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
		t.Fatalf("digest has %d entries, analysis produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("analysis changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
