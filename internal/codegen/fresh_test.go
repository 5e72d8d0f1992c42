package codegen_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/codegen"
)

// TestGennativeFresh regenerates every committed kernel file in memory and
// compares it byte-for-byte with the gennative package on disk — the in-test
// form of `go run ./cmd/genkernels -check` (which additionally covers the
// registry).
func TestGennativeFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating all variants is slow; covered by cmd/genkernels -check in CI")
	}
	for _, b := range bench.Suite() {
		base := strings.ToLower(b.Name)
		t.Run(base, func(t *testing.T) {
			funcs := kernelFuncs(t, b)
			got, err := codegen.SourceFile("gennative", funcs)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("gennative", base+".go")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s is stale; run: go run ./cmd/genkernels\nfirst divergence:\n%s",
					path, firstDiff(got, want))
			}
		})
	}
}

// kernelFuncs lists a benchmark's three variants as cmd/genkernels renders
// them into one gennative file.
func kernelFuncs(t *testing.T, b *bench.Benchmark) []codegen.SourceFunc {
	t.Helper()
	base := strings.ToLower(b.Name)
	var funcs []codegen.SourceFunc
	for _, vo := range []struct {
		v      bench.Variant
		suffix string
	}{
		{bench.Original, "original"},
		{bench.Resilient, "resilient"},
		{bench.ResilientOpt, "resilientopt"},
	} {
		prog, err := b.BuildVariant(vo.v)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("run_%s_%s", base, vo.suffix)
		funcs = append(funcs, codegen.SourceFunc{
			FuncName: name,
			Comment: fmt.Sprintf("%s executes the %s variant of the %s benchmark natively.",
				name, vo.v, b.Name),
			Prog: prog,
		})
	}
	return funcs
}

// firstDiff renders the first diverging line pair of two texts.
func firstDiff(got, want []byte) string {
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(gl), len(wl))
}
