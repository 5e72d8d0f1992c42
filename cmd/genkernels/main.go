// Command genkernels renders every Table 2 benchmark variant through the
// native source backend and commits the result as the internal/codegen/
// gennative package. The registry records each function's benchmark and
// variant only: an epoch plan finds the kernel loop it cuts in the program
// itself (lang.KernelLoop), as the function's own epoch split does. An
// instrumented variant renders as an entry function plus one helper
// function per loop nest, small enough for Go to inline the fold, load and
// store calls in it (codegen.SourceFile); only the entry function is
// registered.
//
// Default mode rewrites the generated files in place. With -check it
// regenerates everything in memory and exits non-zero if any committed file
// has drifted from the generator output — CI runs this to guarantee the
// checked-in native kernels always match the current instrumentation and
// lowering rules.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"defuse/internal/bench"
	"defuse/internal/codegen"
)

// variantOrder fixes the registry order: bench-major, variant-minor.
var variantOrder = []struct {
	v      bench.Variant
	suffix string
}{
	{bench.Original, "original"},
	{bench.Resilient, "resilient"},
	{bench.ResilientOpt, "resilientopt"},
}

func main() {
	out := flag.String("out", "internal/codegen/gennative",
		"output directory for the generated package")
	check := flag.Bool("check", false,
		"verify committed files match the generator output; exit non-zero on drift")
	flag.Parse()

	files, err := render(*out)
	if err != nil {
		fatal(err)
	}
	if *check {
		drift := 0
		for _, path := range sortedPaths(files) {
			have, err := os.ReadFile(path)
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "genkernels: %s: missing (%v)\n", path, err)
				drift++
			case !bytes.Equal(have, files[path]):
				fmt.Fprintf(os.Stderr, "genkernels: %s: drifted from generator output\n", path)
				drift++
			}
		}
		if drift > 0 {
			fmt.Fprintf(os.Stderr, "genkernels: %d file(s) stale; run: go run ./cmd/genkernels\n", drift)
			os.Exit(1)
		}
		fmt.Printf("genkernels: %d generated files up to date\n", len(files))
		return
	}
	for _, path := range sortedPaths(files) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, files[path], 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("genkernels: wrote %s (%d bytes)\n", path, len(files[path]))
	}
}

// render produces the full generated file set: one Go file per benchmark
// holding its three variants, and the registry.
func render(out string) (map[string][]byte, error) {
	files := map[string][]byte{}
	var reg bytes.Buffer
	reg.WriteString("// Code generated by cmd/genkernels. DO NOT EDIT.\n\n")
	reg.WriteString("package gennative\n\n")
	reg.WriteString("// kernels lists every generated benchmark variant, bench-major.\n")
	reg.WriteString("var kernels = []Kernel{\n")

	for _, b := range bench.Suite() {
		base := strings.ToLower(b.Name)
		var funcs []codegen.SourceFunc
		for _, vo := range variantOrder {
			prog, err := b.BuildVariant(vo.v)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("run_%s_%s", base, vo.suffix)
			funcs = append(funcs, codegen.SourceFunc{
				FuncName: name,
				Comment: fmt.Sprintf("%s executes the %s variant of the %s benchmark natively.",
					name, vo.v, b.Name),
				Prog: prog,
			})
			fmt.Fprintf(&reg, "\t{Bench: %q, Variant: %q, Fn: %s},\n", b.Name, string(vo.v), name)
		}
		src, err := codegen.SourceFile("gennative", funcs)
		if err != nil {
			return nil, fmt.Errorf("genkernels: %s: %w", b.Name, err)
		}
		files[filepath.Join(out, base+".go")] = src
	}

	reg.WriteString("}\n")
	regSrc, err := format.Source(reg.Bytes())
	if err != nil {
		return nil, fmt.Errorf("genkernels: formatting registry: %w", err)
	}
	files[filepath.Join(out, "registry.go")] = regSrc
	return files, nil
}

func sortedPaths(files map[string][]byte) []string {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genkernels:", err)
	os.Exit(1)
}
