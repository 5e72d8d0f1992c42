// Package gennative holds the committed output of the source backend: every
// Table 2 benchmark, in all three variants, rendered by cmd/genkernels into
// Go functions over the codegen runtime and built with the module. This is
// the "per-kernel binary" form of the native backend — the Go compiler, not
// the interpreter or a closure tree, executes the kernel — and the form
// cmd/overhead's -backend native measures. Every memory access goes through
// the codegen.Machine; every checksum fold goes into the function's local
// checksum.Folds delta file, which is flushed into the Machine's Pair before
// each assert_checksums and on return.
//
// Regenerate with: go run ./cmd/genkernels
// Verify freshness: go run ./cmd/genkernels -check (CI gates on this).
package gennative

import "defuse/internal/codegen"

// Kernel is one generated benchmark variant.
type Kernel struct {
	// Bench is the bench.Benchmark name (e.g. "ADI").
	Bench string
	// Variant is the bench.Variant string (e.g. "Resilient").
	Variant string
	// Anchored reports whether the program has a top-level for loop to
	// partition into epochs.
	Anchored bool
	// Fn is the generated native entry point.
	Fn codegen.Fn
}

// Kernels returns every generated kernel (bench-major, variant-minor order).
func Kernels() []Kernel { return kernels }

// Lookup finds a kernel by benchmark name and variant.
func Lookup(bench, variant string) (Kernel, bool) {
	for _, k := range kernels {
		if k.Bench == bench && k.Variant == variant {
			return k, true
		}
	}
	return Kernel{}, false
}
