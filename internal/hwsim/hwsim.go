// Package hwsim models the hardware checksum functional unit of Section
// 6.2.2: checksum computations move into dedicated units fed by the values
// already flowing through the pipeline, so each software add_to_chksm
// becomes a wide checksum instruction that is fetched and decoded but uses
// no functional-unit resources (the paper evaluates this by replacing the
// checksum code with nop instructions in the optimized assembly).
//
// The model prices dynamic operations from interp.OpCounts:
//
//   - program operations (loads, stores, arithmetic, compares, branches) keep
//     full cost — this includes use-count maintenance, which the paper
//     retains in software;
//   - checksum count-expression arithmetic (CsArith) keeps full cost for the
//     same reason;
//   - the loads that add_to_chksm performs itself (CsLoads: the prologue,
//     the epilogue and dynamic counters) disappear: the hardware taps the
//     operands of adjacent instructions;
//   - each checksum operation (CsOps) costs NopCost of a regular operation
//     (fetch/decode only).
package hwsim

import (
	"defuse/internal/interp"
	"defuse/telemetry"
)

// Config parameterizes the cost model. Weights approximate a cached
// superscalar core: memory operations dominate kernel runtime (several
// cycles of average latency even when cache-resident), while the integer
// compares and adds the instrumentation introduces are cheap and largely
// hidden by instruction-level parallelism.
type Config struct {
	// MemWeight prices program loads and stores (and the extra loads
	// software checksumming performs).
	MemWeight float64
	// ArithWeight prices arithmetic, comparisons, and branch evaluations.
	ArithWeight float64
	// CsOpWeight prices one software checksum operation (a scale plus a
	// modular add).
	CsOpWeight float64
	// CsLoadWeight prices the loads add_to_chksm performs itself. Every
	// backend folds the register a statement loaded or stored (Section 5),
	// so these are only the prologue's live-in folds, the epilogue's folds,
	// a dynamic plan's fold of the value an "=" overwrites, and the shadow
	// counters its count expressions read. The default of 0 leaves them out
	// of the model: on moldyn, whose arrays are all dynamic, they number
	// 0.56 of its program loads, so its modeled overhead is low by that.
	CsLoadWeight float64
	// NopCost is the fraction of ArithWeight charged per checksum
	// instruction under hardware support (fetch/decode only, the paper's
	// nop-insertion methodology).
	NopCost float64
}

// DefaultConfig returns the configuration used for the Figure 10/11
// reproduction.
func DefaultConfig() Config {
	return Config{MemWeight: 4, ArithWeight: 1, CsOpWeight: 2, NopCost: 0.25}
}

// SoftwareCost prices a run with software checksum computation.
func SoftwareCost(c interp.OpCounts) float64 { return SoftwareCostWith(c, DefaultConfig()) }

// SoftwareCostWith prices a run with software checksum computation under an
// explicit configuration.
func SoftwareCostWith(c interp.OpCounts, cfg Config) float64 {
	return cfg.MemWeight*float64(c.Loads+c.Stores) +
		cfg.CsLoadWeight*float64(c.CsLoads) +
		cfg.ArithWeight*float64(c.Arith+c.Compare+c.Branches+c.CsArith) +
		cfg.CsOpWeight*float64(c.CsOps)
}

// HardwareCost prices the same run under the hardware checksum-unit model of
// Section 6.2.2: checksum loads disappear (the unit taps in-flight values),
// each checksum op costs a fetch/decode slot, and use-count maintenance
// (ordinary program operations plus CsArith) stays in software.
func HardwareCost(c interp.OpCounts, cfg Config) float64 {
	return cfg.MemWeight*float64(c.Loads+c.Stores) +
		cfg.ArithWeight*float64(c.Arith+c.Compare+c.Branches+c.CsArith) +
		cfg.NopCost*cfg.ArithWeight*float64(c.CsOps)
}

// Overhead returns the estimated normalized runtime of an instrumented run
// relative to the original run under the given pricing function.
func Overhead(original interp.OpCounts, instrumented float64) float64 {
	base := SoftwareCost(original) // original has no checksum ops
	if base == 0 {
		return 1
	}
	return instrumented / base
}

// RecordMetrics publishes the modeled software and hardware-assisted cost of
// a run into reg as gauges labeled by run name (nil-registry safe).
func RecordMetrics(reg *telemetry.Registry, run string, c interp.OpCounts, cfg Config) {
	reg.Gauge("defuse_cost_model",
		telemetry.Label{Key: "run", Value: run},
		telemetry.Label{Key: "model", Value: "software"}).Set(SoftwareCostWith(c, cfg))
	reg.Gauge("defuse_cost_model",
		telemetry.Label{Key: "run", Value: run},
		telemetry.Label{Key: "model", Value: "hardware"}).Set(HardwareCost(c, cfg))
}
