package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"defuse/internal/interp"
	"defuse/internal/recovery"
)

// This file measures the durability tax: what write-ahead checkpointing at
// every epoch boundary (memory snapshot, stable encode, CRC frame, fsync)
// costs on top of an epoch-supervised run of the same kernel. The Original
// variant is the measurement vehicle: its checksum pair is identically zero,
// so boundary verification is trivially quiescent at any epoch split. The
// instrumented variants are not epoch-balanced — their def/use contributions
// complete only at the program-end post-dominator — so supervising them at
// interior boundaries would report phantom detections, not overhead.

// DurableRow is one benchmark's durable-checkpoint overhead measurement.
type DurableRow struct {
	Bench string `json:"bench"`
	// Epochs is the plan's epoch count: the requested count, or 1 for a
	// program with no top-level for loop (CG, moldyn).
	Epochs int `json:"epochs"`
	// Seals counts checkpoint records fsynced during the durable run.
	Seals int `json:"seals"`
	// WALBytes is the checkpoint log's size after the run.
	WALBytes int64 `json:"wal_bytes"`
	// BaselineSeconds is the epoch-supervised run without durability;
	// DurableSeconds adds the WAL seal at every verified boundary.
	BaselineSeconds float64 `json:"baseline_seconds"`
	DurableSeconds  float64 `json:"durable_seconds"`
	// Overhead is DurableSeconds / BaselineSeconds.
	Overhead float64 `json:"overhead"`
}

// RunDurable measures one benchmark's durable-checkpoint overhead: an
// epoch-supervised baseline run and a WAL-checkpointing run of the same
// kernel at the same scale, with output equivalence checked between the two.
// The WAL is written to walDir/<bench>.wal and left in place for inspection.
func RunDurable(b *Benchmark, scale float64, epochs int, walDir string, tel Telemetry) (DurableRow, error) {
	if epochs < 1 {
		return DurableRow{}, fmt.Errorf("bench: RunDurable needs epochs >= 1, got %d", epochs)
	}
	plan := func() (*interp.Machine, *interp.EpochPlan, error) {
		prog := b.Program()
		params := b.Params(scale)
		m, err := interp.New(prog, params,
			interp.WithMetrics(tel.Metrics), interp.WithTracer(tel.Tracer))
		if err != nil {
			return nil, nil, err
		}
		b.InitDefault(m, params)
		p, err := m.PlanEpochs(epochs)
		return m, p, err
	}

	mBase, pBase, err := plan()
	if err != nil {
		return DurableRow{}, err
	}
	start := time.Now()
	outBase, err := pBase.Supervise(context.Background(), recovery.DefaultPolicy())
	if err != nil {
		return DurableRow{}, fmt.Errorf("bench: %s baseline: %w", b.Name, err)
	}
	baseline := time.Since(start)
	if outBase.Detected || outBase.Tainted {
		return DurableRow{}, fmt.Errorf("bench: %s baseline run reported a detection on fault-free input", b.Name)
	}

	walPath := filepath.Join(walDir, b.Name+".wal")
	mDur, pDur, err := plan()
	if err != nil {
		return DurableRow{}, err
	}
	start = time.Now()
	outDur, err := pDur.SuperviseDurable(context.Background(), recovery.DefaultPolicy(), walPath)
	if err != nil {
		return DurableRow{}, fmt.Errorf("bench: %s durable: %w", b.Name, err)
	}
	durable := time.Since(start)
	if outDur.Detected || outDur.Tainted || outDur.Resumed {
		return DurableRow{}, fmt.Errorf("bench: %s durable run not clean: %+v", b.Name, outDur)
	}

	for _, d := range b.Program().Decls {
		if !d.IsArray() {
			continue
		}
		want, err := mBase.SnapshotFloats(d.Name)
		if err != nil {
			continue // integer arrays: the float snapshot does not apply
		}
		got, gerr := mDur.SnapshotFloats(d.Name)
		if gerr != nil || len(got) != len(want) {
			return DurableRow{}, fmt.Errorf("bench: %s: array %s diverged under durable supervision", b.Name, d.Name)
		}
		for i := range want {
			if want[i] != got[i] && !(math.IsNaN(want[i]) && math.IsNaN(got[i])) {
				return DurableRow{}, fmt.Errorf("bench: %s: %s[%d] = %v durable, %v baseline",
					b.Name, d.Name, i, got[i], want[i])
			}
		}
	}

	var walBytes int64
	if st, err := os.Stat(walPath); err == nil {
		walBytes = st.Size()
	}
	return DurableRow{
		Bench:           b.Name,
		Epochs:          pDur.Epochs(),
		Seals:           outDur.Seals,
		WALBytes:        walBytes,
		BaselineSeconds: baseline.Seconds(),
		DurableSeconds:  durable.Seconds(),
		Overhead:        ratio(durable.Seconds(), baseline.Seconds()),
	}, nil
}

// RunDurableSuite measures every benchmark in the suite.
func RunDurableSuite(scale float64, epochs int, walDir string, tel Telemetry) ([]DurableRow, error) {
	var rows []DurableRow
	for _, b := range Suite() {
		row, err := RunDurable(b, scale, epochs, walDir, tel)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatDurable renders the rows as a table, with the geometric-mean overhead.
func FormatDurable(rows []DurableRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s %10s %12s %12s %10s\n",
		"Benchmark", "Epochs", "Seals", "WAL(B)", "Base(s)", "Durable(s)", "Overhead")
	sum := 0.0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %8d %10d %12.4f %12.4f %10.3f\n",
			r.Bench, r.Epochs, r.Seals, r.WALBytes, r.BaselineSeconds, r.DurableSeconds, r.Overhead)
		sum += math.Log(r.Overhead)
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "%-10s %8s %8s %10s %12s %12s %10.3f\n",
			"geomean", "", "", "", "", "", math.Exp(sum/float64(len(rows))))
	}
	return b.String()
}
