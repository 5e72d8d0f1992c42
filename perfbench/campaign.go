package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"defuse/internal/checksum"
	"defuse/internal/faults"
)

// fault-campaign: rounds of faults.Campaign runs over one fixed matrix of
// epoch cells — 64 words, one flipped bit, random data, 6 epochs, recovery
// on. Five hardened checksum cells aim the fault at the data and at the
// detector's own state; an addrsum and a dme cell take wrong-address loads.
// Each cell runs as its own campaign so that its time is known, and every
// round also runs an unhardened data cell, the reference the matrix's cost
// is measured against.

// campaignWorkers is the campaign pool size (2 cores).
const campaignWorkers = 2

// campaignTrials is the trial count of every cell in one round.
const campaignTrials = 512

// campaignCell names one cell of the matrix.
type campaignCell struct {
	name string
	cfg  faults.CoverageConfig
}

// campaignMatrix returns the fixed cell matrix under one seed.
func campaignMatrix(seed int64) []campaignCell {
	base := faults.CoverageConfig{
		Kind: checksum.ModAdd, Words: 64, BitFlips: 1, Pattern: faults.Random,
		Trials: campaignTrials, Seed: seed, Epochs: 6, Recover: true,
	}
	hardened := func(t faults.Target) faults.CoverageConfig {
		c := base
		c.Hardened, c.Target = true, t
		return c
	}
	backend := func(b faults.Backend) faults.CoverageConfig {
		c := base
		c.Backend, c.AddrFault = b, faults.AddrWrong
		return c
	}
	return []campaignCell{
		{"data", hardened(faults.TargetData)},
		{"accumulator", hardened(faults.TargetAccumulator)},
		{"counter", hardened(faults.TargetCounter)},
		{"masking", hardened(faults.TargetMasking)},
		{"checkpoint", hardened(faults.TargetCheckpoint)},
		{"addrsum", backend(faults.BackendAddrsum)},
		{"dme", backend(faults.BackendDME)},
	}
}

// campaignSeed derives round i's cell seed from the run seed.
func campaignSeed(seed int64, i int) int64 { return seed*7_919 + int64(i) }

// runCampaign runs one campaign over the given cells and checks every cell
// against the campaign gate's expectations: no undetected corruption, no
// false negative or positive, no degraded trial, every detection recovered.
// Trials that broke an expectation count as failed.
func runCampaign(ctx context.Context, cells []campaignCell, t *tally) (*faults.CampaignResult, time.Duration, error) {
	cfgs := make([]faults.CoverageConfig, len(cells))
	for i, c := range cells {
		cfgs[i] = c.cfg
	}
	camp := &faults.Campaign{Cells: cfgs, Workers: campaignWorkers}
	t0 := time.Now()
	res, err := camp.Run(ctx)
	d := time.Since(t0)
	if err != nil {
		return nil, d, fmt.Errorf("campaign: %w", err)
	}
	checkCells(cells, res, t)
	return res, d, nil
}

// checkCells applies the campaign gate to each cell on its own, so one bad
// cell is counted against its own trials.
func checkCells(cells []campaignCell, res *faults.CampaignResult, t *tally) {
	for i, r := range res.Results {
		one := &faults.CampaignResult{Completed: res.Completed, Results: []faults.CoverageResult{r}}
		bad := 0
		if err := one.Gate(); err != nil {
			bad = r.Undetected + r.FalseNegatives + r.FalsePositives + r.Tainted + (r.Detected - r.Recovered)
			bad = min(max(bad, 1), r.Trials)
		}
		t.checkMany(r.Trials, bad, "campaign cell %s: %v", cells[i].name, one.Gate())
		if r.Detected+r.Undetected == 0 {
			t.check(false, "campaign cell %s: no fault was modeled", cells[i].name)
		}
	}
}

// refCell names the reference cell.
const refCell = "data-unhardened"

// referenceCell is the hardened data cell without hardening: the same
// trials, without the detector's self-checks (no scrub at the boundaries,
// unchecked restores). The campaign's overhead is measured against it.
func referenceCell(seed int64) campaignCell {
	c := campaignMatrix(seed)[0]
	c.name, c.cfg.Hardened = refCell, false
	return c
}

// campaignRounds is how many rounds a run of the given length makes; one
// round of eight 512-trial cells takes about 0.2 s on 2 workers.
func campaignRounds(seconds float64) int { return max(2, int(math.Round(seconds*5))) }

// campaignRun is the timed phase of fault-campaign.
type campaignRun struct {
	cellTime   map[string]time.Duration
	cellTrials map[string]int
	hardening  []float64 // per round: hardened data cell time over the reference cell's
	matrix     []float64 // per round: matrix time per trial over the reference cell's
	trials     int       // matrix trials
	wall       time.Duration
	totals     faults.CoverageResult // matrix cells, summed over every round
}

// timeCampaigns runs rounds of the matrix, each cell and the reference cell
// as its own campaign back to back, then reruns round 0's cells and
// requires byte-identical results.
func timeCampaigns(ctx context.Context, seed int64, rounds int, t *tally, rec *recorder, parent int64) (campaignRun, error) {
	run := campaignRun{cellTime: map[string]time.Duration{}, cellTrials: map[string]int{}}
	var first []byte
	start := time.Now()
	for i := 0; i < rounds; i++ {
		cells := append([]campaignCell{referenceCell(campaignSeed(seed, i))}, campaignMatrix(campaignSeed(seed, i))...)
		var results []faults.CoverageResult
		var times []time.Duration
		for _, c := range cells {
			sp := rec.start(parent, "faults", "faults.Campaign.Run "+c.name)
			res, d, err := runCampaign(ctx, []campaignCell{c}, t)
			sp.end()
			if err != nil {
				return run, err
			}
			r := res.Results[0]
			run.cellTime[c.name] += d
			run.cellTrials[c.name] += r.Trials
			times = append(times, d)
			if c.name != refCell {
				results = append(results, r)
				run.trials += r.Trials
				addTotals(&run.totals, r)
			}
		}
		ref := times[0].Seconds()
		var matrix time.Duration
		for _, d := range times[1:] {
			matrix += d
		}
		run.hardening = append(run.hardening, times[1].Seconds()/ref)
		run.matrix = append(run.matrix, matrix.Seconds()/float64(len(times)-1)/ref)
		if i == 0 {
			b, err := json.Marshal(results)
			if err != nil {
				return run, err
			}
			first = b
		}
	}
	run.wall = time.Since(start)
	var again []faults.CoverageResult
	for _, c := range campaignMatrix(campaignSeed(seed, 0)) {
		res, _, err := runCampaign(ctx, []campaignCell{c}, &tally{})
		if err != nil {
			return run, err
		}
		again = append(again, res.Results[0])
	}
	b, err := json.Marshal(again)
	if err != nil {
		return run, err
	}
	t.check(string(b) == string(first), "campaign: rerun of seed %d is not byte-identical", campaignSeed(seed, 0))
	return run, nil
}

// trialsPerSecond is the matrix's throughput over its cells' wall time.
func (r campaignRun) trialsPerSecond() float64 {
	var d time.Duration
	for name, t := range r.cellTime {
		if name != refCell {
			d += t
		}
	}
	return float64(r.trials) / d.Seconds()
}

func addTotals(sum *faults.CoverageResult, r faults.CoverageResult) {
	sum.Trials += r.Trials
	sum.Detected += r.Detected
	sum.Recovered += r.Recovered
	sum.Retries += r.Retries
	sum.Restarts += r.Restarts
	sum.Rebuilds += r.Rebuilds
}
