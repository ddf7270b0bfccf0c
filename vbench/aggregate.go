package main

import (
	"fmt"
	"time"
)

// aggregate pools the samples of a run's measured cycles.
type aggregate struct {
	cycles []*cycle
	// warm is the warm-up cycle: checked for correctness, not measured.
	warm *cycle
	// gen is the run's one-off clip generation time.
	gen time.Duration
}

func (a *aggregate) add(cy *cycle) { a.cycles = append(a.cycles, cy) }

// warmUp runs cycle 0, which pays first-use costs — page faults, heap
// growth, GC pacing, plan caches — that every later cycle skips.
func (a *aggregate) warmUp(b *bench, wl workload) error {
	cy, err := runCycle(b, wl, 0, false)
	if err != nil {
		return fmt.Errorf("warm-up cycle: %w", err)
	}
	a.warm, a.gen = cy, b.genTime
	return nil
}

func (a *aggregate) pooled(pick func(*cycle) *recorder) []time.Duration {
	var out []time.Duration
	for _, cy := range a.cycles {
		out = append(out, pick(cy).all()...)
	}
	return out
}

func (a *aggregate) perCycle(f func(*cycle) float64) []float64 {
	out := make([]float64, len(a.cycles))
	for i, cy := range a.cycles {
		out[i] = f(cy)
	}
	return out
}

func (a *aggregate) sum(f func(*cycle) float64) float64 {
	var s float64
	for _, cy := range a.cycles {
		s += f(cy)
	}
	return s
}

// outcome is the run's correctness verdict.
func (a *aggregate) outcome() (attempted, failed int64) {
	for _, cy := range append([]*cycle{a.warm}, a.cycles...) {
		if cy != nil {
			attempted += cy.attempted.Load()
			failed += cy.failures.Load()
		}
	}
	return attempted, failed
}

func (a *aggregate) result(metrics map[string]metric) result {
	attempted, failed := a.outcome()
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// endToEnd computes the user-visible metrics, tracing off.
func (a *aggregate) endToEnd() result {
	puts := a.pooled(func(cy *cycle) *recorder { return &cy.putLat })
	gets := a.pooled(func(cy *cycle) *recorder { return &cy.getLat })
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	m := map[string]metric{
		"put_mb_s":       {median(a.perCycle(putRate)), "MB/s"},
		"put_p50_ms":     {ms(quantile(puts, 0.50)), "ms"},
		"put_p90_ms":     {ms(quantile(puts, 0.90)), "ms"},
		"read_ops_s":     {median(a.perCycle(readRate)), "ops/s"},
		"read_p50_us":    {median(a.perCycle(readQuantile(0.50))), "us"},
		"read_p99_us":    {median(a.perCycle(readQuantile(0.99))), "us"},
		"get_p50_ms":     {ms(quantile(gets, 0.50)), "ms"},
		"repair_s":       {median(a.perCycle(func(cy *cycle) float64 { return cy.repairTime.Seconds() })), "s"},
		"stored_b_per_b": {median(a.perCycle(func(cy *cycle) float64 { return cy.storedRatio })), "ratio"},
		"alloc_b_per_b":  {a.sum(func(cy *cycle) float64 { return float64(cy.alloc) }) / a.sum(func(cy *cycle) float64 { return float64(cy.moved) }), "ratio"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
		"setup_s":        {a.gen.Seconds() + median(a.perCycle(func(cy *cycle) float64 { return cy.setupTime.Seconds() })), "s"},
	}
	return a.result(m)
}

// report is the run's detail for the full report file: sample counts,
// sizes, the outcomes that are not metrics, and the first errors.
func (a *aggregate) report() map[string]any {
	attempted, failed := a.outcome()
	var errs []string
	for _, cy := range append([]*cycle{a.warm}, a.cycles...) {
		if cy == nil {
			continue
		}
		errs = append(errs, cy.errs...)
	}
	reads := a.sum(func(cy *cycle) float64 { return float64(len(cy.readLat.all())) })
	approx := a.sum(func(cy *cycle) float64 { return float64(cy.approx.Load()) })
	return map[string]any{
		"cycles":            len(a.cycles),
		"put_samples":       len(a.pooled(func(cy *cycle) *recorder { return &cy.putLat })),
		"read_samples":      int(reads),
		"get_samples":       len(a.pooled(func(cy *cycle) *recorder { return &cy.getLat })),
		"approx_reads":      int(approx),
		"approx_read_frac":  approx / (reads + a.sum(func(cy *cycle) float64 { return float64(len(cy.getLat.all())) })),
		"error_frac":        float64(failed) / float64(attempted),
		"put_mb_s":          a.perCycle(putRate),
		"put_p50_ms":        a.perCycle(func(cy *cycle) float64 { return float64(quantile(cy.putLat.all(), 0.5)) / 1e6 }),
		"put_p90_ms":        a.perCycle(func(cy *cycle) float64 { return float64(quantile(cy.putLat.all(), 0.9)) / 1e6 }),
		"read_ops_s":        a.perCycle(readRate),
		"repair_s":          a.perCycle(func(cy *cycle) float64 { return cy.repairTime.Seconds() }),
		"generate_s":        a.gen.Seconds(),
		"setup_s":           a.perCycle(func(cy *cycle) float64 { return cy.setupTime.Seconds() }),
		"stored_b_per_b":    a.perCycle(func(cy *cycle) float64 { return cy.storedRatio }),
		"clip_bytes":        a.cycles[0].clipBytes,
		"objects_per_cycle": a.cycles[0].objects,
		"cache_bytes":       cacheBytes,
		"hot_tier_bytes":    int64(maxHot) * a.cycles[0].clipBytes,
		"errors":            errs,
	}
}

// putRate is a cycle's acknowledged payload per second of Put phase.
func putRate(cy *cycle) float64 { return float64(cy.putBytes.Load()) / cy.putWall.Seconds() / 1e6 }

// readRate is a cycle's GetSegment calls per second of read phase.
func readRate(cy *cycle) float64 { return float64(len(cy.readLat.all())) / cy.readWall.Seconds() }

// readQuantile is a cycle's q-quantile of GetSegment latency in µs.
// Every cycle has thousands of reads, so even p99 rests on more than
// ten samples beyond it; the run reports the median over cycles, which
// a few disturbed cycles cannot move.
func readQuantile(q float64) func(*cycle) float64 {
	return func(cy *cycle) float64 { return float64(quantile(cy.readLat.all(), q)) / 1e3 }
}
