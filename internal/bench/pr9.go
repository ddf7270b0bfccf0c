package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"approxcode/internal/core"
	"approxcode/internal/obs"
	"approxcode/internal/store"
	"approxcode/internal/tier"
)

// PR9 measures what popularity-adaptive tiering buys on a skewed video
// workload: a Zipf(1.1) read stream first runs against an all-warm
// (uniform APPR) fleet as the decode baseline, then the tier manager
// classifies the tracked popularity and migrates — the head to hot
// (replicated + cached), the tail to cold (globals dropped) — and the
// same stream replays against the tiered fleet. The report contrasts
// hot-tier cached read latency against the decode path it replaced and
// the fleet storage overhead against 3x all-replication. The emitted
// report becomes BENCH_PR9.json.

// PR9TierRow is one row of the redundancy/latency frontier: a tier's
// population after classification, its per-object storage overhead
// (stored bytes / logical data bytes, exact for fixed-size columns),
// and its replayed read latency.
type PR9TierRow struct {
	Tier          string  `json:"tier"`
	Objects       int     `json:"objects"`
	Overhead      float64 `json:"storage_overhead"`
	Reads         int     `json:"reads"`
	ReadP50Micros float64 `json:"read_p50_micros"`
	ReadP99Micros float64 `json:"read_p99_micros"`
}

// PR9Workload summarizes the two-phase Zipf replay.
type PR9Workload struct {
	Objects int     `json:"objects"`
	Reads   int     `json:"reads_per_phase"`
	ZipfS   float64 `json:"zipf_s"`
	// Phase 1: every object warm, every read decodes.
	BaselineP50Micros float64 `json:"baseline_p50_micros"`
	BaselineP99Micros float64 `json:"baseline_p99_micros"`
	// HotDecodeP50Micros restricts the phase-1 sample to the objects
	// that later became hot — the exact reads the cache replaced.
	HotDecodeP50Micros float64 `json:"hot_decode_p50_micros"`
	// Phase 2: the same stream against the tiered fleet.
	HotCachedP50Micros float64 `json:"hot_cached_p50_micros"`
	HotCachedP99Micros float64 `json:"hot_cached_p99_micros"`
	// Speedup is hot decode p50 over hot cached p50.
	Speedup float64 `json:"hot_p50_speedup"`
}

// PR9Overhead is the fleet storage accounting, measured off the
// store's byte counters (not the theoretical shard ratios).
type PR9Overhead struct {
	DataBytes         int64 `json:"data_bytes"`
	WarmStoredBytes   int64 `json:"all_warm_stored_bytes"`
	TieredStoredBytes int64 `json:"tiered_stored_bytes"`
	// FleetOverhead is tiered stored bytes over pure data bytes; the
	// all-replication baseline stores every data column three times.
	FleetOverhead          float64 `json:"fleet_overhead"`
	AllReplicationOverhead float64 `json:"all_replication_overhead"`
}

// PR9Report is the machine-readable result of the PR9 experiment.
type PR9Report struct {
	GOMAXPROCS  int          `json:"gomaxprocs"`
	NumCPU      int          `json:"numcpu"`
	Workload    PR9Workload  `json:"workload"`
	Overhead    PR9Overhead  `json:"overhead"`
	Frontier    []PR9TierRow `json:"frontier"`
	Promotions  int64        `json:"tier_promotions"`
	Demotions   int64        `json:"tier_demotions"`
	CacheHits   int64        `json:"cache_hits"`
	CacheMisses int64        `json:"cache_misses"`
	// TieringTargetMet is deterministic (byte and event counts, not
	// timings): the tiered fleet stays under the 3x all-replication
	// overhead while the manager actually promoted, demoted, and served
	// reads from cache.
	TieringTargetMet bool `json:"tiering_target_met"`
	// LatencyEvaluated gates the timing criterion on hosts with >= 4
	// cores; LatencyTargetMet: hot-tier cached reads beat the decode
	// path they replaced by >= 5x at p50.
	LatencyEvaluated bool   `json:"latency_evaluated"`
	LatencyTargetMet bool   `json:"latency_target_met"`
	TargetMet        bool   `json:"target_met"`
	Note             string `json:"note,omitempty"`
}

// pr9Overheads derives per-tier storage overheads from the code's
// shard roles; exact because every stored column is one NodeSize run.
func pr9Overheads(c *core.Code) (warm, hot, cold float64) {
	total := c.TotalShards()
	data := len(c.DataNodeIndexes())
	globals := 0
	for i := 0; i < total; i++ {
		if c.Role(i) == core.RoleGlobalParity {
			globals++
		}
	}
	d := float64(data)
	return float64(total) / d, float64(total+data) / d, float64(total-globals) / d
}

// RunPR9 runs the popularity-adaptive tiering experiment. tc.Iters
// scales the read-stream length.
func RunPR9(tc TimingConfig) (*PR9Report, error) {
	iters := tc.Iters
	if iters < 1 {
		iters = 1
	}
	const (
		objects = 48
		zipfS   = 1.1
		maxHot  = 4
		// GOP-sized segments: large enough that a decode-path read
		// assembles sub-blocks across several stripes, as real video
		// segments do.
		segCount = 4
		segBytes = 16 << 10
	)
	reads := 1500 * iters

	reg := obs.NewRegistry(true)
	tracker := tier.NewTracker(0.5)
	params := core.Params{Family: core.FamilyRS, K: 3, R: 1, G: 2, H: 3, Structure: core.Uneven}
	s, err := store.Open(store.Config{
		Code: params, NodeSize: 3 * 1024, Obs: reg,
		CacheBytes: 8 << 20, Tracker: tracker,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(9))
	names := make([]string, objects)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
		segs := make([]store.Segment, segCount)
		for j := range segs {
			data := make([]byte, segBytes)
			rng.Read(data)
			segs[j] = store.Segment{ID: j, Important: j == 0, Data: data}
		}
		if err := s.Put(names[i], segs); err != nil {
			return nil, err
		}
	}
	code := s.Code()
	warmOv, hotOv, coldOv := pr9Overheads(code)
	warmStored := s.Stats().StoredBytes
	dataBytes := warmStored * int64(len(code.DataNodeIndexes())) / int64(code.TotalShards())

	// One fixed Zipf stream, replayed verbatim in both phases so the
	// latency comparison sees identical access patterns.
	wr := rand.New(rand.NewSource(99))
	z := rand.NewZipf(wr, zipfS, 1, uint64(objects-1))
	objSeq := make([]int, reads)
	segSeq := make([]int, reads)
	for i := range objSeq {
		objSeq[i] = int(z.Uint64())
		segSeq[i] = wr.Intn(segCount)
	}

	// Phase 1: all-warm decode baseline. Per-object durations are kept
	// so the hot set's own baseline can be extracted after the fact.
	perObj := make([][]time.Duration, objects)
	baseline := reg.Histogram("pr9_baseline_read")
	for i, oi := range objSeq {
		t0 := time.Now()
		if _, err := s.GetSegment(names[oi], segSeq[i]); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		perObj[oi] = append(perObj[oi], d)
		baseline.Observe(d)
	}

	// Classify and migrate. Thresholds scale with the stream length:
	// hot needs >= 2% of the reads (the Zipf(1.1) head easily clears
	// it), cold is <= 1% (the tail).
	mgr := &tier.Manager{
		Tracker: tracker,
		Policy: tier.Policy{
			MaxHot:      maxHot,
			HotMinRate:  0.02 * float64(reads),
			ColdMaxRate: 0.01 * float64(reads),
		},
		Store: s,
	}
	mgr.Tick()

	levelOf := make([]tier.Level, objects)
	for i, name := range names {
		lvl, ok := s.ObjectTier(name)
		if !ok {
			return nil, fmt.Errorf("object %s vanished", name)
		}
		levelOf[i] = lvl
	}

	// Phase 2: replay against the tiered fleet, bucketing latency by
	// the object's tier.
	byTier := map[tier.Level]*obs.Histogram{
		tier.Hot:  reg.Histogram("pr9_hot_read"),
		tier.Warm: reg.Histogram("pr9_warm_read"),
		tier.Cold: reg.Histogram("pr9_cold_read"),
	}
	tierReads := map[tier.Level]int{}
	for i, oi := range objSeq {
		t0 := time.Now()
		if _, err := s.GetSegment(names[oi], segSeq[i]); err != nil {
			return nil, err
		}
		byTier[levelOf[oi]].Observe(time.Since(t0))
		tierReads[levelOf[oi]]++
	}

	// The hot set's phase-1 decode baseline, assembled post hoc.
	hotDecode := reg.Histogram("pr9_hot_decode_baseline")
	for oi, lvl := range levelOf {
		if lvl != tier.Hot {
			continue
		}
		for _, d := range perObj[oi] {
			hotDecode.Observe(d)
		}
	}

	st := s.Stats()
	q := func(h *obs.Histogram, p float64) float64 {
		return float64(h.Snapshot().Quantile(p)) / 1e3
	}
	rep := &PR9Report{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workload: PR9Workload{
			Objects:            objects,
			Reads:              reads,
			ZipfS:              zipfS,
			BaselineP50Micros:  q(baseline, 0.50),
			BaselineP99Micros:  q(baseline, 0.99),
			HotDecodeP50Micros: q(hotDecode, 0.50),
			HotCachedP50Micros: q(byTier[tier.Hot], 0.50),
			HotCachedP99Micros: q(byTier[tier.Hot], 0.99),
		},
		Overhead: PR9Overhead{
			DataBytes:              dataBytes,
			WarmStoredBytes:        warmStored,
			TieredStoredBytes:      st.StoredBytes,
			AllReplicationOverhead: 3.0,
		},
		Promotions:  st.TierPromotions,
		Demotions:   st.TierDemotions,
		CacheHits:   st.CacheHits,
		CacheMisses: st.CacheMisses,
	}
	if dataBytes > 0 {
		rep.Overhead.FleetOverhead = float64(st.StoredBytes) / float64(dataBytes)
	}
	if rep.Workload.HotCachedP50Micros > 0 {
		rep.Workload.Speedup = rep.Workload.HotDecodeP50Micros / rep.Workload.HotCachedP50Micros
	}
	for _, lvl := range []tier.Level{tier.Hot, tier.Warm, tier.Cold} {
		n := 0
		for _, l := range levelOf {
			if l == lvl {
				n++
			}
		}
		ov := warmOv
		switch lvl {
		case tier.Hot:
			ov = hotOv
		case tier.Cold:
			ov = coldOv
		}
		rep.Frontier = append(rep.Frontier, PR9TierRow{
			Tier:          lvl.String(),
			Objects:       n,
			Overhead:      ov,
			Reads:         tierReads[lvl],
			ReadP50Micros: q(byTier[lvl], 0.50),
			ReadP99Micros: q(byTier[lvl], 0.99),
		})
	}
	sort.Slice(rep.Frontier, func(i, j int) bool { return rep.Frontier[i].Overhead > rep.Frontier[j].Overhead })

	rep.TieringTargetMet = rep.Overhead.FleetOverhead > 0 &&
		rep.Overhead.FleetOverhead < rep.Overhead.AllReplicationOverhead &&
		rep.Promotions > 0 && rep.Demotions > 0 && rep.CacheHits > 0
	rep.LatencyEvaluated = rep.NumCPU >= 4
	if rep.LatencyEvaluated {
		rep.LatencyTargetMet = rep.Workload.Speedup >= 5.0
		rep.TargetMet = rep.TieringTargetMet && rep.LatencyTargetMet
		rep.Note = "targets: tiered fleet overhead below 3x all-replication with promotions, demotions, and cache hits observed; hot-tier cached reads >= 5x faster than the decode path they replaced (p50)"
	} else {
		rep.TargetMet = rep.TieringTargetMet
		rep.Note = fmt.Sprintf("host has %d CPU(s); latency criterion requires >= 4 cores and was not evaluated (report-only); tiering criteria are deterministic and were evaluated", rep.NumCPU)
	}
	return rep, nil
}
