package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	netio "approxcode/internal/net"
	"approxcode/internal/obs"
)

// runTraced runs cycle pairs until the budget is spent: each pair
// runs the same inputs untraced, then traced. Per-layer metrics come
// from the traced cycles; the pairs' traffic-phase wall times give the
// tracing overhead. Every span is written to a JSON-lines file.
func runTraced(b *bench, wl workload, budget time.Duration, out, name string, seed int64) (result, map[string]any, error) {
	var plain, tr aggregate
	var overhead []float64
	start := time.Now()
	if err := plain.warmUp(b, wl); err != nil {
		return result{}, nil, err
	}
	for c := 1; c <= minCycles || time.Since(start) < budget; c++ {
		u, err := runCycle(b, wl, c, false)
		if err != nil {
			return result{}, nil, fmt.Errorf("cycle %d untraced: %w", c, err)
		}
		t, err := runCycle(b, wl, c, true)
		if err != nil {
			return result{}, nil, fmt.Errorf("cycle %d traced: %w", c, err)
		}
		plain.add(u)
		tr.add(t)
		overhead = append(overhead, (t.putWall+t.readWall).Seconds()/(u.putWall+u.readWall).Seconds()-1)
	}
	spanFile := filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.jsonl", name, seed))
	nspans, err := writeSpans(spanFile, tr.cycles, start)
	if err != nil {
		return result{}, nil, err
	}
	m := perLayer(b, &tr)
	m["obs.tracing_overhead"] = metric{median(overhead), "ratio"}
	all := aggregate{warm: plain.warm, cycles: append(append([]*cycle(nil), plain.cycles...), tr.cycles...)}
	rep := tr.report()
	rep["spans"] = nspans
	rep["span_file"] = spanFile
	rep["tracing_overhead"] = overhead
	return all.result(m), rep, nil
}

// perLayer reads the layer counters of the traced cycles. Write-side
// ratios use the deltas over the put phases, read-side ratios those
// over the read phases, repair ratios the RepairReports.
func perLayer(b *bench, a *aggregate) map[string]metric {
	P, R := map[string]float64{}, map[string]float64{}
	var rebuilt, repairRead, objects, stripes float64
	for _, cy := range a.cycles {
		for k, v := range cy.deltas["put"] {
			P[k] += float64(v)
		}
		for k, v := range cy.deltas["read"] {
			R[k] += float64(v)
		}
		if cy.repair != nil {
			rebuilt += float64(cy.repair.BytesRebuilt)
			repairRead += float64(cy.repair.BytesRead)
		}
		objects += float64(cy.objects)
		stripes += float64(cy.stripes)
	}
	cycles := float64(len(a.cycles))
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	mean := func(d map[string]float64, hist string) float64 { // ns
		return div(d[hist+"_sum_ns"], d[hist+"_count"])
	}
	putNs := a.sum(func(cy *cycle) float64 {
		var s time.Duration
		for _, d := range cy.putLat.all() {
			s += d
		}
		return float64(s)
	})
	reads := R["bench_reads"]
	muladd, enc, dec := replays(b)
	hits, misses := R["store_cache_hits_total"], R["store_cache_misses_total"]
	netReads := R["netio_client_read_total"] + R["netio_client_readat_total"]
	hedges := R["netio_client_hedged_reads_total"]
	wire := R["netio_server_read_bytes_total"] + R["netio_server_readat_bytes_total"] + R["netio_server_write_bytes_total"]
	return map[string]metric{
		"gf256.muladd_mb_s":        {muladd, "MB/s"},
		"core.encode_mb_s":         {enc, "MB/s"},
		"core.decode_mb_s":         {dec, "MB/s"},
		"core.encode_share":        {div(P["core_encode_seconds_sum_ns"], putNs), "ratio"},
		"core.plancache_hit_ratio": {div(R["plancache_hits"], R["plancache_hits"]+R["plancache_misses"]), "ratio"},
		"core.approx_read_frac":    {div(R["bench_approx"], reads), "ratio"},

		"store.node_write_b_per_b":          {div(P["store_node_write_bytes_total"], P["bench_put_bytes"]), "ratio"},
		"store.stripes_per_put":             {div(stripes, objects), "count"},
		"store.node_write_ms_mean":          {mean(P, "store_node_write_seconds") / 1e6, "ms"},
		"store.put_self_ms_mean":            {div(putNs-P["core_encode_seconds_sum_ns"]-P["store_node_write_seconds_sum_ns"], P["bench_puts"]) / 1e6, "ms"},
		"store.journal_b_per_b":             {div(P["store_journal_batch_bytes_total"], P["bench_put_bytes"]), "ratio"},
		"store.journal_records_per_fsync":   {div(P["store_journal_records_total"], P["store_journal_batches_total"]), "ratio"},
		"store.journal_fsyncs":              {div(P["store_journal_batches_total"], cycles), "count"},
		"store.node_read_b_per_b":           {div(R["store_node_read_bytes_total"], R["bench_read_bytes"]), "ratio"},
		"store.node_read_us_mean":           {mean(R, "store_node_read_seconds") / 1e3, "us"},
		"store.read_self_us_mean":           {div(R["bench_read_ns"]-R["store_node_read_seconds_sum_ns"]-R["core_reconstruct_seconds_sum_ns"], reads) / 1e3, "us"},
		"store.plan_fallbacks_per_read":     {div(R["store_plan_fallbacks_total"], reads), "ratio"},
		"store.degraded_sub_reads_per_read": {div(R["store_degraded_sub_reads_total"], reads), "ratio"},
		"store.repair_read_b_per_rebuilt_b": {div(repairRead, rebuilt), "ratio"},
		"store.repair_rebuilt_mb":           {rebuilt / 1e6 / cycles, "MB"},

		"tier.cache_hit_ratio":          {div(hits, hits+misses), "ratio"},
		"tier.cache_evictions_per_read": {div(R["store_cache_evictions_total"], reads), "ratio"},
		"tier.migrations":               {div(R["store_tier_promotions_total"]+R["store_tier_demotions_total"], cycles), "count"},
		"tier.migrate_s":                {R["store_tier_migrate_seconds_sum_ns"] / 1e9 / cycles, "s"},

		"net.wire_b_per_b":         {div(wire, R["bench_put_bytes"]+R["bench_read_bytes"]), "ratio"},
		"net.client_write_ms_mean": {mean(R, "netio_client_write_seconds") / 1e6, "ms"},
		"net.client_read_us_mean":  {div(R["netio_client_read_seconds_sum_ns"]+R["netio_client_readat_seconds_sum_ns"], netReads) / 1e3, "us"},
		"net.server_write_ms_mean": {mean(R, "netio_server_write_seconds") / 1e6, "ms"},
		"net.hedges_per_read":      {div(hedges, netReads), "ratio"},
		"net.hedge_win_ratio":      {div(R["netio_client_hedge_wins_total"], hedges), "ratio"},
		"net.dials":                {div(R["netio_client_dials_total"], cycles), "count"},
	}
}

// spanLine is one span in the span file.
type spanLine struct {
	Cycle   int            `json:"cycle"`
	Name    string         `json:"name"`
	StartUs float64        `json:"start_us"`
	DurUs   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// writeSpans writes every traced cycle's spans, benchmark-side and
// store-side, as JSON lines with start times relative to the run.
func writeSpans(path string, cycles []*cycle, origin time.Time) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, cy := range cycles {
		for _, ev := range cy.sink.Spans() {
			line := spanLine{
				Cycle:   cy.idx,
				Name:    ev.Name,
				StartUs: float64(ev.Start.Sub(origin)) / 1e3,
				DurUs:   float64(ev.Duration) / 1e3,
			}
			if len(ev.Attrs) > 0 {
				line.Attrs = make(map[string]any, len(ev.Attrs))
				for _, a := range ev.Attrs {
					line.Attrs[a.Key] = a.Value
				}
			}
			if err := enc.Encode(line); err != nil {
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}

// timedIO wraps the remote store's netio.Client and records a span per
// NodeIO call, tagged with the object it serves (the parent Put, Get or
// GetSegment span carries the same object name).
type timedIO struct {
	client *netio.Client
	reg    *obs.Registry
}

func (t *timedIO) end(sp obs.Span, node int, object string, stripe, n int) {
	sp.End(obs.A("object", object), obs.A("node", node), obs.A("stripe", stripe), obs.A("bytes", n))
}

func (t *timedIO) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	return t.ReadColumnCtx(context.Background(), node, object, stripe)
}

func (t *timedIO) ReadColumnAt(node int, object string, stripe, off, n int) ([]byte, error) {
	return t.ReadColumnAtCtx(context.Background(), node, object, stripe, off, n)
}

func (t *timedIO) WriteColumn(node int, object string, stripe int, data []byte) error {
	return t.WriteColumnCtx(context.Background(), node, object, stripe, data)
}

func (t *timedIO) ReadColumnCtx(ctx context.Context, node int, object string, stripe int) ([]byte, error) {
	sp := t.reg.StartSpan("bench.nodeio.read")
	data, err := t.client.ReadColumnCtx(ctx, node, object, stripe)
	t.end(sp, node, object, stripe, len(data))
	return data, err
}

func (t *timedIO) ReadColumnAtCtx(ctx context.Context, node int, object string, stripe, off, n int) ([]byte, error) {
	sp := t.reg.StartSpan("bench.nodeio.readat")
	data, err := t.client.ReadColumnAtCtx(ctx, node, object, stripe, off, n)
	t.end(sp, node, object, stripe, len(data))
	return data, err
}

func (t *timedIO) WriteColumnCtx(ctx context.Context, node int, object string, stripe int, data []byte) error {
	sp := t.reg.StartSpan("bench.nodeio.write")
	err := t.client.WriteColumnCtx(ctx, node, object, stripe, data)
	t.end(sp, node, object, stripe, len(data))
	return err
}
