package store

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"approxcode/internal/chaos"
	"approxcode/internal/obs"
)

// TestMemIOReadAliasing is the regression test for the backing-slice
// leak: the store's default in-memory backend used to return the
// stored column itself from ReadColumn, so any caller-side mutation (a
// chaos corrupt rule, an in-place decode) silently damaged the stored
// data.
func TestMemIOReadAliasing(t *testing.T) {
	s := openWith(t, makeSegments(t, 12, 4, 41))
	io := s.backend
	col, err := io.ReadColumn(0, "video", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), col...)
	for i := range col {
		col[i] ^= 0xFF
	}
	again, err := io.ReadColumn(0, "video", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("mutating ReadColumn's result corrupted the stored column")
	}
}

// TestMemIOWriteAliasing is the write-side twin: WriteColumn used to
// retain the caller's buffer, aliasing the stored column to memory the
// caller may keep reusing.
func TestMemIOWriteAliasing(t *testing.T) {
	s := openWith(t, makeSegments(t, 12, 4, 42))
	io := s.backend
	orig, err := io.ReadColumn(0, "video", 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), orig...)
	if err := io.WriteColumn(0, "video", 0, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xCC
	}
	got, err := io.ReadColumn(0, "video", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("mutating the buffer passed to WriteColumn corrupted the stored column")
	}
}

// TestUpdateSegmentFailNodesRace drives UpdateSegment against
// concurrent FailNodes/RepairAll cycles. The fail-set lock must make
// each update atomic with respect to failures: after everything
// settles, every segment reads back as exactly one of the two payloads
// ever written — never a mix of pre- and post-update columns.
func TestUpdateSegmentFailNodesRace(t *testing.T) {
	segs := makeSegments(t, 24, 6, 43)
	s := openWith(t, segs)
	const target = 5
	old := append([]byte(nil), segs[target].Data...)
	alt := bytes.Repeat([]byte{0xB7}, len(old))
	dn := s.Code().DataNodeIndexes()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			data := alt
			if i%2 == 1 {
				data = old
			}
			// ErrUnavailable while nodes are down is expected; the
			// invariant below is about what lands, not how often.
			_ = s.UpdateSegment("video", target, data)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := s.FailNodes(dn[i%2]); err != nil {
				continue
			}
			if _, err := s.RepairAll(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if _, err := s.RepairAll(); err != nil {
		t.Fatal(err)
	}
	got, rep, err := s.Get("video")
	if err != nil || len(rep.LostSegments) != 0 {
		t.Fatalf("get: %v %+v", err, rep)
	}
	for _, g := range got {
		if g.ID != target {
			continue
		}
		if !bytes.Equal(g.Data, old) && !bytes.Equal(g.Data, alt) {
			t.Fatal("segment is a mix of pre- and post-update columns (torn update)")
		}
	}
	if scrub, err := s.Scrub(); err != nil || len(scrub.Corrupt) != 0 {
		t.Fatalf("scrub after race: %v %+v", err, scrub)
	}
}

// TestStatsConcurrentMonotonic hammers Stats while Put/Get/Scrub/
// FailNodes/RepairAll run: counters must be readable without locks and
// never move backwards.
func TestStatsConcurrentMonotonic(t *testing.T) {
	segs := makeSegments(t, 16, 4, 44)
	s := openWith(t, segs)
	dn := s.Code().DataNodeIndexes()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				_, _, _ = s.Get("video")
			case 1:
				_ = s.Put(fmt.Sprintf("extra%d", i), makeSegments(t, 4, 2, int64(i)))
			case 2:
				_, _ = s.Scrub()
			case 3:
				if err := s.FailNodes(dn[0]); err == nil {
					_, _ = s.RepairAll()
				}
			}
		}
	}()

	counters := func(st Stats) []int64 {
		return []int64{st.Retries, st.Hedges, st.HedgeWins, st.ReadErrors,
			st.ChecksumFailures, st.ShardsHealed, st.DegradedSubReads}
	}
	prev := counters(s.Stats())
	for i := 0; i < 2000; i++ {
		cur := counters(s.Stats())
		for j := range cur {
			if cur[j] < prev[j] {
				t.Fatalf("counter %d went backwards: %d -> %d", j, prev[j], cur[j])
			}
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
}

// TestChaosCountersAndHistograms is the acceptance check for the
// instrumented store: under fault injection the retry counters move and
// the per-op latency histograms fill, all visible in the Prometheus
// exposition.
func TestChaosCountersAndHistograms(t *testing.T) {
	reg := obs.NewRegistry(true)
	cfg := testConfig()
	cfg.Obs = reg
	cfg.Retry = RetryPolicy{Seed: 45}
	rules, err := chaos.ParseSchedule("fault=transient,rate=0.2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.WrapIO = chaos.NewInjector(45, rules...).Wrap
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("video", makeSegments(t, 16, 4, 45)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := s.Get("video"); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Retries == 0 {
		t.Fatal("flaky I/O produced no retries")
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"store_retries_total", "store_get_seconds_count", "store_put_seconds_count",
		"store_node_read_seconds_bucket", "gf256_active_kernel",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	var getCount int64
	fmt.Sscanf(out[strings.Index(out, "store_get_seconds_count"):], "store_get_seconds_count %d", &getCount)
	if getCount < 4 {
		t.Fatalf("store_get_seconds_count = %d, want >= 4", getCount)
	}
}

// TestMetricsOverheadGate compares Get on a store with the default
// (disabled) registry against one whose metrics handles are all nil —
// the closest stand-in for the pre-instrumentation code. Gated behind
// METRICS_GATE=1 (run via `make metrics-bench`) because wall-clock
// ratios are too noisy for every CI run.
func TestMetricsOverheadGate(t *testing.T) {
	if os.Getenv("METRICS_GATE") != "1" {
		t.Skip("set METRICS_GATE=1 to run the overhead gate")
	}
	segs := makeSegments(t, 32, 4, 46)
	run := func(strip bool) float64 {
		s := openWith(t, segs)
		if strip {
			s.metrics = storeMetrics{}
		}
		best := 0.0
		for i := 0; i < 5; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					if _, _, err := s.Get("video"); err != nil {
						b.Fatal(err)
					}
				}
			})
			nsop := float64(r.T.Nanoseconds()) / float64(r.N)
			if best == 0 || nsop < best {
				best = nsop
			}
		}
		return best
	}
	baseline := run(true)
	instrumented := run(false)
	ratio := instrumented / baseline
	t.Logf("Get ns/op: stripped=%.0f instrumented(disabled)=%.0f ratio=%.4f", baseline, instrumented, ratio)
	if ratio > 1.02 {
		t.Fatalf("disabled-registry overhead %.2f%% exceeds the 2%% budget", 100*(ratio-1))
	}
}
