package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"approxcode/internal/obs"
	"approxcode/internal/store"
)

// cycle is one self-contained measurement: set up a fresh store, run
// the workload's traffic, verify every object, then fail the degraded
// pair and repair. Every cycle starts from untouched state, so
// approximate losses never pile up and one store never grows without
// bound.
type cycle struct {
	b   *bench
	idx int
	// reg is the enabled registry of a traced cycle, nil otherwise.
	reg  *obs.Registry
	sink *obs.CollectorSink

	st       *store.Store
	objs     []object
	failed   []int
	cleanups []func()
	// storedBytes, when set, replaces Stats.StoredBytes (an external
	// backend keeps the bytes itself).
	storedBytes func() int64

	ops       atomic.Int64
	attempted atomic.Int64
	failures  atomic.Int64
	approx    atomic.Int64
	// reads and readNs count every GetSegment and Get call and their
	// summed latency, for per-read ratios on traced cycles.
	reads      atomic.Int64
	readNs     atomic.Int64
	putBytes   atomic.Int64
	readBytes  atomic.Int64
	errMu      sync.Mutex
	errs       []string
	putLat     recorder
	readLat    recorder
	getLat     recorder
	putWall    time.Duration
	readWall   time.Duration
	setupTime  time.Duration
	repairTime time.Duration
	// alloc and moved cover the measured traffic phases only.
	alloc, moved int64
	storedRatio  float64
	// objects and clipBytes outlive objs, which is dropped after the
	// cycle.
	objects   int
	clipBytes int64
	repair    *store.RepairReport
	// deltas holds registry counter deltas per phase class ("put",
	// "read") on traced cycles.
	deltas  map[string]map[string]int64
	stripes int64
}

func runCycle(b *bench, wl workload, idx int, traced bool) (*cycle, error) {
	cy := &cycle{
		b: b, idx: idx, deltas: map[string]map[string]int64{},
		putLat: newRecorder(), readLat: newRecorder(), getLat: newRecorder(),
	}
	if traced {
		cy.reg = obs.NewRegistry(true)
		cy.sink = &obs.CollectorSink{}
		cy.reg.SetSpanSink(cy.sink)
	}
	err := wl(cy)
	for i := len(cy.cleanups) - 1; i >= 0; i-- {
		cy.cleanups[i]()
	}
	if err != nil {
		return nil, err
	}
	// Keep the samples, drop the store and the clips: a run holds one
	// cycle's data at a time.
	cy.objects, cy.clipBytes = len(cy.objs), cy.objs[0].bytes
	cy.st, cy.objs, cy.cleanups, cy.storedBytes = nil, nil, nil, nil
	return cy, nil
}

// seed derives the cycle's input seed from the run seed.
func (cy *cycle) seed() int64 { return cy.b.seed*1000 + int64(cy.idx) }

func (cy *cycle) cleanup(fn func()) { cy.cleanups = append(cy.cleanups, fn) }

// setup times fn as one set-up sample.
func (cy *cycle) setup(fn func() error) error {
	t0 := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	cy.setupTime = time.Since(t0)
	return nil
}

// storeConfig is the store every workload opens.
func (cy *cycle) storeConfig() store.Config {
	return store.Config{
		Code:     codeParams,
		NodeSize: nodeSize,
		Retry:    store.RetryPolicy{Seed: cy.seed()},
		Obs:      cy.reg,
	}
}

// open installs st as the cycle's store, closed at the end.
func (cy *cycle) open(st *store.Store) {
	cy.st = st
	cy.cleanup(func() {
		if err := st.Close(); err != nil {
			cy.fail(fmt.Errorf("close store: %w", err))
		}
	})
}

// measure runs a traffic phase: it times fn, counts the heap bytes
// allocated during it and, on traced cycles, the registry counter
// deltas under each named phase class.
func (cy *cycle) measure(classes []string, fn func()) time.Duration {
	var before map[string]any
	if cy.reg != nil {
		before = cy.reg.Snapshot()
		before["bench_puts"] = int64(len(cy.putLat.all()))
		before["bench_put_bytes"] = cy.putBytes.Load()
		before["bench_reads"] = cy.reads.Load()
		before["bench_read_bytes"] = cy.readBytes.Load()
		before["bench_read_ns"] = cy.readNs.Load()
		before["bench_approx"] = cy.approx.Load()
	}
	// Collect the previous phase's garbage first, so its GC work is not
	// charged to this phase.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	moved0 := cy.putBytes.Load() + cy.readBytes.Load()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&ms)
	cy.alloc += int64(ms.TotalAlloc - alloc0)
	cy.moved += cy.putBytes.Load() + cy.readBytes.Load() - moved0
	if cy.reg != nil {
		after := cy.reg.Snapshot()
		after["bench_puts"] = int64(len(cy.putLat.all()))
		after["bench_put_bytes"] = cy.putBytes.Load()
		after["bench_reads"] = cy.reads.Load()
		after["bench_read_bytes"] = cy.readBytes.Load()
		after["bench_read_ns"] = cy.readNs.Load()
		after["bench_approx"] = cy.approx.Load()
		for _, class := range classes {
			dm := cy.deltas[class]
			if dm == nil {
				dm = map[string]int64{}
				cy.deltas[class] = dm
			}
			for k, v := range after {
				a, ok := v.(int64)
				if !ok {
					continue
				}
				b, _ := before[k].(int64)
				dm[k] += a - b
			}
		}
	}
	return d
}

func (cy *cycle) fail(err error) {
	cy.failures.Add(1)
	cy.errMu.Lock()
	if len(cy.errs) < 10 {
		cy.errs = append(cy.errs, err.Error())
	}
	cy.errMu.Unlock()
}

// span opens a benchmark-side span around one public store call; it is
// inert on untraced cycles.
func (cy *cycle) span(name string) (obs.Span, int64) {
	return cy.reg.StartSpan("bench." + name), cy.ops.Add(1)
}

func (cy *cycle) put(w int, o object) {
	sp, id := cy.span("Put")
	t0 := time.Now()
	err := cy.st.Put(o.name, o.segs)
	d := time.Since(t0)
	sp.End(obs.A("op", id), obs.A("object", o.name))
	cy.attempted.Add(1)
	if err != nil {
		cy.fail(fmt.Errorf("put %s: %w", o.name, err))
		return
	}
	cy.putLat.add(w, d)
	cy.putBytes.Add(o.bytes)
}

func (cy *cycle) getSegment(w int, o object, j int, chk checker) {
	want := o.segs[j]
	sp, id := cy.span("GetSegment")
	t0 := time.Now()
	got, err := cy.st.GetSegment(o.name, want.ID)
	d := time.Since(t0)
	sp.End(obs.A("op", id), obs.A("object", o.name), obs.A("segment", want.ID))
	cy.attempted.Add(1)
	cy.reads.Add(1)
	cy.readNs.Add(int64(d))
	approx, cerr := chk.segment(want, got, err)
	if cerr != nil {
		cy.fail(fmt.Errorf("get segment %s: %w", o.name, cerr))
		return
	}
	cy.readLat.add(w, d)
	if approx {
		cy.approx.Add(1)
		return
	}
	cy.readBytes.Add(int64(len(got.Data)))
}

// get reads a whole object and checks it. sample says whether its
// latency counts toward get_p50_ms.
func (cy *cycle) get(w int, o object, chk checker, zeroed map[int]bool, sample bool) {
	sp, id := cy.span("Get")
	t0 := time.Now()
	got, rep, err := cy.st.Get(o.name)
	d := time.Since(t0)
	sp.End(obs.A("op", id), obs.A("object", o.name))
	cy.attempted.Add(1)
	cy.reads.Add(1)
	cy.readNs.Add(int64(d))
	if err != nil {
		cy.fail(fmt.Errorf("get %s: %w", o.name, err))
		return
	}
	approx, cerr := chk.object(o.segs, got, rep.LostSegments, zeroed)
	if cerr != nil {
		cy.fail(fmt.Errorf("get %s: %w", o.name, cerr))
		return
	}
	if !sample {
		return
	}
	cy.getLat.add(w, d)
	cy.approx.Add(int64(approx))
	lost := make(map[int]bool, len(rep.LostSegments))
	for _, id := range rep.LostSegments {
		lost[id] = true
	}
	var n int64
	for _, g := range got {
		if !lost[g.ID] {
			n += int64(len(g.Data))
		}
	}
	cy.readBytes.Add(n)
}

// preload puts objs with every client, as timed Puts.
func (cy *cycle) preload(objs []object, classes []string) {
	cy.objs = append(cy.objs, objs...)
	cy.putWall += cy.measure(classes, func() {
		closedLoop(clients(), len(objs), func(w, i int) { cy.put(w, objs[i]) })
	})
}

// verify reads every object whole under the current failure set.
func (cy *cycle) verify(zeroed map[string]map[int]bool, sample bool) {
	if sample {
		runtime.GC() // as in measure: time the Gets, not earlier garbage
	}
	chk := newChecker(cy.b.code, cy.failed)
	closedLoop(clients(), len(cy.objs), func(w, i int) {
		o := cy.objs[i]
		cy.get(w, o, chk, zeroed[o.name], sample)
	})
}

// recordStored measures the storage cost of everything put so far.
func (cy *cycle) recordStored() {
	var user int64
	cy.stripes = 0
	for _, o := range cy.objs {
		user += o.bytes
		if n, ok := cy.st.ObjectStripes(o.name); ok {
			cy.stripes += int64(n)
		}
	}
	stored := cy.st.Stats().StoredBytes
	if cy.storedBytes != nil {
		stored = cy.storedBytes()
	}
	cy.storedRatio = float64(stored) / float64(user)
}

// failPair fails the degraded pattern's nodes.
func (cy *cycle) failPair() error {
	if err := cy.st.FailNodes(cy.b.pair...); err != nil {
		return fmt.Errorf("fail nodes %v: %w", cy.b.pair, err)
	}
	cy.failed = cy.b.pair
	return nil
}

// drill ends every cycle: with the pair failed, RepairAll rebuilds
// the nodes; the repair's losses are validated and every object is
// read back against them.
func (cy *cycle) drill() error {
	if cy.failed == nil {
		if err := cy.failPair(); err != nil {
			return err
		}
	}
	chk := newChecker(cy.b.code, cy.failed)
	sp, id := cy.span("RepairAll")
	t0 := time.Now()
	rep, err := cy.st.RepairAll()
	cy.repairTime = time.Since(t0)
	sp.End(obs.A("op", id))
	cy.attempted.Add(1)
	if err != nil {
		return fmt.Errorf("repair: %w", err)
	}
	cy.repair = rep
	zeroed, err := chk.repairLosses(cy.objs, rep.LostSegments)
	if err != nil {
		cy.fail(err)
	}
	cy.failed = nil
	cy.verify(zeroed, false)
	return nil
}

// tempDir makes a directory under the run's scratch root, removed at
// the end of the cycle.
func (cy *cycle) tempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(cy.b.tmp, prefix)
	if err != nil {
		return "", err
	}
	cy.cleanup(func() { os.RemoveAll(dir) })
	return dir, nil
}

// closedLoop runs ops 0..n-1 on workers goroutines. Each worker takes
// the next op only after its previous one returned, as an ingest
// pipeline or a CDN edge fetcher waits for its reply.
func closedLoop(workers, n int, op func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// recorder keeps latency samples per worker, so recording never
// contends: worker w owns per[w].
type recorder struct {
	per [][]time.Duration
}

// newRecorder has a slot per client plus one, for remote's reader
// when a single client would otherwise share it with the writer.
func newRecorder() recorder { return recorder{per: make([][]time.Duration, clients()+1)} }

func (r *recorder) add(w int, d time.Duration) { r.per[w] = append(r.per[w], d) }

func (r *recorder) all() []time.Duration {
	var out []time.Duration
	for _, s := range r.per {
		out = append(out, s...)
	}
	return out
}
