package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"approxcode/internal/chaos"
	netio "approxcode/internal/net"
	"approxcode/internal/obs"
	"approxcode/internal/store"
	"approxcode/internal/tier"
)

// workload runs one cycle's set-up, traffic, verification and repair
// drill on cy.
type workload func(cy *cycle) error

var workloads = map[string]workload{
	"ingest":   ingest,
	"playback": playback,
	"degraded": degraded,
	"remote":   remote,
}

// Sizes per cycle. A cycle is a fixed amount of work, so every cycle
// of every seed measures the same thing.
const (
	ingestClips   = 24 // clips Put per round into a fresh journaled store
	catalogClips  = 16 // preloaded catalog of playback and degraded
	remoteCatalog = 8  // preloaded catalog remote reads from
	playbackOps   = 4000
	playbackTick  = 500 // tier.Manager.Tick every this many ops
	playbackGetPc = 10  // percent of playback ops that Get a whole object
	cacheBytes    = 2 << 20
	maxHot        = 4
	zipfS         = 1.1
	degradedOps   = 3000
	remotePuts    = 16 // fresh clips Put per cycle over the network
	remoteServers = 4
)

var (
	classPut  = []string{"put"}
	classRead = []string{"read"}
	classBoth = []string{"put", "read"}
)

// ingest: clients Put a round of fresh clips into a fresh journaled
// store (default group commit), then read every segment back. It is the
// write path — encode, placement, column pool, CRCs, journal — with no
// read plans, tiering or network.
func ingest(cy *cycle) error {
	var objs []object
	if err := cy.setup(func() error {
		objs = makeObjects(cy.b.pool, "clip", cy.seed(), ingestClips)
		dir, err := cy.tempDir("journal-")
		if err != nil {
			return err
		}
		st, _, err := store.OpenDurable(dir, cy.storeConfig())
		if err != nil {
			return err
		}
		cy.open(st)
		return nil
	}); err != nil {
		return err
	}
	cy.preload(objs, classPut)
	cy.recordStored()
	chk := newChecker(cy.b.code, nil)
	cy.readWall += cy.measure(classRead, func() {
		closedLoop(clients(), len(objs)*clipFrames, func(w, i int) {
			cy.getSegment(w, objs[i/clipFrames], i%clipFrames, chk)
		})
	})
	cy.verify(nil, true)
	return cy.drill()
}

// catalog sets up a fresh store from cfg and preloads the catalog
// with timed Puts.
func catalog(cy *cycle, cfg store.Config) error {
	var objs []object
	if err := cy.setup(func() error {
		objs = makeObjects(cy.b.pool, "video", cy.seed(), catalogClips)
		st, err := store.Open(cfg)
		if err != nil {
			return err
		}
		cy.open(st)
		return nil
	}); err != nil {
		return err
	}
	cy.preload(objs, classPut)
	cy.recordStored()
	return nil
}

// zipfKeys draws n object indexes from Zipf(zipfS) over m objects.
func zipfKeys(rng *rand.Rand, m, n int) []int {
	z := rand.NewZipf(rng, zipfS, 1, uint64(m-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// playback: a Zipf(1.1) stream of GetSegment (90%) and whole-object
// Get (10%) over a healthy catalog with popularity tiering on. The
// tier.Manager ticks every playbackTick ops, promoting the head to the
// hot tier, whose decoded segments the cache serves. The cache holds
// well under the hot tier's bytes. It is the read path — cache,
// partial reads, sub-block CRCs — with no encode, journal or decode.
func playback(cy *cycle) error {
	tracker := tier.NewTracker(0.5)
	cfg := cy.storeConfig()
	cfg.CacheBytes = cacheBytes
	cfg.Tracker = tracker
	if err := catalog(cy, cfg); err != nil {
		return err
	}
	mgr := &tier.Manager{
		Tracker: tracker,
		// Cold objects drop their global parity, so the drill's node
		// pair would take their I frames with it; the cold tier is
		// left out to keep one failure rule for every workload.
		Policy: tier.Policy{MaxHot: maxHot, HotMinRate: 0.02 * playbackTick, ColdMaxRate: -1},
		Store:  cy.st,
		OnError: func(name string, to tier.Level, err error) {
			cy.fail(fmt.Errorf("migrate %s to %s: %w", name, to, err))
		},
	}
	rng := rand.New(rand.NewSource(cy.seed()))
	keys := zipfKeys(rng, len(cy.objs), playbackOps)
	segs := make([]int, playbackOps)
	whole := make([]bool, playbackOps)
	for i := range segs {
		segs[i] = rng.Intn(clipFrames)
		whole[i] = rng.Intn(100) < playbackGetPc
	}
	chk := newChecker(cy.b.code, nil)
	var mu sync.Mutex // one Tick at a time
	cy.readWall += cy.measure(classRead, func() {
		closedLoop(clients(), playbackOps, func(w, i int) {
			if i > 0 && i%playbackTick == 0 {
				mu.Lock()
				sp, id := cy.span("Tick")
				mgr.Tick()
				sp.End(obs.A("op", id))
				mu.Unlock()
			}
			o := cy.objs[keys[i]]
			if whole[i] {
				cy.get(w, o, chk, nil, true)
				return
			}
			cy.getSegment(w, o, segs[i], chk)
		})
	})
	cy.recordStored()
	cy.verify(nil, true)
	return cy.drill()
}

// degraded: two nodes of one local group are down — beyond r for P/B
// frames, within r+g for I frames — and clients read uniformly random
// segments, then RepairAll rebuilds the nodes. It is decode, the plan
// cache, the read-plan fallbacks and the repair orchestrator, with the
// only approximate outcomes.
func degraded(cy *cycle) error {
	if err := catalog(cy, cy.storeConfig()); err != nil {
		return err
	}
	if err := cy.failPair(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cy.seed()))
	keys := make([]int, degradedOps)
	for i := range keys {
		keys[i] = rng.Intn(len(cy.objs) * clipFrames)
	}
	chk := newChecker(cy.b.code, cy.failed)
	cy.readWall += cy.measure(classRead, func() {
		closedLoop(clients(), degradedOps, func(w, i int) {
			k := keys[i]
			cy.getSegment(w, cy.objs[k/clipFrames], k%clipFrames, chk)
		})
	})
	cy.verify(nil, true)
	return cy.drill()
}

// remote: the store's backend is a netio.Client talking over loopback
// to in-process DataNode servers on MemBackend. Half the clients Put a
// fixed round of fresh clips while the other half read Zipf(1.1)
// segments of the preloaded catalog until the round is done. It is the
// only workload that exercises net: framing, copies, syscalls,
// connection pools and the edge retry/hedge stack.
func remote(cy *cycle) error {
	var fresh []object
	var stored atomic.Int64
	if err := cy.setup(func() error {
		objs := makeObjects(cy.b.pool, "video", cy.seed(), remoteCatalog+remotePuts)
		cy.objs, fresh = objs[:remoteCatalog], objs[remoteCatalog:]
		addrs := make(map[int]string, cy.b.code.TotalShards())
		servers := make([]*netio.Server, remoteServers)
		for i := range servers {
			srv, err := netio.NewServer(netio.ServerConfig{
				Listen:  "127.0.0.1:0",
				Backend: &countingBackend{MemBackend: netio.NewMemBackend(), written: &stored},
				Obs:     cy.reg,
			})
			if err != nil {
				return err
			}
			cy.cleanup(func() { srv.Close() })
			servers[i] = srv
		}
		for n := 0; n < cy.b.code.TotalShards(); n++ {
			addrs[n] = servers[n%remoteServers].Addr()
		}
		client, err := netio.Dial(netio.ClientConfig{
			Nodes: addrs,
			Retry: netio.RetryPolicy{Seed: cy.seed()},
			Obs:   cy.reg,
		})
		if err != nil {
			return err
		}
		cy.cleanup(func() { client.Close() })
		cfg := cy.storeConfig()
		cfg.Backend = client
		if cy.reg != nil {
			cfg.Backend = &timedIO{client: client, reg: cy.reg}
		}
		st, err := store.Open(cfg)
		if err != nil {
			return err
		}
		cy.open(st)
		cy.storedBytes = stored.Load
		closedLoop(clients(), len(cy.objs), func(w, i int) {
			if err := st.Put(cy.objs[i].name, cy.objs[i].segs); err != nil {
				cy.fail(fmt.Errorf("preload %s: %w", cy.objs[i].name, err))
			}
		})
		return nil
	}); err != nil {
		return err
	}
	catalogObjs := cy.objs
	rng := rand.New(rand.NewSource(cy.seed()))
	// Enough keys that readers never run out before the writers finish.
	keys := zipfKeys(rng, len(catalogObjs), 1<<16)
	segs := make([]int, len(keys))
	for i := range segs {
		segs[i] = rng.Intn(clipFrames)
	}
	writers := clients() / 2
	if writers < 1 {
		writers = 1
	}
	readers := clients() - writers
	if readers < 1 {
		readers = 1
	}
	chk := newChecker(cy.b.code, nil)
	wall := cy.measure(classBoth, func() {
		var done atomic.Bool
		var next atomic.Int64
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for !done.Load() {
					i := int(next.Add(1)-1) % len(keys)
					cy.getSegment(w, catalogObjs[keys[i]], segs[i], chk)
				}
			}(writers + r)
		}
		closedLoop(writers, len(fresh), func(w, i int) { cy.put(w, fresh[i]) })
		done.Store(true)
		wg.Wait()
	})
	cy.putWall += wall
	cy.readWall += wall
	cy.objs = append(cy.objs, fresh...)
	cy.recordStored()
	cy.verify(nil, true)
	return cy.drill()
}

// countingBackend is a DataNode's MemBackend that counts the column
// bytes written to it: the networked store's stored bytes.
type countingBackend struct {
	*netio.MemBackend
	written *atomic.Int64
}

func (c *countingBackend) WriteColumn(node int, object string, stripe int, data []byte) error {
	if err := c.MemBackend.WriteColumn(node, object, stripe, data); err != nil {
		return err
	}
	c.written.Add(int64(len(data)))
	return nil
}

// The DataNode serves ReadAt from its backend only when the backend is
// a PartialReader; the wrapper must keep the embedded method.
var _ chaos.PartialReader = (*countingBackend)(nil)
