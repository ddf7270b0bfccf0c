// Storageserver: the complete Approximate Storage Layer (paper Fig. 6)
// in action — serialize a synthetic video into the AGOP container,
// parse it back through the data identification module, ingest into the
// concurrent store, crash nodes, serve degraded reads, repair in
// parallel, and route unrecoverable P/B frames to interpolation.
//
// With -listen the demo keeps running afterwards and serves the store's
// observability surface over HTTP:
//
//	storageserver -listen :9090 -chaos "fault=transient,rate=0.2" -seed 7
//	curl localhost:9090/metrics          # Prometheus text format
//	curl localhost:9090/debug/vars       # expvar JSON
//	go tool pprof localhost:9090/debug/pprof/profile?seconds=5
//
// With -master the store's backend is a netio.Client: columns live on
// remote apprnode DataNodes discovered through the master's node map,
// and the whole pipeline — ingest, node failure, degraded reads,
// repair — runs over live TCP (see the README multi-process
// quick-start).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"approxcode/internal/chaos"
	"approxcode/internal/core"
	netio "approxcode/internal/net"
	"approxcode/internal/obs"
	"approxcode/internal/place"
	"approxcode/internal/store"
	"approxcode/internal/tier"
	"approxcode/internal/video"
)

var (
	listenFlag = flag.String("listen", "", "serve /metrics, /debug/vars and /debug/pprof on this address and keep running (e.g. :9090)")
	chaosFlag  = flag.String("chaos", "", "fault-injection schedule DSL wrapped around node I/O (e.g. \"fault=transient,rate=0.2\")")
	seedFlag   = flag.Int64("seed", 1, "seed for fault injection and retry jitter")
	traceFlag  = flag.Bool("trace", false, "stream span events (one line per store operation) to stderr")
	dirFlag    = flag.String("dir", "", "durable store directory: journal every mutation and demo a kill-and-recover after the repair (empty = in-memory)")
	masterFlag = flag.String("master", "", "apprnode master address: store columns on remote DataNodes from its node map instead of in-memory nodes")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		// A bind failure is a configuration error, not a runtime fault:
		// report which role failed to bind where and exit distinctly.
		var be *netio.BindError
		if errors.As(err, &be) {
			fmt.Fprintf(os.Stderr, "storageserver: %v\n", be)
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// rackLossDrill ingests the clip into a rack-aware store (three racks,
// LRC groups rack-local, globals spread), certifies the layout with the
// placement checker, kills one whole rack, and proves the important
// tier reads back byte-exact through the loss.
func rackLossDrill(segs []store.Segment, reg *obs.Registry, seed int64) error {
	p := core.Params{Family: core.FamilyRS, K: 2, R: 1, G: 2, H: 3, Structure: core.Uneven}
	topo, err := place.ForParams(p, place.Spec{Racks: 3, Zones: 3})
	if err != nil {
		return err
	}
	st, err := store.Open(store.Config{
		Code:     p,
		NodeSize: 3 * 8192,
		Obs:      reg,
		Retry:    store.RetryPolicy{Seed: seed},
		Topology: topo,
	})
	if err != nil {
		return err
	}
	prep := st.PlacementReport()
	fmt.Printf("rack drill: %d nodes over %d racks, rack-safe=%v groups-rack-local=%v\n",
		topo.N(), len(topo.Racks()), prep.RackSafe, prep.GroupsRackLocal)
	if err := st.Put("clip", segs); err != nil {
		return err
	}
	rack := topo.RackOf(0) // the rack holding the important group
	if err := st.FailNodes(topo.NodesInRack(rack)...); err != nil {
		return err
	}
	got, rep, err := st.Get("clip")
	if err != nil {
		return err
	}
	lost := make(map[int]bool, len(rep.LostSegments))
	for _, id := range rep.LostSegments {
		lost[id] = true
	}
	for i, g := range got {
		w := segs[i]
		if w.Important && (lost[w.ID] || !bytes.Equal(g.Data, w.Data)) {
			return fmt.Errorf("rack drill: important segment %d damaged by losing rack %s", w.ID, rack)
		}
	}
	rrep, err := st.RepairAll()
	if err != nil {
		return err
	}
	fmt.Printf("rack drill: lost rack %s (%d nodes), 0 important segments lost, %d degraded sub-reads; rebuild moved %d cross-rack bytes\n",
		rack, len(topo.NodesInRack(rack)), rep.DegradedSubReads, rrep.BytesReadCrossRack)
	return nil
}

func run() error {
	// The demo always runs with a live registry so every step below
	// lands in the histograms the HTTP endpoint exports.
	reg := obs.NewRegistry(true)
	if *traceFlag {
		reg.SetSpanSink(obs.NewWriterSink(log.Writer()))
	}

	// Bind the observability listener before doing any work: a bad
	// -listen address fails the run up front as a typed *BindError
	// instead of surfacing from a background goroutine mid-demo.
	var obsLn net.Listener
	if *listenFlag != "" {
		ln, err := net.Listen("tcp", *listenFlag)
		if err != nil {
			return &netio.BindError{Role: "metrics", Addr: *listenFlag, Err: err}
		}
		obsLn = ln
		obs.ServeOn(obsLn, reg, func(err error) { log.Printf("metrics server: %v", err) })
		fmt.Printf("serving metrics and pprof on %s\n", obsLn.Addr())
	}

	// 1. A video arrives as a bitstream container.
	stream, err := video.Generate(video.DefaultConfig(), 300)
	if err != nil {
		return err
	}
	var container bytes.Buffer
	if err := video.WriteStream(&container, stream); err != nil {
		return err
	}
	fmt.Printf("container: %d bytes for %d frames\n", container.Len(), len(stream.Frames))

	// 2. The identification module parses it and tags I frames important.
	info, frames, err := video.ParseStream(&container)
	if err != nil {
		return err
	}
	fmt.Printf("parsed: %dx%d @ %d fps, %d frames\n", info.Width, info.Height, info.FPS, info.FrameCount)
	segs := make([]store.Segment, len(frames))
	for i, f := range frames {
		segs[i] = store.Segment{ID: f.Index, Important: f.Important(), Data: f.Payload}
	}

	// 3. Ingest into the storage layer (parallel stripe encoding),
	// optionally with a chaos injector between the store and its nodes
	// so the self-healing counters have something to count.
	tracker := tier.NewTracker(0.5)
	cfg := store.Config{
		Code: core.Params{
			Family: core.FamilyRS, K: 5, R: 1, G: 2, H: 6, Structure: core.Even,
		},
		NodeSize:   6 * 8192,
		Obs:        reg,
		Retry:      store.RetryPolicy{Seed: *seedFlag},
		CacheBytes: 16 << 20,
		Tracker:    tracker,
	}
	var inj *chaos.Injector
	if *chaosFlag != "" {
		if *masterFlag != "" {
			return fmt.Errorf("-chaos and -master are mutually exclusive: fault-inject the transport with a netio.ChaosProxy in front of the DataNodes instead")
		}
		rules, err := chaos.ParseSchedule(*chaosFlag)
		if err != nil {
			return err
		}
		inj = chaos.NewInjector(*seedFlag, rules...)
		cfg.WrapIO = inj.Wrap
	}

	// With -master the backend is a network client over the master's
	// node map: the client owns retries/hedging at the network edge,
	// the store takes its single-attempt path.
	if *masterFlag != "" {
		if *dirFlag != "" {
			return fmt.Errorf("-dir and -master are mutually exclusive: with remote DataNodes durability lives on the nodes")
		}
		client, err := netio.Dial(netio.ClientConfig{
			Master: *masterFlag,
			Retry:  netio.RetryPolicy{Seed: *seedFlag},
			Obs:    reg,
		})
		if err != nil {
			return fmt.Errorf("dial master %s: %w", *masterFlag, err)
		}
		defer client.Close()
		c, err := core.New(cfg.Code)
		if err != nil {
			return err
		}
		if got, total := len(client.Nodes()), c.TotalShards(); got < total {
			return fmt.Errorf("master knows %d node(s), the code needs %d: start more apprnode data processes", got, total)
		}
		cfg.Backend = client
		fmt.Printf("networked: %d DataNode columns via master %s\n", len(client.Nodes()), *masterFlag)
	}

	var st *store.Store
	if *dirFlag != "" {
		var rec *store.RecoverReport
		st, rec, err = store.OpenDurable(*dirFlag, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("durable store at %s: generation %d, %d journal ops replayed\n",
			*dirFlag, rec.Generation, rec.ReplayedOps)
	} else {
		st, err = store.Open(cfg)
		if err != nil {
			return err
		}
	}
	exists := false
	for _, name := range st.Objects() {
		exists = exists || name == "clip"
	}
	if exists {
		fmt.Println("object clip survived a previous run; skipping ingest")
	} else if err := st.Put("clip", segs); err != nil {
		return err
	}
	if *masterFlag != "" {
		// Publish the object to the master's catalog so `apprnode
		// status` sees what the cluster holds.
		stripes, _ := st.ObjectStripes("clip")
		if err := netio.ReportObject(*masterFlag, "clip", stripes, 0); err != nil {
			return fmt.Errorf("report object: %w", err)
		}
	}
	stats := st.Stats()
	fmt.Printf("stored: %d object(s) on %d nodes, %d bytes incl. parity (overhead %.3fx)\n",
		stats.Objects, stats.Nodes, stats.StoredBytes, st.Code().StorageOverhead())

	// 4. Crash two data nodes of one local stripe (beyond r=1 for the
	// unimportant tier) and serve a degraded read. With -master this is
	// the administrative fail set — the store plans reads around the
	// nodes without asking the network.
	dn := st.Code().DataNodeIndexes()
	if err := st.FailNodes(dn[0], dn[1]); err != nil {
		return err
	}
	got, rep, err := st.Get("clip")
	if err != nil {
		return err
	}
	fmt.Printf("degraded read: %d segments served, %d unrecoverable P/B segments\n",
		len(got), len(rep.LostSegments))
	for _, id := range rep.LostSegments {
		if stream.Frames[id].Kind == video.FrameI {
			return fmt.Errorf("an important segment was lost")
		}
	}

	// 5. Parallel repair onto replacement nodes.
	rrep, err := st.RepairAll()
	if err != nil {
		return err
	}
	fmt.Printf("repair: %d stripes, %d bytes rebuilt, %d segments abandoned to fuzzy recovery\n",
		rrep.StripesRepaired, rrep.BytesRebuilt, len(rrep.LostSegments["clip"]))

	// 5b. With -dir, simulate a process kill: throw the live store away
	// and rebuild it from the directory alone — the snapshot generation
	// plus the journal, including the repair's checkpoints.
	if *dirFlag != "" {
		if err := st.Close(); err != nil {
			return err
		}
		st, _, err = store.Recover(*dirFlag, store.LoadOptions{
			Lenient:    true,
			Retry:      store.RetryPolicy{Seed: *seedFlag},
			Obs:        reg,
			WrapIO:     cfg.WrapIO,
			CacheBytes: cfg.CacheBytes,
			Tracker:    tracker,
		})
		if err != nil {
			return err
		}
		if _, _, err := st.Get("clip"); err != nil {
			return err
		}
		fmt.Printf("kill-and-recover: store rebuilt from %s, failed nodes %v, clip still serves\n",
			*dirFlag, st.FailedNodes())
	}

	// 6. Fuzzy recovery of the abandoned frames.
	lost := make(map[int]bool)
	for _, id := range rrep.LostSegments["clip"] {
		lost[id] = true
	}
	if len(lost) > 0 {
		res, err := stream.RecoverLost(lost)
		if err != nil {
			return err
		}
		fmt.Printf("interpolation: %d frames re-synthesized, mean PSNR %.2f dB\n",
			len(res.Frames), res.MeanPSNR)
	} else {
		fmt.Println("interpolation: nothing to do (losses fell on padding)")
	}

	// 7. Scrub confirms parity consistency end to end.
	scrub, err := st.Scrub()
	if err != nil {
		return err
	}
	fmt.Printf("scrub: %d stripes checked, %d corrupt\n", scrub.StripesChecked, len(scrub.Corrupt))

	// 7b. Rack-loss drill: a second store with a rack-survivable geometry
	// (K <= G) laid out by the topology-aware placer across three racks.
	// Failing every node of the rack holding the important group at once
	// — the correlated failure a ToR switch or a PDU causes — must leave
	// every I frame readable exact, with the decode falling back to the
	// global parities in the surviving racks.
	if err := rackLossDrill(segs, reg, *seedFlag); err != nil {
		return err
	}

	// 8. Popularity-adaptive tiering: every Get above fed the EWMA
	// tracker, so one manager tick classifies "clip" hot, migrates it to
	// replicated redundancy (journaled migrate-begin/commit, crash-safe),
	// and repeated segment reads then come from the decoded-GOP cache
	// without touching NodeIO. With -master the migration writes the
	// replicas to the remote DataNodes.
	mgr := &tier.Manager{
		Tracker: tracker,
		Policy:  tier.Policy{MaxHot: 1, HotMinRate: 1},
		Store:   st,
		OnError: func(name string, to tier.Level, err error) {
			log.Printf("tier: migrate %s to %s: %v", name, to, err)
		},
	}
	migrated := mgr.Tick()
	lvl, _ := st.ObjectTier("clip")
	for i := 0; i < 4; i++ {
		if _, err := st.GetSegment("clip", segs[0].ID); err != nil {
			return err
		}
	}
	ts := st.Stats()
	fmt.Printf("tiering: %d migration(s), clip is %s (%d promotions); cache hits=%d misses=%d\n",
		migrated, lvl, ts.TierPromotions, ts.CacheHits, ts.CacheMisses)

	final := st.Stats()
	fmt.Printf("telemetry: retries=%d hedges=%d read-errors=%d checksum-failures=%d shards-healed=%d\n",
		final.Retries, final.Hedges, final.ReadErrors, final.ChecksumFailures, final.ShardsHealed)
	if inj != nil {
		c := inj.Stats()
		fmt.Printf("chaos: %d faults injected\n", c.Total())
	}

	// 9. With -listen, keep serving reads so scrapes and profiles see a
	// live workload rather than a terminated process.
	if obsLn != nil {
		fmt.Println("demo complete; replaying Get(clip) forever (ctrl-c to stop)")
		for {
			if _, _, err := st.Get("clip"); err != nil {
				return err
			}
		}
	}
	return nil
}
