package netio

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/chaos/chaostest"
	"approxcode/internal/colstore"
	"approxcode/internal/core"
	"approxcode/internal/store"
	"approxcode/internal/tier"
)

// storedCol names one column held by a DataNode backend.
type storedCol struct {
	node   int
	object string
	stripe int
}

// tierNet is a live deployment for tier tests: DataNodes on
// MemBackends behind chaos proxies, and a store over a network client.
// backendOf maps each node to the backend that holds it, so the test
// can look at what the DataNodes really store.
type tierNet struct {
	store     *store.Store
	client    *Client
	backendOf map[int]*colstore.MemBackend
	code      *core.Code
}

func newTierNet(t *testing.T, params core.Params, inj *chaos.Injector, tracker *tier.Tracker) *tierNet {
	t.Helper()
	code, err := core.New(params)
	if err != nil {
		t.Fatal(err)
	}
	const nServers = 4
	split := nodeSplit(code.TotalShards(), nServers)
	tn := &tierNet{backendOf: make(map[int]*colstore.MemBackend), code: code}
	routes := make(map[int]string, code.TotalShards())
	for i := 0; i < nServers; i++ {
		backend := colstore.NewMemBackend()
		srv, err := NewServer(ServerConfig{Backend: backend, Nodes: split[i]})
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		t.Cleanup(func() { srv.Close() })
		proxy, err := NewChaosProxy("127.0.0.1:0", srv.Addr(), inj, nil)
		if err != nil {
			t.Fatalf("proxy %d: %v", i, err)
		}
		t.Cleanup(func() { proxy.Close() })
		for _, node := range split[i] {
			routes[node] = proxy.Addr()
			tn.backendOf[node] = backend
		}
	}
	tn.client, err = Dial(ClientConfig{
		Nodes: routes,
		Retry: RetryPolicy{
			Seed:        11,
			OpDeadline:  250 * time.Millisecond,
			HedgeDelay:  2 * time.Millisecond,
			DialTimeout: 100 * time.Millisecond,
		},
		Health: HealthPolicy{ProbeAfter: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { tn.client.Close() })
	tn.store, err = store.Open(store.Config{
		Code:     params,
		NodeSize: 3 * 512,
		Backend:  tn.client,
		Tracker:  tracker,
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return tn
}

// inventory lists every column the DataNodes hold.
func (tn *tierNet) inventory() map[storedCol]int {
	out := make(map[storedCol]int)
	for node, b := range tn.backendOf {
		for object, cols := range b.ExportNode(node) {
			for stripe, col := range cols {
				if col != nil {
					out[storedCol{node, object, stripe}] = len(col)
				}
			}
		}
	}
	return out
}

// objectCols is the inventory restricted to columns of the named
// object's redundancy: its own columns plus any column whose key
// extends the name (the store's hot-tier shadow replicas).
func objectCols(inv map[storedCol]int, name string) map[storedCol]int {
	out := make(map[storedCol]int)
	for c, n := range inv {
		if len(c.object) >= len(name) && c.object[:len(name)] == name {
			out[c] = n
		}
	}
	return out
}

// wantGone asserts every listed column reads back as missing, both
// from the DataNode's backend and through the client over the wire —
// a deleted column, not a zero-length one.
func (tn *tierNet) wantGone(t *testing.T, cols []storedCol, what string) {
	t.Helper()
	if len(cols) == 0 {
		t.Fatalf("%s: nothing to check", what)
	}
	for _, c := range cols {
		if got, err := tn.backendOf[c.node].ReadColumn(c.node, c.object, c.stripe); !errors.Is(err, chaos.ErrColumnMissing) {
			t.Fatalf("%s: backend still holds %q/%d on node %d: %d bytes, %v", what, c.object, c.stripe, c.node, len(got), err)
		}
		if got, err := tn.client.ReadColumn(c.node, c.object, c.stripe); !errors.Is(err, chaos.ErrColumnMissing) {
			t.Fatalf("%s: client reads %q/%d on node %d: %d bytes, %v", what, c.object, c.stripe, c.node, len(got), err)
		}
	}
}

func (tn *tierNet) wantTier(t *testing.T, name string, want tier.Level) {
	t.Helper()
	if got, ok := tn.store.ObjectTier(name); !ok || got != want {
		t.Fatalf("%s tier = %v (%v), want %v", name, got, ok, want)
	}
}

// TestChaosNetTierMigration runs tier migrations against live DataNodes
// behind fault-injecting proxies: explicit warm→hot→warm→cold→warm
// moves of one object, then tier.Manager ticks over a small catalog.
// Every read is exact or flagged; every layout change is visible on the
// DataNodes, and retired replicas and global parity read back as
// missing columns.
func TestChaosNetTierMigration(t *testing.T) {
	params := core.Params{Family: core.FamilyRS, K: 3, R: 1, G: 2, H: 3, Structure: core.Uneven}
	// Read faults only, on nodes of different local groups: a cold
	// object (local parity only) must still read exactly.
	rules, err := chaos.ParseSchedule("node=2,op=read,fault=transient,rate=0.2;" +
		"node=4,op=read,fault=corrupt,bytes=1,rate=0.3;" +
		"node=9,op=read,fault=latency,latency=1ms,rate=0.3")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.NewInjector(13, rules...)
	tracker := tier.NewTracker(0.5)
	tn := newTierNet(t, params, inj, tracker)
	s := tn.store

	const name = "video"
	segs := chaostest.GenSegments(14, 12, 4)
	if err := s.Put(name, segs); err != nil {
		t.Fatalf("put: %v", err)
	}
	stripes, _ := s.ObjectStripes(name)
	warm := objectCols(tn.inventory(), name)
	if want := stripes * tn.code.TotalShards(); len(warm) != want {
		t.Fatalf("warm layout holds %d columns, want %d", len(warm), want)
	}
	var globals []storedCol
	for c := range warm {
		if tn.code.Role(c.node) == core.RoleGlobalParity {
			globals = append(globals, c)
		}
	}
	chaostest.CheckRead(t, s, name, segs, false, nil, "warm read")

	// Warm -> Hot: one replica per data column appears on the nodes.
	if err := s.MigrateObject(name, tier.Hot); err != nil {
		t.Fatalf("warm->hot: %v", err)
	}
	tn.wantTier(t, name, tier.Hot)
	hot := objectCols(tn.inventory(), name)
	var replicas []storedCol
	for c := range hot {
		if c.object != name {
			replicas = append(replicas, c)
		}
	}
	if want := stripes * len(tn.code.DataNodeIndexes()); len(replicas) != want {
		t.Fatalf("hot layout has %d replica columns, want %d", len(replicas), want)
	}
	chaostest.CheckRead(t, s, name, segs, false, nil, "hot read")

	// Hot -> Warm: the replicas are deleted, not emptied.
	if err := s.MigrateObject(name, tier.Warm); err != nil {
		t.Fatalf("hot->warm: %v", err)
	}
	tn.wantTier(t, name, tier.Warm)
	tn.wantGone(t, replicas, "hot->warm replicas")
	if got := objectCols(tn.inventory(), name); len(got) != len(warm) {
		t.Fatalf("warm again holds %d columns, want %d", len(got), len(warm))
	}
	chaostest.CheckRead(t, s, name, segs, false, nil, "warm-again read")

	// Warm -> Cold: the global parity columns are deleted.
	if err := s.MigrateObject(name, tier.Cold); err != nil {
		t.Fatalf("warm->cold: %v", err)
	}
	tn.wantTier(t, name, tier.Cold)
	tn.wantGone(t, globals, "warm->cold global parity")
	if got := objectCols(tn.inventory(), name); len(got) != len(warm)-len(globals) {
		t.Fatalf("cold layout holds %d columns, want %d", len(got), len(warm)-len(globals))
	}
	chaostest.CheckRead(t, s, name, segs, false, nil, "cold read")

	// Cold -> Warm: global parity re-derived over the wire; scrub checks
	// the parity relations of every stripe end to end.
	if err := s.MigrateObject(name, tier.Warm); err != nil {
		t.Fatalf("cold->warm: %v", err)
	}
	tn.wantTier(t, name, tier.Warm)
	if got := objectCols(tn.inventory(), name); len(got) != len(warm) {
		t.Fatalf("warm after cold holds %d columns, want %d", len(got), len(warm))
	}
	chaostest.CheckRead(t, s, name, segs, false, nil, "cold->warm read")
	inj.ClearAll()
	if rep, err := s.Scrub(); err != nil || len(rep.Corrupt) != 0 || rep.StripesSkipped != 0 {
		t.Fatalf("scrub after cold->warm: %+v %v", rep, err)
	}
	if st := s.Stats(); st.TierPromotions != 2 || st.TierDemotions != 2 {
		t.Fatalf("promotions=%d demotions=%d, want 2/2", st.TierPromotions, st.TierDemotions)
	}
	inj.AddRules(rules...)

	// Manager ticks over a catalog: the popular clip goes hot, the
	// idle ones cold; then popularity moves and the tiers follow.
	clips := make(map[string][]store.Segment)
	for i := 0; i < 3; i++ {
		clip := fmt.Sprintf("clip-%d", i)
		clips[clip] = chaostest.GenSegments(int64(20+i), 9, 3)
		if err := s.Put(clip, clips[clip]); err != nil {
			t.Fatalf("put %s: %v", clip, err)
		}
	}
	mgr := &tier.Manager{
		Tracker: tracker,
		Policy:  tier.Policy{MaxHot: 1, HotMinRate: 2, ColdMaxRate: 1},
		Store:   s,
		OnError: func(name string, to tier.Level, err error) {
			t.Errorf("manager: %s -> %v: %v", name, to, err)
		},
	}
	touch := func(clip string, n int) {
		for i := 0; i < n; i++ {
			if _, err := s.GetSegment(clip, i%len(clips[clip])); err != nil {
				t.Fatalf("GetSegment %s: %v", clip, err)
			}
		}
	}
	// Rates after the first sample: clip-0 8 (hot), clip-1 3 (warm:
	// the one hot slot is taken), clip-2 1 (cold). The explicitly
	// migrated object leaves the manager's view.
	touch("clip-0", 8)
	touch("clip-1", 3)
	touch("clip-2", 1)
	tracker.Forget(name)
	if got := mgr.Tick(); got != 2 {
		t.Fatalf("first tick migrated %d objects, want 2", got)
	}
	tn.wantTier(t, "clip-0", tier.Hot)
	tn.wantTier(t, "clip-1", tier.Warm)
	tn.wantTier(t, "clip-2", tier.Cold)
	var clip0Replicas []storedCol
	for c := range objectCols(tn.inventory(), "clip-0") {
		if c.object != "clip-0" {
			clip0Replicas = append(clip0Replicas, c)
		}
	}
	for clip, want := range clips {
		chaostest.CheckRead(t, s, clip, want, false, nil, "after first tick: "+clip)
	}

	// clip-2 becomes the hot one (cold -> hot) and clip-0 loses the
	// hot slot (hot -> warm). Each read above touched each clip once.
	touch("clip-2", 40)
	if got := mgr.Tick(); got != 2 {
		t.Fatalf("second tick migrated %d objects, want 2", got)
	}
	tn.wantTier(t, "clip-2", tier.Hot)
	tn.wantTier(t, "clip-0", tier.Warm)
	tn.wantTier(t, "clip-1", tier.Warm)
	tn.wantGone(t, clip0Replicas, "manager demotion of clip-0")
	for clip, want := range clips {
		chaostest.CheckRead(t, s, clip, want, false, nil, "after second tick: "+clip)
	}
	chaostest.CheckRead(t, s, name, segs, false, nil, "final read")
	if st := inj.Stats(); st.Transients == 0 || st.CorruptReads == 0 {
		t.Fatalf("schedule injected too little: %+v", st)
	}
}
