// Package chaostest drives full ingest → fault → degraded-read →
// repair → scrub cycles against a store under a seeded fault injector,
// asserting the storage layer's core robustness contract: every byte
// read back is either exactly what was written or explicitly flagged
// lost/approximate — never silently wrong.
package chaostest

import (
	"bytes"
	"math/rand"
	"testing"

	"approxcode/internal/chaos"
	"approxcode/internal/core"
	"approxcode/internal/place"
	"approxcode/internal/store"
)

// Scenario describes one chaos run.
type Scenario struct {
	// Seed drives the injector, the segment payloads, and the store's
	// retry jitter: the whole run is deterministic given the seed.
	Seed int64
	// Params is the code; zero value picks an RS(3,1,2) h=3 Uneven code.
	Params core.Params
	// NodeSize is the per-node column size (default 3*512).
	NodeSize int
	// Segments are ingested as object "video". Nil generates
	// NumSegments random ones.
	Segments []store.Segment
	// NumSegments / ImportantEvery shape generated segments (defaults
	// 12 and 4: every 4th segment is an I frame).
	NumSegments, ImportantEvery int
	// Rules and Schedule (parsed with chaos.ParseSchedule) compose the
	// injector's fault schedule.
	Rules    []chaos.Rule
	Schedule string
	// Topology labels the node slots with failure domains. It is bound
	// to the injector (resolving rack=/zone=/batch= schedule gates) and
	// threaded into the store's config (survival-invariant checking and
	// rack-local repair accounting). Nil runs the legacy flat layout.
	Topology *place.Topology
	// AllowUnsafePlacement opts the store out of the Put-time survival
	// assertion — for scenarios that deliberately run a violating
	// baseline to demonstrate the invariant failing.
	AllowUnsafePlacement bool
	// FailRacks crashes every node of the named racks after ingest
	// (resolved through Topology), modelling whole-rack power loss;
	// merged with FailNodes.
	FailRacks []string
	// Retry / Health configure the store's self-healing I/O.
	Retry  store.RetryPolicy
	Health store.HealthPolicy
	// FailNodes are crashed after ingest, before the first read.
	FailNodes []int
	// ClearBeforeRepair drops all injector rules before RepairAll —
	// modelling the faulty hardware being replaced — so the repair
	// itself runs clean.
	ClearBeforeRepair bool
	// AllowImportantLoss permits important segments in LostSegments
	// (for beyond-tolerance scenarios). Unimportant losses are always
	// permitted but must be flagged.
	AllowImportantLoss bool
	// Setup, when set, replaces the default store construction so the
	// same scenario runs against a different I/O stack — e.g. a store
	// whose backend is a network client talking to live DataNodes
	// fronted by transport-level chaos proxies sharing this injector.
	// It receives the defaulted scenario and the composed injector and
	// must return an opened store; register cleanup on t. The injector
	// is NOT wrapped around the store when Setup is set — routing every
	// op through it (in-process or on the wire) is Setup's job.
	Setup func(t testing.TB, sc Scenario, inj *chaos.Injector) *store.Store
}

// Outcome collects everything a test may want to assert on after Run.
type Outcome struct {
	Store     *store.Store
	Injector  *chaos.Injector
	Segments  []store.Segment
	FirstRead *store.GetReport
	Repair    *store.RepairReport
	Scrub     *store.ScrubReport
	FinalRead *store.GetReport
}

// GenSegments builds deterministic random segments.
func GenSegments(seed int64, n, importantEvery int) []store.Segment {
	rng := rand.New(rand.NewSource(seed))
	segs := make([]store.Segment, n)
	for i := range segs {
		data := make([]byte, 100+rng.Intn(400))
		rng.Read(data)
		segs[i] = store.Segment{ID: i, Important: i%importantEvery == 0, Data: data}
	}
	return segs
}

// RandomRules draws a bounded random fault schedule: up to maxRules
// rules over the given node count, spanning every fault kind with
// moderate rates. Crash rules are excluded (crashes are injected
// explicitly via Scenario.FailNodes so tolerance accounting stays
// exact).
func RandomRules(rng *rand.Rand, nodes, maxRules int) []chaos.Rule {
	kinds := []chaos.FaultKind{chaos.FaultTransient, chaos.FaultLatency, chaos.FaultCorrupt, chaos.FaultTorn}
	n := 1 + rng.Intn(maxRules)
	rules := make([]chaos.Rule, 0, n)
	for i := 0; i < n; i++ {
		r := chaos.Rule{
			Node:   rng.Intn(nodes),
			Stripe: chaos.Any,
			Kind:   kinds[rng.Intn(len(kinds))],
			Rate:   0.1 + 0.4*rng.Float64(),
		}
		switch r.Kind {
		case chaos.FaultLatency:
			r.Latency = 1 << 10 // ~1µs: visible, not slow
		case chaos.FaultCorrupt:
			r.Bytes = 1 + rng.Intn(3)
		case chaos.FaultTorn:
			r.Op = chaos.OpWrite
			r.KeepFraction = 0.25 + 0.5*rng.Float64()
		}
		rules = append(rules, r)
	}
	return rules
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Params == (core.Params{}) {
		sc.Params = core.Params{Family: core.FamilyRS, K: 3, R: 1, G: 2, H: 3, Structure: core.Uneven}
	}
	if sc.NodeSize == 0 {
		sc.NodeSize = 3 * 512
	}
	if sc.NumSegments == 0 {
		sc.NumSegments = 12
	}
	if sc.ImportantEvery == 0 {
		sc.ImportantEvery = 4
	}
	if sc.Retry.Seed == 0 {
		sc.Retry.Seed = sc.Seed
	}
	return sc
}

// Run executes the scenario: ingest, inject faults, degraded read,
// repair, scrub, final read — asserting after each read that every
// byte is exact or explicitly flagged. It returns the outcome for
// scenario-specific assertions.
func Run(t testing.TB, sc Scenario) *Outcome {
	t.Helper()
	sc = sc.withDefaults()
	rules := sc.Rules
	if sc.Schedule != "" {
		parsed, err := chaos.ParseSchedule(sc.Schedule)
		if err != nil {
			t.Fatalf("chaostest: %v", err)
		}
		rules = append(append([]chaos.Rule(nil), rules...), parsed...)
	}
	inj := chaos.NewInjector(sc.Seed, rules...)
	inj.SetTopology(sc.Topology)
	var s *store.Store
	if sc.Setup != nil {
		s = sc.Setup(t, sc, inj)
		if s == nil {
			t.Fatalf("chaostest: Setup returned no store")
		}
	} else {
		var err error
		s, err = store.Open(store.Config{
			Code:                 sc.Params,
			NodeSize:             sc.NodeSize,
			Retry:                sc.Retry,
			Health:               sc.Health,
			WrapIO:               inj.Wrap,
			Topology:             sc.Topology,
			AllowUnsafePlacement: sc.AllowUnsafePlacement,
		})
		if err != nil {
			t.Fatalf("chaostest: open: %v", err)
		}
	}
	segs := sc.Segments
	if segs == nil {
		segs = GenSegments(sc.Seed+1, sc.NumSegments, sc.ImportantEvery)
	}
	if err := s.Put("video", segs); err != nil {
		t.Fatalf("chaostest: put: %v", err)
	}
	fail := append([]int(nil), sc.FailNodes...)
	for _, rack := range sc.FailRacks {
		if sc.Topology == nil {
			t.Fatalf("chaostest: FailRacks needs a Topology")
		}
		nodes := sc.Topology.NodesInRack(rack)
		if len(nodes) == 0 {
			t.Fatalf("chaostest: rack %q has no nodes", rack)
		}
		fail = append(fail, nodes...)
	}
	if len(fail) > 0 {
		if err := s.FailNodes(fail...); err != nil {
			t.Fatalf("chaostest: fail nodes: %v", err)
		}
	}
	out := &Outcome{Store: s, Injector: inj, Segments: segs}

	out.FirstRead = CheckRead(t, s, "video", segs, sc.AllowImportantLoss, nil, "degraded read")

	if sc.ClearBeforeRepair {
		inj.ClearAll()
	}
	repair, err := s.RepairAll()
	if err != nil {
		t.Fatalf("chaostest: repair: %v", err)
	}
	out.Repair = repair
	out.Scrub, err = s.Scrub()
	if err != nil {
		t.Fatalf("chaostest: scrub: %v", err)
	}
	// Segments the repair abandoned (beyond-tolerance unimportant data,
	// zero-filled and re-encoded) were explicitly flagged in the repair
	// report; later reads return their zero bytes without degradation
	// flags, which still honours the exact-or-flagged contract.
	repairLost := make(map[int]bool)
	for _, id := range out.Repair.LostSegments["video"] {
		repairLost[id] = true
	}
	out.FinalRead = CheckRead(t, s, "video", segs, sc.AllowImportantLoss, repairLost, "final read")
	return out
}

// CheckRead performs a Get of the named object and enforces the
// exact-or-flagged contract against want. flagged is the set of
// segment IDs an earlier phase already reported lost (so zero-filled
// bytes are acceptable without fresh flags).
func CheckRead(t testing.TB, s *store.Store, name string, want []store.Segment, allowImportantLoss bool, flagged map[int]bool, phase string) *store.GetReport {
	t.Helper()
	got, rep, err := s.Get(name)
	if err != nil {
		t.Fatalf("chaostest: %s: %v", phase, err)
	}
	lost := make(map[int]bool, len(rep.LostSegments))
	for _, id := range rep.LostSegments {
		lost[id] = true
	}
	for id := range flagged {
		lost[id] = true
	}
	approx := make(map[int]bool, len(rep.Approximate))
	for _, id := range rep.Approximate {
		approx[id] = true
	}
	byID := make(map[int]store.Segment, len(got))
	for _, g := range got {
		byID[g.ID] = g
	}
	for _, w := range want {
		g, ok := byID[w.ID]
		if !ok {
			t.Fatalf("chaostest: %s: segment %d missing", phase, w.ID)
		}
		if lost[w.ID] {
			if w.Important {
				if !allowImportantLoss {
					t.Fatalf("chaostest: %s: important segment %d lost", phase, w.ID)
				}
			} else if !approx[w.ID] && !flagged[w.ID] {
				t.Fatalf("chaostest: %s: unimportant loss of segment %d not flagged approximate", phase, w.ID)
			}
			continue
		}
		// Not flagged: the bytes must be exactly what was written.
		if !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("chaostest: %s: segment %d silently corrupted (not flagged lost)", phase, w.ID)
		}
	}
	return rep
}
