package netio

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"approxcode/internal/obs"
	"approxcode/internal/place"
)

// The master (NameNode role) tracks which DataNode serves which node
// index, which objects exist and how many stripes they span, and node
// liveness via heartbeats.
//
// Liveness is an incarnation-fenced suspect → dead state machine. Each
// registration gets a fresh monotonically increasing incarnation
// number; heartbeats carry it. A registration whose heartbeats stop is
// marked Suspect after SuspectMisses missed intervals and Dead after
// DeadMisses; the OnDead hook fires exactly once per incarnation. A
// Dead incarnation can never be resurrected by a late heartbeat — the
// master answers "unknown" and the DataNode must re-register under a
// new incarnation, which arrives as a fresh join. That fencing is what
// prevents split-brain double-repair: a node that was merely
// partitioned (alive but unreachable) is repaired at most once, and
// when it comes back it cannot masquerade as its pre-partition self.

// NodeState is the master's liveness verdict for a node index.
type NodeState uint8

const (
	// StateAlive: heartbeats current.
	StateAlive NodeState = iota
	// StateSuspect: heartbeats missing beyond the suspect threshold; the
	// node is still routable but new placement should avoid it.
	StateSuspect
	// StateDead: heartbeats missing beyond the dead threshold; repair
	// has been (or is being) triggered via OnDead.
	StateDead
)

// String renders the state for logs and status output.
func (s NodeState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("NodeState(%d)", uint8(s))
	}
}

// LivenessPolicy configures the failure detector.
type LivenessPolicy struct {
	// Interval is the expected heartbeat period (default 500ms).
	Interval time.Duration
	// SuspectMisses and DeadMisses are how many whole intervals of
	// silence move a registration to Suspect (default 2) and Dead
	// (default 4).
	SuspectMisses int
	DeadMisses    int
	// CheckEvery is the sweep period of the detector (default
	// Interval/2).
	CheckEvery time.Duration
}

func (p LivenessPolicy) withDefaults() LivenessPolicy {
	if p.Interval <= 0 {
		p.Interval = 500 * time.Millisecond
	}
	if p.SuspectMisses <= 0 {
		p.SuspectMisses = 2
	}
	if p.DeadMisses <= 0 {
		p.DeadMisses = 4
	}
	if p.CheckEvery <= 0 {
		p.CheckEvery = p.Interval / 2
	}
	return p
}

// DetectionBound is the worst-case time from a DataNode's last
// heartbeat to its OnDead callback: the silence threshold plus one full
// sweep period (the silence can cross the threshold just after a sweep
// ran). The liveness tests pin this bound with an injected clock.
func (p LivenessPolicy) DetectionBound() time.Duration {
	p = p.withDefaults()
	return time.Duration(p.DeadMisses)*p.Interval + p.CheckEvery
}

// NodeInfo is one entry of the master's node map.
type NodeInfo struct {
	Addr        string
	State       NodeState
	Incarnation uint64
	// Rack and Zone are the failure-domain labels the serving DataNode
	// registered with ("" for a label-less legacy registration).
	Rack string
	Zone string
}

// DeadEvent is one dead incarnation reported by a liveness sweep: the
// node indexes it still owned and the failure-domain labels it
// registered with.
type DeadEvent struct {
	Nodes       []int
	Incarnation uint64
	Rack        string
	Zone        string
}

// MasterConfig configures a master.
type MasterConfig struct {
	// Listen is the TCP address to bind ("127.0.0.1:0" if empty).
	Listen string
	// Liveness tunes the failure detector.
	Liveness LivenessPolicy
	// OnDead, if set, is called exactly once per dead incarnation with
	// the node indexes that incarnation still owned. It runs outside the
	// master's lock, so it may call back into the master.
	//
	// During a correlated failure (a rack losing power) every DataNode
	// of the rack dies in the same sweep and OnDead fires once per
	// process — N overlapping repair triggers for one event. Prefer
	// OnDeadBatch for repair wiring.
	OnDead func(nodes []int, incarnation uint64)
	// OnDeadBatch, if set, is called at most once per liveness sweep
	// with every incarnation that sweep declared dead — the coalesced
	// form a repair trigger wants: a whole-rack loss arrives as one
	// callback carrying all the rack's nodes (grouped per incarnation,
	// with the rack/zone labels each registered under) instead of N
	// independent ones. Runs outside the master's lock, after the
	// per-event OnDead calls.
	OnDeadBatch func(events []DeadEvent)
	// Obs receives master metrics (nil disables).
	Obs *obs.Registry

	// clock overrides time sourcing for tests. When set, no background
	// sweep goroutine runs; tests drive sweep() directly.
	clock func() time.Time
}

// registration is one DataNode process's lease on a set of node
// indexes.
type registration struct {
	inc   uint64
	addr  string
	nodes []int
	rack  string
	zone  string
	last  time.Time
	state NodeState
}

// Master is the NameNode-role control-plane server.
type Master struct {
	cfg    MasterConfig
	policy LivenessPolicy
	ln     net.Listener
	m      masterMetrics

	mu      sync.Mutex
	nextInc uint64
	// regs holds the registrations heartbeats can still address: alive
	// and suspect incarnations. A registration is removed on death (the
	// heartbeat answer for an unknown incarnation is the same "re-register"
	// fence), so regs is bounded by live DataNode processes rather than
	// growing with churn.
	regs    map[uint64]*registration
	byNode  map[int]*registration // node index → owning registration (latest wins)
	objects map[string]uint32
	closed  bool
	conns   connSet

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewMaster binds the listener and starts serving the control plane.
func NewMaster(cfg MasterConfig) (*Master, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, &BindError{Role: "master", Addr: cfg.Listen, Err: err}
	}
	m := &Master{
		cfg:     cfg,
		policy:  cfg.Liveness.withDefaults(),
		ln:      ln,
		m:       newMasterMetrics(cfg.Obs),
		regs:    make(map[uint64]*registration),
		byNode:  make(map[int]*registration),
		objects: make(map[string]uint32),
		stop:    make(chan struct{}),
	}
	m.wg.Add(1)
	go m.acceptLoop()
	if cfg.clock == nil {
		m.wg.Add(1)
		go m.sweepLoop()
	}
	return m, nil
}

// Addr returns the bound control-plane address.
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Close stops the master.
func (m *Master) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	err := m.ln.Close()
	m.conns.closeAll()
	m.wg.Wait()
	return err
}

func (m *Master) now() time.Time {
	if m.cfg.clock != nil {
		return m.cfg.clock()
	}
	return time.Now()
}

func (m *Master) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !m.conns.add(conn) {
			_ = conn.Close()
			return
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			defer m.conns.remove(conn)
			defer conn.Close()
			m.serveConn(conn)
		}()
	}
}

func (m *Master) serveConn(conn net.Conn) {
	for {
		// A control connection that goes quiet is dropped; clients dial
		// per call or reconnect.
		_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		payload, err := readFrame(conn)
		if err != nil {
			return
		}
		resp := m.dispatch(payload)
		_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if err := writeFrame(conn, resp); err != nil {
			return
		}
	}
}

func (m *Master) dispatch(payload []byte) []byte {
	if len(payload) == 0 {
		return encodeErrResp(fmt.Errorf("%w: empty payload", ErrProtocol))
	}
	body := payload[1:]
	switch msgType(payload[0]) {
	case msgRegisterReq:
		return m.handleRegister(body)
	case msgHeartbeatReq:
		return m.handleHeartbeat(body)
	case msgNodeMapReq:
		return m.handleNodeMap()
	case msgReportObjReq:
		return m.handleReportObject(body)
	case msgListObjReq:
		return m.handleListObjects()
	case msgPingReq:
		return newEnc(msgOKResp).b
	default:
		return encodeErrResp(fmt.Errorf("%w: unexpected message type 0x%02x", ErrInvalid, payload[0]))
	}
}

func (m *Master) handleRegister(body []byte) []byte {
	d := newDec(body)
	n := int(d.u32())
	if d.err == nil && (n <= 0 || n > 1<<16) {
		return encodeErrResp(fmt.Errorf("%w: registration with %d nodes", ErrInvalid, n))
	}
	nodes := make([]int, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		nodes = append(nodes, int(d.u32()))
	}
	addr := d.str()
	// Rack/zone labels are optional trailing fields: a pre-topology
	// registration simply ends after the address and gets "" labels.
	var rack, zone string
	if d.err == nil && d.remaining() > 0 {
		rack = d.str()
		zone = d.str()
	}
	if d.err != nil {
		return encodeErrResp(d.err)
	}
	m.mu.Lock()
	m.nextInc++
	inc := m.nextInc
	reg := &registration{
		inc: inc, addr: addr, nodes: nodes, rack: rack, zone: zone,
		last: m.now(), state: StateAlive,
	}
	m.regs[inc] = reg
	for _, node := range nodes {
		m.byNode[node] = reg
	}
	m.updateGaugesLocked()
	m.mu.Unlock()
	m.m.registrations.Inc()
	return newEnc(msgRegisterResp).u64(inc).b
}

func (m *Master) handleHeartbeat(body []byte) []byte {
	d := newDec(body)
	inc := d.u64()
	if d.err != nil {
		return encodeErrResp(d.err)
	}
	m.m.heartbeats.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	reg, ok := m.regs[inc]
	if !ok || reg.state == StateDead {
		// Unknown or fenced-out incarnation: the sender must re-register.
		// A Dead incarnation stays dead — this is the split-brain guard.
		m.m.staleBeats.Inc()
		return newEnc(msgHeartbeatResp).u8(1).b
	}
	reg.last = m.now()
	if reg.state == StateSuspect {
		reg.state = StateAlive
	}
	m.updateGaugesLocked()
	return newEnc(msgHeartbeatResp).u8(0).b
}

func (m *Master) handleNodeMap() []byte {
	m.mu.Lock()
	nodes := make([]int, 0, len(m.byNode))
	for node := range m.byNode {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	e := newEnc(msgNodeMapResp).u32(uint32(len(nodes)))
	for _, node := range nodes {
		reg := m.byNode[node]
		e.u32(uint32(node)).u8(uint8(reg.state)).u64(reg.inc).str(reg.addr).str(reg.rack).str(reg.zone)
	}
	m.mu.Unlock()
	return e.b
}

func (m *Master) handleReportObject(body []byte) []byte {
	d := newDec(body)
	name := d.str()
	stripes := d.u32()
	if d.err != nil {
		return encodeErrResp(d.err)
	}
	m.mu.Lock()
	m.objects[name] = stripes
	m.mu.Unlock()
	return newEnc(msgOKResp).b
}

func (m *Master) handleListObjects() []byte {
	m.mu.Lock()
	names := make([]string, 0, len(m.objects))
	for name := range m.objects {
		names = append(names, name)
	}
	sort.Strings(names)
	e := newEnc(msgObjectsResp).u32(uint32(len(names)))
	for _, name := range names {
		e.str(name).u32(m.objects[name])
	}
	m.mu.Unlock()
	return e.b
}

func (m *Master) sweepLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.policy.CheckEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			m.sweep(now)
		}
	}
}

// sweep advances the failure detector to `now`. Exported to tests (in
// package) via the injected clock.
func (m *Master) sweep(now time.Time) {
	suspectAfter := time.Duration(m.policy.SuspectMisses) * m.policy.Interval
	deadAfter := time.Duration(m.policy.DeadMisses) * m.policy.Interval
	var events []DeadEvent
	m.mu.Lock()
	for inc, reg := range m.regs {
		silence := now.Sub(reg.last)
		switch {
		case silence > deadAfter:
			reg.state = StateDead
			// Dead is final for this incarnation: drop it from regs so a
			// late heartbeat gets the same "unknown, re-register" fence
			// and the map stays bounded under DataNode churn. byNode may
			// keep pointing at the dead registration (so the node map
			// reports it Dead) until a re-register supersedes it.
			delete(m.regs, inc)
			// Only the node indexes this incarnation still owns are
			// reported: a node already re-registered under a newer
			// incarnation is someone else's responsibility now.
			var owned []int
			for _, node := range reg.nodes {
				if m.byNode[node] == reg {
					owned = append(owned, node)
				}
			}
			if len(owned) > 0 {
				events = append(events, DeadEvent{
					Nodes: owned, Incarnation: inc, Rack: reg.rack, Zone: reg.zone,
				})
			}
		case silence > suspectAfter:
			if reg.state == StateAlive {
				reg.state = StateSuspect
			}
		}
	}
	m.updateGaugesLocked()
	m.mu.Unlock()
	// Deterministic callback order: regs is a map, so a multi-death
	// sweep would otherwise report incarnations in random order.
	sort.Slice(events, func(i, j int) bool { return events[i].Incarnation < events[j].Incarnation })
	for _, ev := range events {
		m.m.deadDetections.Inc()
		if m.cfg.OnDead != nil {
			m.cfg.OnDead(ev.Nodes, ev.Incarnation)
		}
	}
	// The coalesced form: every death this sweep found, in one call, so
	// a whole-rack loss triggers one repair wave instead of N.
	if len(events) > 0 && m.cfg.OnDeadBatch != nil {
		m.cfg.OnDeadBatch(events)
	}
}

func (m *Master) updateGaugesLocked() {
	if m.m.nodesAlive == nil {
		return
	}
	var alive, suspect, dead int64
	for _, reg := range m.byNode {
		switch reg.state {
		case StateAlive:
			alive++
		case StateSuspect:
			suspect++
		case StateDead:
			dead++
		}
	}
	m.m.nodesAlive.Set(alive)
	m.m.nodesSuspect.Set(suspect)
	m.m.nodesDead.Set(dead)
}

// NodeMap returns the master's current view, for in-process callers
// (the network path is FetchNodeMap).
func (m *Master) NodeMap() map[int]NodeInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]NodeInfo, len(m.byNode))
	for node, reg := range m.byNode {
		out[node] = NodeInfo{
			Addr: reg.addr, State: reg.state, Incarnation: reg.inc,
			Rack: reg.rack, Zone: reg.zone,
		}
	}
	return out
}

// Topology assembles the fleet's failure-domain topology from the
// registrations' rack/zone labels: slot i of the n-node code gets the
// labels of the DataNode currently serving it. Slots no registration
// covers (or covered by label-less legacy registrations) get empty
// labels — place.Check rejects such a topology, which is the correct
// signal that placement-aware decisions cannot be made yet.
func (m *Master) Topology(n int) *place.Topology {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &place.Topology{Nodes: make([]place.NodeLocation, n)}
	for node, reg := range m.byNode {
		if node < 0 || node >= n {
			continue
		}
		t.Nodes[node] = place.NodeLocation{Rack: reg.rack, Zone: reg.zone}
	}
	return t
}

// BindError is the typed error for a failed listener bind: which role
// tried to bind where, wrapping the OS-level cause.
type BindError struct {
	Role string // "master", "datanode", "metrics"
	Addr string
	Err  error
}

// Error implements error.
func (e *BindError) Error() string {
	return fmt.Sprintf("netio: %s failed to bind %s: %v", e.Role, e.Addr, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *BindError) Unwrap() error { return e.Err }
