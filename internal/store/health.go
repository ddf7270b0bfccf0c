package store

import "sync"

// HealthState is a node's position in the health state machine the
// self-healing read path drives: healthy → suspect → failed on
// error streaks, with probation recovery from suspect back to healthy.
type HealthState int

// Health states.
const (
	// HealthHealthy: the node serves I/O normally.
	HealthHealthy HealthState = iota
	// HealthSuspect: the node crossed the error threshold; it still
	// serves I/O but must string together successes to recover.
	HealthSuspect
	// HealthFailed: the node crossed the failure threshold. Reads skip
	// it (its columns are erasures) until a repair rebuilds it.
	HealthFailed
)

// String implements fmt.Stringer.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthSuspect:
		return "suspect"
	case HealthFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// HealthPolicy tunes the per-node health state machine.
type HealthPolicy struct {
	// SuspectAfter consecutive I/O errors demote a healthy node to
	// suspect (default 3).
	SuspectAfter int
	// FailAfter consecutive I/O errors demote a node to failed
	// (default 10).
	FailAfter int
	// ProbationOK successful operations while suspect promote the node
	// back to healthy (default 5).
	ProbationOK int
}

func (p HealthPolicy) withDefaults() HealthPolicy {
	if p.SuspectAfter <= 0 {
		p.SuspectAfter = 3
	}
	if p.FailAfter <= 0 {
		p.FailAfter = 10
	}
	if p.FailAfter < p.SuspectAfter {
		p.FailAfter = p.SuspectAfter
	}
	if p.ProbationOK <= 0 {
		p.ProbationOK = 5
	}
	return p
}

type nodeHealth struct {
	mu          sync.Mutex
	state       HealthState
	consecFails int
	// corrupts is the checksum-demotion streak. It is tracked apart
	// from consecFails because the transport-level ok() recorded by a
	// successful read would otherwise reset it before the caller's CRC
	// check could fail: only a read of this node that VERIFIES clears
	// it (see verified), so a node persistently serving damaged bytes
	// escalates suspect → failed even though every I/O "succeeds".
	corrupts   int
	probation  int
	fails, oks int64
}

// healthTracker applies a HealthPolicy across the store's nodes.
type healthTracker struct {
	policy HealthPolicy
	nodes  []nodeHealth
}

func newHealthTracker(n int, p HealthPolicy) *healthTracker {
	return &healthTracker{policy: p.withDefaults(), nodes: make([]nodeHealth, n)}
}

// state returns the node's current health state.
func (h *healthTracker) state(i int) HealthState {
	nh := &h.nodes[i]
	nh.mu.Lock()
	defer nh.mu.Unlock()
	return nh.state
}

// ok records a successful operation on the node.
func (h *healthTracker) ok(i int) {
	nh := &h.nodes[i]
	nh.mu.Lock()
	defer nh.mu.Unlock()
	nh.oks++
	nh.consecFails = 0
	if nh.state == HealthSuspect {
		nh.probation++
		if nh.probation >= h.policy.ProbationOK {
			nh.state = HealthHealthy
			nh.probation = 0
		}
	}
}

// fail records a failed operation and returns the resulting state.
func (h *healthTracker) fail(i int) HealthState {
	nh := &h.nodes[i]
	nh.mu.Lock()
	defer nh.mu.Unlock()
	nh.fails++
	nh.consecFails++
	nh.probation = 0
	switch {
	case nh.consecFails >= h.policy.FailAfter:
		nh.state = HealthFailed
	case nh.consecFails >= h.policy.SuspectAfter && nh.state == HealthHealthy:
		nh.state = HealthSuspect
	}
	return nh.state
}

// corrupt records a checksum-demoted read: the node's transport
// answered, but with bytes that failed verification. It feeds the same
// suspect/failed thresholds as transport errors through its own
// streak, which only verified (a CRC-clean read of this node) or reset
// clears — so a demote racing an in-flight update is forgiven by the
// next verified read, while genuine stored-data damage keeps the
// streak growing until the node is failed out and repaired.
func (h *healthTracker) corrupt(i int) HealthState {
	nh := &h.nodes[i]
	nh.mu.Lock()
	defer nh.mu.Unlock()
	nh.fails++
	nh.corrupts++
	nh.probation = 0
	switch {
	case nh.corrupts >= h.policy.FailAfter:
		nh.state = HealthFailed
	case nh.corrupts >= h.policy.SuspectAfter && nh.state == HealthHealthy:
		nh.state = HealthSuspect
	}
	return nh.state
}

// verified records a read of the node that passed checksum
// verification, clearing the corruption streak (its bytes are
// demonstrably intact). Probation credit is not granted here — the
// transport-level ok() for the same read already counted it.
func (h *healthTracker) verified(i int) {
	nh := &h.nodes[i]
	nh.mu.Lock()
	defer nh.mu.Unlock()
	nh.corrupts = 0
}

// reset returns the node to healthy (a repair provisioned fresh data).
func (h *healthTracker) reset(i int) {
	nh := &h.nodes[i]
	nh.mu.Lock()
	defer nh.mu.Unlock()
	nh.state = HealthHealthy
	nh.consecFails = 0
	nh.corrupts = 0
	nh.probation = 0
}

// failedNodes lists nodes currently in HealthFailed.
func (h *healthTracker) failedNodes() []int {
	var out []int
	for i := range h.nodes {
		if h.state(i) == HealthFailed {
			out = append(out, i)
		}
	}
	return out
}

// counts tallies nodes per non-healthy state.
func (h *healthTracker) counts() (suspect, failed int) {
	for i := range h.nodes {
		switch h.state(i) {
		case HealthSuspect:
			suspect++
		case HealthFailed:
			failed++
		}
	}
	return
}

// snapshot returns every node's state.
func (h *healthTracker) snapshot() []HealthState {
	out := make([]HealthState, len(h.nodes))
	for i := range h.nodes {
		out[i] = h.state(i)
	}
	return out
}
