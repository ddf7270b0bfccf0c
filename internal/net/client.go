package netio

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/obs"
)

// Client is the SDK side of the data plane: it implements chaos.NodeIO,
// chaos.PartialReader, and chaos.CtxIO against remote DataNodes, so a
// store.Store runs over live sockets by setting Config.Backend to a
// *Client.
//
// All the self-healing machinery lives here, at the network edge:
//   - per-node connection pools with jittered reconnect behind a
//     fail-fast dial circuit (a down node costs nothing after the first
//     refusal),
//   - bounded retries with jittered exponential backoff,
//   - hedged reads (a second connection races the straggler after
//     HedgeDelay; the loser is cancelled and its connection dropped),
//   - per-op deadlines flowing from contexts to socket deadlines,
//   - a per-node health FSM (healthy → suspect → failed with probation
//     and timed probe-through) so a dead DataNode degrades into erasure
//     — the store plans reads around it (PR 7) — instead of every
//     request burning its full deadline.
type Client struct {
	retry    RetryPolicy
	poolSize int
	master   string
	health   *edgeHealth
	m        clientMetrics

	mu     sync.RWMutex
	pools  map[int]*pool
	closed bool

	rngMu sync.Mutex
	rng   *rand.Rand
}

// RetryPolicy tunes the client's self-healing I/O. The zero value means
// defaults. It deliberately mirrors the store's in-process policy — the
// knobs moved to the edge, they did not change shape.
type RetryPolicy struct {
	// MaxAttempts bounds tries per operation (default 4).
	MaxAttempts int
	// BaseBackoff is the first retry delay, doubling per attempt up to
	// MaxBackoff, with full jitter (defaults 500µs, 10ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HedgeDelay launches a second read on another pooled connection if
	// the first has not answered (default 4ms; negative disables).
	HedgeDelay time.Duration
	// OpDeadline bounds one operation including retries and hedges,
	// when the caller's context has no deadline of its own (default 1s).
	OpDeadline time.Duration
	// DialTimeout bounds one TCP dial (default 500ms).
	DialTimeout time.Duration
	// RedialBackoff is how long a failed dial shuts the dial circuit
	// for, jittered in [x/2, x) (default 100ms).
	RedialBackoff time.Duration
	// Seed makes backoff/redial jitter reproducible; 0 derives one from
	// the clock.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 500 * time.Microsecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 10 * time.Millisecond
	}
	if p.HedgeDelay == 0 {
		p.HedgeDelay = 4 * time.Millisecond
	}
	if p.OpDeadline <= 0 {
		p.OpDeadline = time.Second
	}
	if p.DialTimeout <= 0 {
		p.DialTimeout = 500 * time.Millisecond
	}
	if p.RedialBackoff <= 0 {
		p.RedialBackoff = 100 * time.Millisecond
	}
	return p
}

// ClientConfig configures Dial.
type ClientConfig struct {
	// Nodes maps node index → DataNode address. Optional when Master is
	// set (the map is fetched).
	Nodes map[int]string
	// Master is the control-plane address, used to fetch the node map
	// when Nodes is empty and by RefreshMap.
	Master string
	// Retry tunes the self-healing I/O.
	Retry RetryPolicy
	// Health tunes the per-node health FSM.
	Health HealthPolicy
	// PoolSize caps idle pooled connections per node (default 2).
	PoolSize int
	// Obs receives client metrics (nil disables).
	Obs *obs.Registry
}

// Dial builds a client. No connections are opened until the first
// operation; a node map must come from Nodes or the Master.
func Dial(cfg ClientConfig) (*Client, error) {
	nodes := cfg.Nodes
	if len(nodes) == 0 {
		if cfg.Master == "" {
			return nil, fmt.Errorf("%w: client needs a node map or a master", ErrInvalid)
		}
		fetched, err := FetchNodeMap(cfg.Master, cfg.Retry.DialTimeout)
		if err != nil {
			return nil, err
		}
		nodes = make(map[int]string, len(fetched))
		for node, info := range fetched {
			nodes[node] = info.Addr
		}
		if len(nodes) == 0 {
			return nil, fmt.Errorf("%w: master has no registered nodes", ErrInvalid)
		}
	}
	retry := cfg.Retry.withDefaults()
	seed := retry.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	poolSize := cfg.PoolSize
	if poolSize <= 0 {
		poolSize = 2
	}
	c := &Client{
		retry:    retry,
		poolSize: poolSize,
		master:   cfg.Master,
		health:   newEdgeHealth(cfg.Health),
		m:        newClientMetrics(cfg.Obs),
		pools:    make(map[int]*pool),
		rng:      rand.New(rand.NewSource(seed)),
	}
	for node, addr := range nodes {
		c.pools[node] = &pool{addr: addr, max: poolSize}
	}
	return c, nil
}

// Nodes returns the node indexes the client can route to, sorted.
func (c *Client) Nodes() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]int, 0, len(c.pools))
	for node := range c.pools {
		out = append(out, node)
	}
	sort.Ints(out)
	return out
}

// RefreshMap re-fetches the node map from the master, rerouting nodes
// whose DataNode moved and adding newly registered ones. Nodes that
// vanished from the master keep their last known route (the health FSM
// will fail them if they are really gone).
func (c *Client) RefreshMap() error {
	if c.master == "" {
		return fmt.Errorf("%w: client has no master", ErrInvalid)
	}
	fetched, err := FetchNodeMap(c.master, c.retry.DialTimeout)
	if err != nil {
		return err
	}
	var stale []*pool
	c.mu.Lock()
	if !c.closed {
		for node, info := range fetched {
			old := c.pools[node]
			if old != nil && old.addr == info.Addr {
				continue
			}
			if old != nil {
				stale = append(stale, old)
			}
			c.pools[node] = &pool{addr: info.Addr, max: c.poolSize}
		}
	}
	c.mu.Unlock()
	for _, p := range stale {
		p.closeIdle()
	}
	return nil
}

// Close drops all pooled connections. In-flight operations fail as
// their sockets close.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	pools := make([]*pool, 0, len(c.pools))
	for _, p := range c.pools {
		pools = append(pools, p)
	}
	c.mu.Unlock()
	for _, p := range pools {
		p.closeIdle()
	}
	return nil
}

func (c *Client) pool(node int) (*pool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, ErrClosed
	}
	p := c.pools[node]
	if p == nil {
		return nil, fmt.Errorf("%w: no route to node %d", ErrInvalid, node)
	}
	return p, nil
}

// pool is one node's connection pool plus its dial circuit.
type pool struct {
	addr string
	max  int

	mu       sync.Mutex
	idle     []net.Conn
	nextDial time.Time // dial circuit: closed until this instant after a failed dial
}

// get returns a pooled connection or dials a new one.
func (p *pool) get(ctx context.Context, c *Client) (net.Conn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		conn := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return conn, nil
	}
	if next := p.nextDial; !next.IsZero() && time.Now().Before(next) {
		p.mu.Unlock()
		c.m.fastFails.Inc()
		return nil, fmt.Errorf("%w: %s: dial circuit open", chaos.ErrNodeUnavailable, p.addr)
	}
	p.mu.Unlock()

	c.m.dials.Inc()
	d := net.Dialer{Timeout: c.retry.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		c.m.dialFailures.Inc()
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The caller's context expired or was cancelled (hedge loser,
			// op deadline) — that says nothing about the node's health,
			// so leave the dial circuit closed.
			return nil, fmt.Errorf("%w: dial %s: %w", ErrTimeout, p.addr, ctxErr)
		}
		p.mu.Lock()
		p.nextDial = time.Now().Add(c.jitterHalf(c.retry.RedialBackoff))
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: dial %s: %v", chaos.ErrNodeUnavailable, p.addr, err)
	}
	p.mu.Lock()
	p.nextDial = time.Time{}
	p.mu.Unlock()
	return conn, nil
}

// put returns a healthy connection to the pool (or closes it when the
// pool is full).
func (p *pool) put(conn net.Conn) {
	p.mu.Lock()
	if len(p.idle) < p.max {
		p.idle = append(p.idle, conn)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	_ = conn.Close()
}

func (p *pool) closeIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, conn := range idle {
		_ = conn.Close()
	}
}

// jitterHalf returns a duration in [d/2, d).
func (c *Client) jitterHalf(d time.Duration) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	half := d / 2
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}

// backoff returns the jittered delay before retry attempt n (1-based).
func (c *Client) backoff(attempt int) time.Duration {
	d := c.retry.BaseBackoff << (attempt - 1)
	if d > c.retry.MaxBackoff || d <= 0 {
		d = c.retry.MaxBackoff
	}
	return c.jitterHalf(d)
}

// request is one request payload, sent as a frame of two parts: hdr
// (the message type and encoded fields) and data (a write's column
// bytes, nil otherwise). data is the caller's buffer, borrowed until
// the operation returns, so only unhedged operations may carry it: a
// hedge loser can still be sending after its operation has returned.
type request struct{ hdr, data []byte }

// roundTrip performs one framed request/response exchange on one
// connection. The connection is pooled again only after a fully clean
// exchange — any transport hiccup, timeout, or protocol violation
// poisons it.
func (c *Client) roundTrip(ctx context.Context, node int, req request) ([]byte, error) {
	p, err := c.pool(node)
	if err != nil {
		return nil, err
	}
	conn, err := p.get(ctx, c)
	if err != nil {
		return nil, err
	}
	good := false
	defer func() {
		if good {
			p.put(conn)
		} else {
			_ = conn.Close()
		}
	}()

	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	// Cancellation (e.g. a hedge losing the race) unblocks the socket
	// immediately instead of waiting out the deadline.
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Now()) })
	defer stop()

	if err := writeFrame(conn, req.hdr, req.data); err != nil {
		return nil, c.transportErr(ctx, node, "send", err)
	}
	typ, body, err := readResp(conn)
	if err != nil {
		return nil, c.transportErr(ctx, node, "receive", err)
	}
	switch typ {
	case msgErrResp:
		// A structured error leaves the connection in protocol sync.
		if !stop() {
			return nil, fmt.Errorf("%w: node %d", ErrTimeout, node)
		}
		_ = conn.SetDeadline(time.Time{})
		good = true
		return nil, decodeErrResp(body)
	case msgDataResp, msgOKResp:
		if !stop() {
			// Cancellation raced the response; the deadline may already
			// have poisoned the socket, so do not pool it.
			return body, nil
		}
		_ = conn.SetDeadline(time.Time{})
		good = true
		return body, nil
	case 0:
		return nil, fmt.Errorf("%w: empty response", ErrProtocol)
	default:
		return nil, fmt.Errorf("%w: unexpected response type 0x%02x", ErrProtocol, byte(typ))
	}
}

// transportErr classifies a socket-level failure: deadline expiry maps
// to ErrTimeout, everything else (reset, refused, EOF — e.g. a crashed
// or chaos-dropped connection) to chaos.ErrNodeUnavailable so the
// store treats the column as an erasure.
func (c *Client) transportErr(ctx context.Context, node int, verb string, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("%w: node %d %s: %w", ErrTimeout, node, verb, ctxErr)
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return fmt.Errorf("%w: node %d %s: %v", ErrTimeout, node, verb, err)
	}
	return fmt.Errorf("%w: node %d %s: %v", chaos.ErrNodeUnavailable, node, verb, err)
}

// attempt runs one try of an operation, hedged for reads: if the
// primary leg has not answered within HedgeDelay, a second leg races it
// on another connection and the first response wins. The losing leg is
// cancelled and its connection dropped.
func (c *Client) attempt(ctx context.Context, node int, req request, hedge bool) ([]byte, error) {
	if !hedge || c.retry.HedgeDelay <= 0 {
		return c.roundTrip(ctx, node, req)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		data   []byte
		err    error
		backup bool
	}
	ch := make(chan result, 2)
	launch := func(backup bool) {
		go func() {
			data, err := c.roundTrip(hctx, node, req)
			ch <- result{data, err, backup}
		}()
	}
	launch(false)
	timer := time.NewTimer(c.retry.HedgeDelay)
	defer timer.Stop()
	outstanding := 1
	hedged := false
	var firstErr error
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if r.backup {
					c.m.hedgeWins.Inc()
				}
				return r.data, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if !hedged || outstanding == 0 {
				// Primary failed before the hedge fired (fail fast and
				// let the retry loop decide), or both legs failed.
				return nil, firstErr
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				outstanding++
				c.m.hedges.Inc()
				launch(true)
			}
		}
	}
}

// do is the operation runner: health gate, default deadline, bounded
// retries with jittered backoff around attempt().
func (c *Client) do(ctx context.Context, node int, req request, hedge bool, rm *rpcMetrics) ([]byte, error) {
	rm.total.Inc()
	t0 := time.Now()
	data, err := c.doInner(ctx, node, req, hedge)
	rm.seconds.Observe(time.Since(t0))
	if err != nil {
		rm.errors.Inc()
		return nil, err
	}
	rm.bytes.Add(int64(len(data)))
	return data, nil
}

func (c *Client) doInner(ctx context.Context, node int, req request, hedge bool) ([]byte, error) {
	if node < 0 {
		return nil, fmt.Errorf("%w: negative node %d", ErrInvalid, node)
	}
	if !c.health.allow(node) {
		c.m.fastFails.Inc()
		return nil, fmt.Errorf("%w: node %d health-failed at client", chaos.ErrNodeUnavailable, node)
	}
	if _, ok := ctx.Deadline(); !ok && c.retry.OpDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.retry.OpDeadline)
		defer cancel()
	}
	var lastErr error
	for attempt := 1; attempt <= c.retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.m.retries.Inc()
			if err := sleepCtx(ctx, c.backoff(attempt-1)); err != nil {
				break
			}
		}
		data, err := c.attempt(ctx, node, req, hedge)
		if err == nil {
			c.health.ok(node)
			return data, nil
		}
		lastErr = err
		if errors.Is(err, chaos.ErrColumnMissing) {
			// Not a node fault: the column was never written (e.g. the
			// node was down during ingest). No retry, no health penalty.
			return nil, err
		}
		if errors.Is(err, ErrInvalid) || errors.Is(err, ErrProtocol) || errors.Is(err, ErrClosed) {
			return nil, err
		}
		c.health.fail(node)
		if ctx.Err() != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: node %d: %w", ErrTimeout, node, ctx.Err())
	}
	return nil, lastErr
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// --- chaos.CtxIO ---

// ReadColumnCtx implements chaos.CtxIO. The returned column is a fresh
// buffer the caller owns.
func (c *Client) ReadColumnCtx(ctx context.Context, node int, object string, stripe int) ([]byte, error) {
	return c.do(ctx, node, request{hdr: encodeReadReq(node, object, stripe)}, true, &c.m.read)
}

// ReadColumnAtCtx implements chaos.CtxIO. The returned range is a
// fresh buffer the caller owns.
func (c *Client) ReadColumnAtCtx(ctx context.Context, node int, object string, stripe, off, n int) ([]byte, error) {
	// The wire carries off and n as uint32; refuse what would truncate
	// into a different, valid-looking range.
	if off < 0 || n < 0 || uint64(off) > math.MaxUint32 || uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d bytes at offset %d", ErrInvalid, n, off)
	}
	return c.do(ctx, node, request{hdr: encodeReadAtReq(node, object, stripe, off, n)}, true, &c.m.readAt)
}

// WriteColumnCtx implements chaos.CtxIO. data goes to the socket
// straight from the caller's slice and is not referenced once the call
// returns. Writes are never hedged — two racing writes of the same
// column are harmless (idempotent payload) but wasteful, and a hedge
// could outlive the call that lent data.
func (c *Client) WriteColumnCtx(ctx context.Context, node int, object string, stripe int, data []byte) error {
	req := request{hdr: writeReqHeader(node, object, stripe, len(data)), data: data}
	_, err := c.do(ctx, node, req, false, &c.m.write)
	return err
}

// --- chaos.NodeIO + chaos.PartialReader ---

// ReadColumn implements chaos.NodeIO.
func (c *Client) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	return c.ReadColumnCtx(context.Background(), node, object, stripe)
}

// ReadColumnAt implements chaos.PartialReader.
func (c *Client) ReadColumnAt(node int, object string, stripe, off, n int) ([]byte, error) {
	return c.ReadColumnAtCtx(context.Background(), node, object, stripe, off, n)
}

// WriteColumn implements chaos.NodeIO.
func (c *Client) WriteColumn(node int, object string, stripe int, data []byte) error {
	return c.WriteColumnCtx(context.Background(), node, object, stripe, data)
}

// Ping round-trips a health probe to the node's DataNode, bypassing
// retries and hedging: one attempt, one verdict.
func (c *Client) Ping(ctx context.Context, node int) error {
	c.m.ping.total.Inc()
	t0 := time.Now()
	if _, ok := ctx.Deadline(); !ok && c.retry.OpDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.retry.OpDeadline)
		defer cancel()
	}
	_, err := c.roundTrip(ctx, node, request{hdr: newEnc(msgPingReq).b})
	c.m.ping.seconds.Observe(time.Since(t0))
	if err != nil {
		c.m.ping.errors.Inc()
	}
	return err
}
