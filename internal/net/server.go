package netio

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"approxcode/internal/colstore"
	"approxcode/internal/obs"
)

// Server is a DataNode: it exposes a colstore.Backend over the
// frame protocol and, when a master is configured, maintains a
// registration + heartbeat lease for the node indexes it serves.
type Server struct {
	cfg ServerConfig
	ln  net.Listener
	m   serverMetrics

	mu     sync.Mutex
	closed bool
	conns  connSet

	stop chan struct{}
	wg   sync.WaitGroup
}

// ServerConfig configures a DataNode server.
type ServerConfig struct {
	// Listen is the TCP address to bind ("127.0.0.1:0" if empty).
	Listen string
	// Advertise is the address registered with the master; defaults to
	// the bound listen address. Point it at a fronting proxy to route
	// master-directed clients through it.
	Advertise string
	// Backend serves the columns. Required.
	Backend colstore.Backend
	// Nodes are the node indexes this DataNode serves; required when a
	// Master is configured (that is what gets registered).
	Nodes []int
	// Master is the optional control-plane address. Empty disables
	// registration and heartbeats (static-map deployments).
	Master string
	// Heartbeat is the heartbeat period (default 500ms). Keep it equal
	// to the master's LivenessPolicy.Interval.
	Heartbeat time.Duration
	// Rack and Zone are the failure-domain labels this DataNode
	// registers under (apprnode data -rack/-zone). Empty labels
	// reproduce the pre-topology registration.
	Rack string
	Zone string
	// Obs receives per-RPC server metrics (nil disables).
	Obs *obs.Registry
}

// NewServer binds the listener, starts serving, and (with a Master
// configured) starts the registration/heartbeat loop. A bind failure is
// a typed *BindError; nothing is left running.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("%w: server requires a backend", ErrInvalid)
	}
	if cfg.Master != "" && len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("%w: master registration requires node indexes", ErrInvalid)
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, &BindError{Role: "datanode", Addr: cfg.Listen, Err: err}
	}
	if cfg.Advertise == "" {
		cfg.Advertise = ln.Addr().String()
	}
	s := &Server{
		cfg:  cfg,
		ln:   ln,
		m:    newServerMetrics(cfg.Obs),
		stop: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if cfg.Master != "" {
		s.wg.Add(1)
		go s.heartbeatLoop()
	}
	return s, nil
}

// Addr returns the bound data-plane address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server. In-flight requests are cut off (connection
// close), matching a process kill as far as clients can tell.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	err := s.ln.Close()
	s.conns.closeAll()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.conns.add(conn) {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.conns.remove(conn)
			defer conn.Close()
			s.m.conns.Add(1)
			defer s.m.conns.Add(-1)
			s.serveConn(conn)
		}()
	}
}

// Response headers of the replies that carry no encoded fields; a
// data reply is dataRespHdr followed by the backend's bytes.
var (
	dataRespHdr = []byte{byte(msgDataResp)}
	okResp      = []byte{byte(msgOKResp)}
)

func (s *Server) serveConn(conn net.Conn) {
	for {
		// Idle pooled connections park here without a deadline; the
		// client pool owns connection lifetime.
		frame, err := readPooledFrame(conn)
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				s.m.badFrames.Inc()
			}
			return
		}
		// The request buffer goes back to the pool once the reply is
		// sent: the backend only borrowed it (chaos.NodeIO), and the
		// reply never aliases it.
		hdr, data := s.dispatch(*frame)
		_ = conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		err = writeFrame(conn, hdr, data)
		putFrame(frame)
		if err != nil {
			return
		}
		_ = conn.SetWriteDeadline(time.Time{})
	}
}

// dispatch serves one request payload. The reply payload is hdr
// followed by data; data, when set, is the backend's column bytes,
// sent without a copy.
func (s *Server) dispatch(payload []byte) (hdr, data []byte) {
	if len(payload) == 0 {
		s.m.badFrames.Inc()
		return encodeErrResp(fmt.Errorf("%w: empty payload", ErrProtocol)), nil
	}
	body := payload[1:]
	switch msgType(payload[0]) {
	case msgReadReq:
		return s.handleRead(body)
	case msgReadAtReq:
		return s.handleReadAt(body)
	case msgWriteReq:
		return s.handleWrite(body), nil
	case msgPingReq:
		t0 := time.Now()
		s.m.ping.total.Inc()
		s.m.ping.seconds.Observe(time.Since(t0))
		return okResp, nil
	default:
		s.m.badFrames.Inc()
		return encodeErrResp(fmt.Errorf("%w: unexpected message type 0x%02x", ErrInvalid, payload[0])), nil
	}
}

func (s *Server) handleRead(body []byte) (hdr, data []byte) {
	t0 := time.Now()
	s.m.read.total.Inc()
	d := newDec(body)
	node := int(d.u32())
	stripe := int(d.u32())
	object := d.str()
	if d.err != nil {
		s.m.read.errors.Inc()
		return encodeErrResp(d.err), nil
	}
	data, err := s.cfg.Backend.ReadColumn(node, object, stripe)
	s.m.read.seconds.Observe(time.Since(t0))
	if err != nil {
		s.m.read.errors.Inc()
		return encodeErrResp(err), nil
	}
	s.m.read.bytes.Add(int64(len(data)))
	return dataRespHdr, data
}

func (s *Server) handleReadAt(body []byte) (hdr, data []byte) {
	t0 := time.Now()
	s.m.readAt.total.Inc()
	d := newDec(body)
	node := int(d.u32())
	stripe := int(d.u32())
	offU := d.u32()
	nU := d.u32()
	object := d.str()
	if d.err != nil {
		s.m.readAt.errors.Inc()
		return encodeErrResp(d.err), nil
	}
	// On 32-bit platforms a wire value above the platform int converts
	// to a negative one, which every Backend refuses with ErrInvalid
	// (and never sums into an overflowing off+n).
	data, err := s.cfg.Backend.ReadColumnAt(node, object, stripe, int(offU), int(nU))
	s.m.readAt.seconds.Observe(time.Since(t0))
	if err != nil {
		s.m.readAt.errors.Inc()
		return encodeErrResp(err), nil
	}
	s.m.readAt.bytes.Add(int64(len(data)))
	return dataRespHdr, data
}

// handleWrite stores one column. req.data aliases the pooled request
// frame; the backend borrows it for the call only.
func (s *Server) handleWrite(body []byte) []byte {
	t0 := time.Now()
	s.m.write.total.Inc()
	req, err := decodeWriteReq(body)
	if err != nil {
		s.m.write.errors.Inc()
		return encodeErrResp(err)
	}
	err = s.cfg.Backend.WriteColumn(req.node, req.object, req.stripe, req.data)
	s.m.write.seconds.Observe(time.Since(t0))
	if err != nil {
		s.m.write.errors.Inc()
		return encodeErrResp(err)
	}
	s.m.write.bytes.Add(int64(len(req.data)))
	return okResp
}

// heartbeatLoop maintains the master lease: register (with retry) to
// obtain an incarnation, then heartbeat every period. A heartbeat
// answered "unknown" — the master restarted, or fenced this
// incarnation out as dead after a partition — drops the lease and
// re-registers, arriving as a fresh join under a new incarnation.
func (s *Server) heartbeatLoop() {
	defer s.wg.Done()
	var incarnation uint64
	registered := false
	t := time.NewTicker(s.cfg.Heartbeat)
	defer t.Stop()
	for {
		if !registered {
			inc, err := RegisterNodesAt(s.cfg.Master, s.cfg.Nodes, s.cfg.Advertise, s.cfg.Rack, s.cfg.Zone, s.cfg.Heartbeat)
			if err == nil {
				incarnation = inc
				registered = true
			}
			// On error: fall through and retry next tick.
		} else {
			known, err := SendHeartbeat(s.cfg.Master, incarnation, s.cfg.Heartbeat)
			if err == nil && !known {
				registered = false
				continue // re-register immediately, not a period later
			}
			// Transport errors leave the lease in place; the master's
			// detector decides what silence means.
		}
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
	}
}
