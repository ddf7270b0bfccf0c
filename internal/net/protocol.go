// Package netio turns the storage engine into a networked
// NameNode/DataNode deployment: a DataNode server exposing the
// chaos.NodeIO surface (whole-column and partial-column reads, column
// writes, health probes) over a length-prefixed binary protocol on TCP,
// a master (NameNode) tracking placement, object stripe maps, and node
// liveness via heartbeats with a suspect → dead failure detector, and a
// client SDK implementing chaos.NodeIO + PartialReader + CtxIO so a
// store.Store works against live sockets by setting Config.Backend.
//
// The retry/backoff/hedged-read/health machinery that PR 3 built into
// the store core runs here at the network edge: per-op deadlines travel
// as contexts down to connection deadlines, connection pools redial
// with jittered backoff behind a fail-fast circuit, and a down DataNode
// degrades into planned degraded reads (PR 7) instead of client-visible
// errors.
//
// Transport framing is deliberately checksum-free for data payloads:
// column integrity is end-to-end (the store's CRC-32C per column and
// sub-block), so silent wire corruption — injected by the chaos proxy
// or real — is detected exactly where the in-process stack detects it,
// and the whole TestChaos* invariant suite re-runs unchanged against
// live TCP.
package netio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"

	"approxcode/internal/chaos"
)

// A frame on the wire is | u32 big-endian payload length | payload |,
// where the payload is | u8 message type | body |. Every request frame
// is answered by exactly one response frame on the same connection
// (synchronous per connection; concurrency comes from pooling).
const (
	// maxFrame bounds a frame payload; a peer announcing more is
	// protocol-corrupt and the connection is dropped.
	maxFrame = 1 << maxFrameClass // 64 MiB
	// maxFrameClass is log2(maxFrame), the largest pooled size class.
	maxFrameClass = 26
)

type msgType uint8

// Message types. Requests are < 0x80, responses >= 0x80.
const (
	// Data plane (DataNode).
	msgReadReq   msgType = 0x01 // u32 node, u32 stripe, str object
	msgReadAtReq msgType = 0x02 // u32 node, u32 stripe, u32 off, u32 n, str object
	msgWriteReq  msgType = 0x03 // u32 node, u32 stripe, str object, u32 len, data
	msgPingReq   msgType = 0x04 // empty

	// Control plane (master).
	msgRegisterReq  msgType = 0x10 // u32 n, n×u32 nodes, str addr [, str rack, str zone]
	msgHeartbeatReq msgType = 0x11 // u64 incarnation
	msgNodeMapReq   msgType = 0x12 // empty
	msgReportObjReq msgType = 0x13 // str name, u32 stripes
	msgListObjReq   msgType = 0x14 // empty

	msgDataResp      msgType = 0x81 // raw column/range bytes
	msgOKResp        msgType = 0x82 // empty
	msgErrResp       msgType = 0x83 // u8 code, str message
	msgRegisterResp  msgType = 0x90 // u64 incarnation
	msgHeartbeatResp msgType = 0x91 // u8 status (0 ok, 1 unknown — re-register)
	msgNodeMapResp   msgType = 0x92 // u32 n, n×(u32 node, u8 state, u64 inc, str addr, str rack, str zone)
	msgObjectsResp   msgType = 0x93 // u32 n, n×(str name, u32 stripes)
)

// Error codes carried by msgErrResp, mapping the fault taxonomy across
// the wire so errors.Is keeps working end to end.
const (
	codeUnavailable uint8 = 1 // chaos.ErrNodeUnavailable
	codeMissing     uint8 = 2 // chaos.ErrColumnMissing
	codeTransient   uint8 = 3 // chaos.ErrTransient
	codeTimeout     uint8 = 4 // ErrTimeout
	codeInvalid     uint8 = 5 // ErrInvalid
	codeInternal    uint8 = 6 // anything else; message preserved
)

// Sentinel errors of the network layer.
var (
	// ErrTimeout: an RPC exceeded its deadline (also wraps the context
	// error, so errors.Is(err, context.DeadlineExceeded) holds where the
	// deadline came from a context).
	ErrTimeout = errors.New("netio: operation timed out")
	// ErrInvalid: a malformed request or argument. It wraps
	// chaos.ErrInvalid, so a backend's invalid-range answer crosses the
	// wire and still matches the NodeIO contract's sentinel.
	ErrInvalid = fmt.Errorf("netio: %w", chaos.ErrInvalid)
	// ErrProtocol: a malformed or oversized frame; the connection is
	// poisoned and must be dropped.
	ErrProtocol = errors.New("netio: protocol error")
	// ErrClosed: the component has been Close()d.
	ErrClosed = errors.New("netio: closed")
)

// coalesceMax is the largest frame writeFrame copies into one buffer
// with its length prefix; bigger frames go out gathered. Below it a
// copy is cheaper than a second iovec.
const coalesceMax = 4 << 10

// writeFrame writes one length-prefixed frame whose payload is the
// concatenation of parts. The bytes on the wire are the same however
// the payload is split. A small frame is coalesced into one buffer; a
// large one is sent as | len + leading small parts | large part | ...
// with one net.Buffers write (writev on a TCP connection), so a column
// payload goes from the caller's slice to the socket without a copy.
// writeFrame keeps no reference to parts once it returns.
func writeFrame(w io.Writer, parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > maxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	// The length prefix and every part before the first large one share
	// one small buffer.
	i, head := 0, 4
	for ; i < len(parts) && (n <= coalesceMax || len(parts[i]) <= coalesceMax); i++ {
		head += len(parts[i])
	}
	buf := make([]byte, 4, head)
	binary.BigEndian.PutUint32(buf, uint32(n))
	for _, p := range parts[:i] {
		buf = append(buf, p...)
	}
	if i == len(parts) {
		_, err := w.Write(buf)
		return err
	}
	bufs := make(net.Buffers, 0, 1+len(parts)-i)
	bufs = append(bufs, buf)
	bufs = append(bufs, parts[i:]...)
	_, err := bufs.WriteTo(w)
	return err
}

// readFrameLen reads and bounds-checks a frame's length prefix.
func readFrameLen(r io.Reader) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return 0, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	return int(n), nil
}

// readFrame reads one length-prefixed frame payload into a fresh
// buffer the caller owns.
func readFrame(r io.Reader) ([]byte, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// readResp reads one response frame, returning its message type and
// its body in a fresh buffer of exactly the body's size: the client
// hands that body to its caller, who owns it, so it is neither pooled
// nor rounded up by a type byte in front of it. An empty frame reads
// as message type 0, which no peer sends.
func readResp(r io.Reader) (msgType, []byte, error) {
	n, err := readFrameLen(r)
	if err != nil || n == 0 {
		return 0, nil, err
	}
	var t [1]byte
	if _, err := io.ReadFull(r, t[:]); err != nil {
		return 0, nil, err
	}
	body := make([]byte, n-1)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return msgType(t[0]), body, nil
}

// framePool recycles the DataNode's request buffers, one sync.Pool per
// power-of-two size class up to maxFrame. A buffer in class c has a
// capacity of exactly 1<<c.
var framePool [maxFrameClass + 1]sync.Pool

// minFrameClass is the smallest size class: every frame of up to
// 512 bytes (reads, pings) shares it.
const minFrameClass = 9

// frameClass returns the size class that holds an n-byte frame.
func frameClass(n int) int {
	if n <= 1<<minFrameClass {
		return minFrameClass
	}
	return bits.Len(uint(n - 1))
}

// readPooledFrame reads one frame payload into a pooled buffer. The
// caller must hand the returned pointer to putFrame once nothing refers
// to the payload any more.
func readPooledFrame(r io.Reader) (*[]byte, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	c := frameClass(n)
	bp, _ := framePool[c].Get().(*[]byte)
	if bp == nil {
		b := make([]byte, 1<<c)
		bp = &b
	}
	*bp = (*bp)[:n]
	if _, err := io.ReadFull(r, *bp); err != nil {
		putFrame(bp)
		return nil, err
	}
	return bp, nil
}

// putFrame returns a buffer from readPooledFrame to its size class.
func putFrame(bp *[]byte) {
	c := bits.Len(uint(cap(*bp))) - 1
	framePool[c].Put(bp)
}

// enc is an append-only payload encoder.
type enc struct{ b []byte }

func newEnc(t msgType) *enc      { return &enc{b: []byte{byte(t)}} }
func (e *enc) u8(v uint8) *enc   { e.b = append(e.b, v); return e }
func (e *enc) u32(v uint32) *enc { e.b = binary.BigEndian.AppendUint32(e.b, v); return e }
func (e *enc) u64(v uint64) *enc { e.b = binary.BigEndian.AppendUint64(e.b, v); return e }
func (e *enc) str(s string) *enc { e.u32(uint32(len(s))); e.b = append(e.b, s...); return e }

// dec is a cursor-based payload decoder; the first decode error sticks
// and zero values flow from then on, so call sites check err once.
type dec struct {
	b   []byte
	off int
	err error
}

func newDec(b []byte) *dec { return &dec{b: b} }

// remaining reports undecoded bytes — the back-compat probe for
// optional trailing fields (a pre-topology register request simply
// ends before the rack/zone labels).
func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated message", ErrProtocol)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	v := string(d.b[d.off : d.off+n])
	d.off += n
	return v
}

func (d *dec) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// Request encoders.

func encodeReadReq(node int, object string, stripe int) []byte {
	return newEnc(msgReadReq).u32(uint32(node)).u32(uint32(stripe)).str(object).b
}

func encodeReadAtReq(node int, object string, stripe, off, n int) []byte {
	return newEnc(msgReadAtReq).u32(uint32(node)).u32(uint32(stripe)).
		u32(uint32(off)).u32(uint32(n)).str(object).b
}

// writeReqHeader encodes every byte of a msgWriteReq payload that
// precedes the column data, in a buffer of exactly that size. Sending
// it followed by the n data bytes puts the same bytes on the wire as
// encodeWriteReq, without copying the column.
func writeReqHeader(node int, object string, stripe, n int) []byte {
	e := &enc{b: make([]byte, 0, 1+4+4+4+len(object)+4)}
	e.u8(uint8(msgWriteReq)).u32(uint32(node)).u32(uint32(stripe)).str(object).u32(uint32(n))
	return e.b
}

// encodeWriteReq encodes a whole msgWriteReq payload in one buffer (the
// chaos proxy's rewritten writes; the client sends writeReqHeader and
// the data as separate parts instead).
func encodeWriteReq(node int, object string, stripe int, data []byte) []byte {
	return append(writeReqHeader(node, object, stripe, len(data)), data...)
}

// writeReq is a decoded msgWriteReq (the chaos proxy rewrites these for
// torn and corrupt injections; data aliases the frame buffer).
type writeReq struct {
	node, stripe int
	object       string
	data         []byte
}

func decodeWriteReq(body []byte) (writeReq, error) {
	d := newDec(body)
	r := writeReq{node: int(d.u32()), stripe: int(d.u32())}
	r.object = d.str()
	r.data = d.bytes()
	return r, d.err
}

// opOfPayload maps a decoded request frame to the chaos.Op it
// represents, so a transport-level injector evaluates the same schedule
// the in-process injector would. Control-plane and unknown frames
// return ok=false (they pass through uninjected; pings too — a health
// probe models the operator, not the workload).
func opOfPayload(payload []byte) (chaos.Op, bool) {
	if len(payload) == 0 {
		return chaos.Op{}, false
	}
	d := newDec(payload[1:])
	switch msgType(payload[0]) {
	case msgReadReq:
		op := chaos.Op{Kind: chaos.OpRead, Node: int(d.u32()), Stripe: int(d.u32())}
		op.Object = d.str()
		return op, d.err == nil
	case msgReadAtReq:
		op := chaos.Op{Kind: chaos.OpReadAt, Node: int(d.u32()), Stripe: int(d.u32())}
		d.u32() // off
		d.u32() // n
		op.Object = d.str()
		return op, d.err == nil
	case msgWriteReq:
		op := chaos.Op{Kind: chaos.OpWrite, Node: int(d.u32()), Stripe: int(d.u32())}
		op.Object = d.str()
		return op, d.err == nil
	default:
		return chaos.Op{}, false
	}
}

// encodeErrResp maps an error to its wire form.
func encodeErrResp(err error) []byte {
	code := codeInternal
	switch {
	case errors.Is(err, chaos.ErrColumnMissing):
		code = codeMissing
	case errors.Is(err, chaos.ErrNodeUnavailable):
		code = codeUnavailable
	case errors.Is(err, chaos.ErrTransient):
		code = codeTransient
	case errors.Is(err, ErrTimeout):
		code = codeTimeout
	case errors.Is(err, chaos.ErrInvalid):
		code = codeInvalid
	}
	return newEnc(msgErrResp).u8(code).str(err.Error()).b
}

// decodeErrResp maps a wire error back to the sentinel taxonomy. The
// original message rides along for diagnostics.
func decodeErrResp(body []byte) error {
	d := newDec(body)
	code := d.u8()
	msg := d.str()
	if d.err != nil {
		return d.err
	}
	switch code {
	case codeMissing:
		return fmt.Errorf("%w (remote: %s)", chaos.ErrColumnMissing, msg)
	case codeUnavailable:
		return fmt.Errorf("%w (remote: %s)", chaos.ErrNodeUnavailable, msg)
	case codeTransient:
		return fmt.Errorf("%w (remote: %s)", chaos.ErrTransient, msg)
	case codeTimeout:
		return fmt.Errorf("%w (remote: %s)", ErrTimeout, msg)
	case codeInvalid:
		return fmt.Errorf("%w (remote: %s)", ErrInvalid, msg)
	default:
		return fmt.Errorf("netio: remote error: %s", msg)
	}
}
