package netio

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"approxcode/internal/chaos"
	"approxcode/internal/colstore"
)

// benchColumn is the column size of the benchmark's store shape
// (NodeSize 48 KiB), the size every loopback test and benchmark here
// moves.
const benchColumn = 48 << 10

// loopback starts one DataNode serving backend on 127.0.0.1 and a
// client routed to it as node 0, with hedging off so every read is one
// round trip, over one pooled connection so consecutive requests reuse
// the server's frame buffers.
func loopback(tb testing.TB, backend colstore.Backend) *Client {
	tb.Helper()
	srv, err := NewServer(ServerConfig{Backend: backend})
	if err != nil {
		tb.Fatalf("NewServer: %v", err)
	}
	tb.Cleanup(func() { _ = srv.Close() })
	client, err := Dial(ClientConfig{
		Nodes:    map[int]string{0: srv.Addr()},
		Retry:    RetryPolicy{Seed: 1, HedgeDelay: -1},
		PoolSize: 1,
	})
	if err != nil {
		tb.Fatalf("Dial: %v", err)
	}
	tb.Cleanup(func() { _ = client.Close() })
	return client
}

func columnBytes(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// sendFrame writes one frame over a real TCP connection, so a large
// frame goes through net.Buffers' writev path, and returns the raw
// bytes the peer received.
func sendFrame(t *testing.T, parts ...[]byte) []byte {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer conn.Close()
		raw, _ := io.ReadAll(conn)
		got <- raw
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, parts...); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	_ = conn.Close()
	return <-got
}

// TestGatheredFramesMatchEncoding pins wire compatibility: a frame sent
// as parts (the client's header + column, the server's type byte +
// column) carries exactly the bytes of the single-buffer encoding, so
// decodeWriteReq, opOfPayload and peers built before gathered sends
// parse it unchanged.
func TestGatheredFramesMatchEncoding(t *testing.T) {
	for _, n := range []int{0, 1, 100, coalesceMax, coalesceMax + 1, benchColumn} {
		for _, object := range []string{"", "o", "videos/clip-0001.agop"} {
			data := columnBytes(n, byte(len(object)))
			name := fmt.Sprintf("%d/%q", n, object)

			want := encodeWriteReq(5, object, 9, data)
			wire := sendFrame(t, writeReqHeader(5, object, 9, len(data)), data)
			payload, err := readFrame(bytes.NewReader(wire))
			if err != nil {
				t.Fatalf("%s: readFrame: %v", name, err)
			}
			if !bytes.Equal(payload, want) || len(wire) != 4+len(want) {
				t.Fatalf("%s: gathered write request differs from encodeWriteReq", name)
			}
			wr, err := decodeWriteReq(payload[1:])
			if err != nil || wr.node != 5 || wr.stripe != 9 || wr.object != object || !bytes.Equal(wr.data, data) {
				t.Fatalf("%s: decodeWriteReq = %+v, %v", name, wr, err)
			}
			op, ok := opOfPayload(payload)
			if !ok || op != (chaos.Op{Kind: chaos.OpWrite, Node: 5, Object: object, Stripe: 9}) {
				t.Fatalf("%s: opOfPayload = %+v, %v", name, op, ok)
			}

			// A data reply: type byte + backend slice.
			wire = sendFrame(t, dataRespHdr, data)
			typ, body, err := readResp(bytes.NewReader(wire))
			if err != nil || typ != msgDataResp || !bytes.Equal(body, data) {
				t.Fatalf("%s: data reply = 0x%02x, %d bytes, %v", name, byte(typ), len(body), err)
			}
			if !bytes.Equal(wire[4:], append([]byte{byte(msgDataResp)}, data...)) {
				t.Fatalf("%s: gathered data reply differs from the single-buffer encoding", name)
			}
		}
	}
}

// recordingBackend is a MemBackend that records every slice the
// DataNode lends it in WriteColumn, together with a snapshot of the
// bytes it held during the call.
type recordingBackend struct {
	*MemBackend
	mu     sync.Mutex
	lent   [][]byte
	copies [][]byte
}

func (r *recordingBackend) WriteColumn(node int, object string, stripe int, data []byte) error {
	r.mu.Lock()
	r.lent = append(r.lent, data)
	r.copies = append(r.copies, append([]byte(nil), data...))
	r.mu.Unlock()
	return r.MemBackend.WriteColumn(node, object, stripe, data)
}

// TestServerPooledFramesAreBorrowed checks the DataNode's pooled receive
// buffers against the chaos.NodeIO contract: WriteColumn only borrows
// data, so the server recycles the frame as soon as the call returns.
// The recorded slices show the recycling (later frames overwrite
// them); every stored column must still hold the bytes that were sent,
// which fails if the backend kept a borrowed buffer instead of copying.
func TestServerPooledFramesAreBorrowed(t *testing.T) {
	backend := &recordingBackend{MemBackend: NewMemBackend()}
	client := loopback(t, backend)
	const writes = 64
	for i := 0; i < writes; i++ {
		if err := client.WriteColumn(0, "obj", i, columnBytes(benchColumn, byte(i))); err != nil {
			t.Fatalf("WriteColumn %d: %v", i, err)
		}
	}

	// The server's last buffer write happened before the last recorded
	// WriteColumn, and no request is in flight: the lock orders it.
	backend.mu.Lock()
	recycled := 0
	for i, lent := range backend.lent {
		if !bytes.Equal(lent, backend.copies[i]) {
			recycled++
		}
	}
	backend.mu.Unlock()
	if recycled == 0 {
		t.Fatalf("no lent buffer of %d was reused: the server is not pooling its frames", writes)
	}
	for i := 0; i < writes; i++ {
		got, err := backend.MemBackend.ReadColumn(0, "obj", i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, columnBytes(benchColumn, byte(i))) {
			t.Fatalf("column %d changed after the server recycled its frame: the backend kept a borrowed buffer", i)
		}
	}
}

// BenchmarkNetWriteColumn is one 48 KiB column write over loopback TCP
// into a MemBackend DataNode.
func BenchmarkNetWriteColumn(b *testing.B) {
	client := loopback(b, NewMemBackend())
	col := columnBytes(benchColumn, 1)
	b.SetBytes(benchColumn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.WriteColumn(0, "obj", i%64, col); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetReadColumn is one whole 48 KiB column read over loopback
// TCP from a MemBackend DataNode.
func BenchmarkNetReadColumn(b *testing.B) {
	client := loopback(b, NewMemBackend())
	if err := client.WriteColumn(0, "obj", 0, columnBytes(benchColumn, 1)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchColumn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.ReadColumn(0, "obj", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetReadColumnAt is one 4 KiB partial-column read over
// loopback TCP, the shape of a segment read's sub-block fetch.
func BenchmarkNetReadColumnAt(b *testing.B) {
	const n = 4 << 10
	client := loopback(b, NewMemBackend())
	if err := client.WriteColumn(0, "obj", 0, columnBytes(benchColumn, 1)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * n) % (benchColumn - n)
		if _, err := client.ReadColumnAt(0, "obj", 0, off, n); err != nil {
			b.Fatal(err)
		}
	}
}
