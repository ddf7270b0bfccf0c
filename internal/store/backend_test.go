package store

import (
	"bytes"
	"sync/atomic"
	"testing"

	"approxcode/internal/colstore"
	"approxcode/internal/core"
)

// countingBackend is an external chaos.NodeIO + PartialReader: the
// transport-agnostic wiring-point contract test. It is a plain
// colstore.MemBackend handed in through Config.Backend, wrapped to
// count the calls that reach it.
type countingBackend struct {
	*colstore.MemBackend
	reads, partials, writes atomic.Int64
}

func newCountingBackend() *countingBackend {
	return &countingBackend{MemBackend: colstore.NewMemBackend()}
}

func (b *countingBackend) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	b.reads.Add(1)
	return b.MemBackend.ReadColumn(node, object, stripe)
}

func (b *countingBackend) ReadColumnAt(node int, object string, stripe, off, n int) ([]byte, error) {
	b.partials.Add(1)
	return b.MemBackend.ReadColumnAt(node, object, stripe, off, n)
}

func (b *countingBackend) WriteColumn(node int, object string, stripe int, data []byte) error {
	b.writes.Add(1)
	return b.MemBackend.WriteColumn(node, object, stripe, data)
}

func (b *countingBackend) counts() (reads, partials, writes int64) {
	return b.reads.Load(), b.partials.Load(), b.writes.Load()
}

func backendParams() core.Params {
	return core.Params{Family: core.FamilyRS, K: 3, R: 1, G: 2, H: 3, Structure: core.Uneven}
}

// TestExternalBackendRoundTrip: a store over Config.Backend routes all
// column I/O through the external NodeIO with no special-casing — Put,
// Get, GetSegment, Scrub, and repair all work against it.
func TestExternalBackendRoundTrip(t *testing.T) {
	backend := newCountingBackend()
	s, err := Open(Config{Code: backendParams(), NodeSize: 1536, Backend: backend})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	segs := []Segment{
		{ID: 0, Important: true, Data: bytes.Repeat([]byte{1}, 300)},
		{ID: 1, Data: bytes.Repeat([]byte{2}, 450)},
		{ID: 2, Data: bytes.Repeat([]byte{3}, 200)},
	}
	if err := s.Put("video", segs); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, _, writes := backend.counts(); writes == 0 {
		t.Fatalf("writes bypassed the external backend")
	}
	got, rep, err := s.Get("video")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if len(rep.LostSegments) != 0 {
		t.Fatalf("clean read lost segments: %v", rep.LostSegments)
	}
	for i := range segs {
		if !bytes.Equal(got[i].Data, segs[i].Data) {
			t.Fatalf("segment %d differs", i)
		}
	}
	if reads, partials, _ := backend.counts(); reads == 0 && partials == 0 {
		t.Fatalf("reads bypassed the external backend")
	}
	seg, err := s.GetSegment("video", 1)
	if err != nil || !bytes.Equal(seg.Data, segs[1].Data) {
		t.Fatalf("GetSegment: %v", err)
	}
	if _, err := s.Scrub(); err != nil {
		t.Fatalf("scrub: %v", err)
	}
}

// TestExternalBackendFailNodes: the administrative fail set gates reads
// against an external backend (which cannot know about it), the store
// degrades within tolerance, and repair re-provisions through the
// backend.
func TestExternalBackendFailNodes(t *testing.T) {
	backend := newCountingBackend()
	s, err := Open(Config{Code: backendParams(), NodeSize: 1536, Backend: backend})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	segs := []Segment{
		{ID: 0, Important: true, Data: bytes.Repeat([]byte{7}, 400)},
		{ID: 1, Data: bytes.Repeat([]byte{8}, 350)},
	}
	if err := s.Put("video", segs); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := s.FailNodes(1, 5); err != nil {
		t.Fatalf("fail nodes: %v", err)
	}
	got, rep, err := s.Get("video")
	if err != nil {
		t.Fatalf("degraded get: %v", err)
	}
	if len(rep.LostSegments) != 0 {
		t.Fatalf("within-tolerance failure lost segments: %v", rep.LostSegments)
	}
	for i := range segs {
		if !bytes.Equal(got[i].Data, segs[i].Data) {
			t.Fatalf("degraded segment %d differs", i)
		}
	}
	if _, err := s.RepairAll(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	got, rep, err = s.Get("video")
	if err != nil || len(rep.LostSegments) != 0 {
		t.Fatalf("post-repair get: %v %v", rep, err)
	}
	for i := range segs {
		if !bytes.Equal(got[i].Data, segs[i].Data) {
			t.Fatalf("post-repair segment %d differs", i)
		}
	}
}
