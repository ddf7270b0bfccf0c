package store

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"approxcode/internal/core"
)

func TestUpdateSegmentRoundTrip(t *testing.T) {
	segs := makeSegments(t, 30, 6, 31)
	s := openWith(t, segs)
	rng := rand.New(rand.NewSource(32))
	// Update several segments (both tiers, incl. multi-extent ones).
	for _, id := range []int{0, 3, 7, 12, 29} {
		newData := make([]byte, len(segs[id].Data))
		rng.Read(newData)
		if err := s.UpdateSegment("video", id, newData); err != nil {
			t.Fatalf("update %d: %v", id, err)
		}
		segs[id].Data = newData
	}
	got, rep, err := s.Get("video")
	if err != nil || len(rep.LostSegments) != 0 {
		t.Fatalf("get: %v %+v", err, rep)
	}
	checkSegments(t, got, segs, nil)
	// Parity must be consistent: scrub clean.
	scrub, err := s.Scrub()
	if err != nil || len(scrub.Corrupt) != 0 {
		t.Fatalf("scrub after updates: %v %+v", err, scrub)
	}
}

func TestUpdateThenFailureStillRecovers(t *testing.T) {
	// The real point of incremental updates: parity stays live. Update,
	// then crash nodes, then verify the updated data reconstructs.
	segs := makeSegments(t, 24, 6, 33)
	s := openWith(t, segs)
	newData := bytes.Repeat([]byte{0x5A}, len(segs[5].Data))
	if err := s.UpdateSegment("video", 5, newData); err != nil {
		t.Fatal(err)
	}
	segs[5].Data = newData
	dn := s.Code().DataNodeIndexes()
	if err := s.FailNodes(dn[0]); err != nil {
		t.Fatal(err)
	}
	got, rep, err := s.Get("video")
	if err != nil || len(rep.LostSegments) != 0 {
		t.Fatalf("degraded get after update: %v %+v", err, rep)
	}
	checkSegments(t, got, segs, nil)
}

func TestUpdateHealsCorruptColumnBeforeDelta(t *testing.T) {
	segs := makeSegments(t, 24, 6, 36)
	s := openWith(t, segs)
	obj, ok := s.objects.get("video")
	if !ok {
		t.Fatal("object missing")
	}
	st := -1
	for _, e := range obj.extents {
		if e.seg == 5 {
			st = e.stripe
			break
		}
	}
	if st < 0 {
		t.Fatal("segment 5 has no extents")
	}
	// Corrupt one byte of a parity column in segment 5's stripe. An
	// update that consumed the column unverified would fold the damage
	// into its parity delta and re-checksum it as truth — undetectable
	// until a reconstruction leaning on that parity returns wrong bytes.
	parity := -1
	for i := range s.failed {
		if s.code.Role(i) != core.RoleData {
			parity = i
			break
		}
	}
	if err := s.CorruptByte("video", st, parity, 2); err != nil {
		t.Fatal(err)
	}
	newData := bytes.Repeat([]byte{0xA7}, len(segs[5].Data))
	if err := s.UpdateSegment("video", 5, newData); err != nil {
		t.Fatalf("update over corrupt parity: %v", err)
	}
	segs[5].Data = newData
	// The update must have healed the parity before applying its delta:
	// a degraded read that decodes through it is byte-exact.
	dn := s.Code().DataNodeIndexes()
	if err := s.FailNodes(dn[0]); err != nil {
		t.Fatal(err)
	}
	got, rep, err := s.Get("video")
	if err != nil || len(rep.LostSegments) != 0 {
		t.Fatalf("degraded get after update: %v %+v", err, rep)
	}
	checkSegments(t, got, segs, nil)
}

func TestUpdateSegmentValidation(t *testing.T) {
	segs := makeSegments(t, 10, 5, 34)
	s := openWith(t, segs)
	if err := s.UpdateSegment("nope", 0, []byte{1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if err := s.UpdateSegment("video", 99, []byte{1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if err := s.UpdateSegment("video", 0, []byte{1}); err == nil {
		t.Fatal("resize accepted")
	}
	if err := s.FailNodes(0); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateSegment("video", 0, segs[0].Data); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("degraded update: want ErrUnavailable, got %v", err)
	}
}
