package main

import (
	"errors"
	"fmt"
	"testing"

	"approxcode/internal/core"
	"approxcode/internal/store"
)

func testBench(t *testing.T) *bench {
	t.Helper()
	b, err := newBench(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func seg(id int, important bool, fill byte) store.Segment {
	data := make([]byte, 64)
	for i := range data {
		data[i] = fill + byte(i)
	}
	return store.Segment{ID: id, Important: important, Data: data}
}

func clone(s store.Segment) store.Segment {
	s.Data = append([]byte(nil), s.Data...)
	return s
}

func TestCheckerSegment(t *testing.T) {
	b := testBench(t)
	healthy := newChecker(b.code, nil)
	pair := newChecker(b.code, b.pair)
	single := newChecker(b.code, b.pair[:1])
	iFrame, pFrame := seg(0, true, 1), seg(1, false, 2)
	unavailable := fmt.Errorf("%w: segment", store.ErrUnavailable)

	corrupted := clone(pFrame)
	corrupted.Data[10] ^= 0xff
	zeroI := store.Segment{ID: 0, Important: true, Data: make([]byte, len(iFrame.Data))}

	cases := []struct {
		name       string
		chk        checker
		want, got  store.Segment
		err        error
		wantApprox bool
		wantErr    bool
	}{
		{"exact", healthy, pFrame, clone(pFrame), nil, false, false},
		{"byte mismatch", healthy, pFrame, corrupted, nil, false, true},
		{"corrupted expectation", healthy, corrupted, clone(pFrame), nil, false, true},
		{"zero-filled I frame", pair, iFrame, zeroI, nil, false, true},
		{"wrong segment", healthy, pFrame, clone(iFrame), nil, false, true},
		{"lost P/B beyond tolerance", pair, pFrame, store.Segment{}, unavailable, true, false},
		{"lost P/B within tolerance", single, pFrame, store.Segment{}, unavailable, false, true},
		{"lost P/B healthy", healthy, pFrame, store.Segment{}, unavailable, false, true},
		{"lost I frame", pair, iFrame, store.Segment{}, unavailable, false, true},
		{"other error", pair, pFrame, store.Segment{}, errors.New("boom"), false, true},
	}
	for _, tc := range cases {
		approx, err := tc.chk.segment(tc.want, tc.got, tc.err)
		if approx != tc.wantApprox || (err != nil) != tc.wantErr {
			t.Errorf("%s: approx=%v err=%v, want approx=%v err=%v", tc.name, approx, err, tc.wantApprox, tc.wantErr)
		}
	}
}

func TestCheckerObject(t *testing.T) {
	b := testBench(t)
	pair := newChecker(b.code, b.pair)
	want := []store.Segment{seg(0, true, 1), seg(1, false, 2), seg(2, false, 3)}
	got := func() []store.Segment {
		out := make([]store.Segment, len(want))
		for i, s := range want {
			out[i] = clone(s)
		}
		return out
	}

	if n, err := pair.object(want, got(), nil, nil); n != 0 || err != nil {
		t.Fatalf("exact object: approx=%d err=%v", n, err)
	}
	lostPB := got()
	lostPB[1].Data = make([]byte, len(lostPB[1].Data))
	if n, err := pair.object(want, lostPB, []int{1}, nil); n != 1 || err != nil {
		t.Fatalf("lost P/B under the pair: approx=%d err=%v", n, err)
	}
	if _, err := newChecker(b.code, nil).object(want, lostPB, []int{1}, nil); err == nil {
		t.Fatal("lost P/B on a healthy store passed")
	}
	zeroI := got()
	zeroI[0].Data = make([]byte, len(zeroI[0].Data))
	if _, err := pair.object(want, zeroI, nil, nil); err == nil {
		t.Fatal("unreported zero-filled I frame passed")
	}
	if _, err := pair.object(want, zeroI, []int{0}, nil); err == nil {
		t.Fatal("reported-lost I frame passed")
	}
	if _, err := pair.object(want, zeroI, nil, map[int]bool{1: true}); err == nil {
		t.Fatal("zero-filled I frame passed when only a P/B frame was abandoned")
	}
	bad := got()
	bad[2].Data[0] ^= 1
	if _, err := pair.object(want, bad, nil, nil); err == nil {
		t.Fatal("byte mismatch passed")
	}
	if _, err := pair.object(want, got()[:2], nil, nil); err == nil {
		t.Fatal("short object passed")
	}
}

func TestCheckerRepairLosses(t *testing.T) {
	b := testBench(t)
	objs := []object{{name: "a", segs: []store.Segment{seg(0, true, 1), seg(1, false, 2)}}}
	pair := newChecker(b.code, b.pair)
	zeroed, err := pair.repairLosses(objs, map[string][]int{"a": {1}})
	if err != nil || !zeroed["a"][1] {
		t.Fatalf("P/B loss under the pair: zeroed=%v err=%v", zeroed, err)
	}
	if _, err := pair.repairLosses(objs, map[string][]int{"a": {0}}); err == nil {
		t.Fatal("abandoned I frame passed")
	}
	if _, err := newChecker(b.code, b.pair[:1]).repairLosses(objs, map[string][]int{"a": {1}}); err == nil {
		t.Fatal("P/B loss within tolerance passed")
	}
	if _, err := pair.repairLosses(objs, map[string][]int{"b": {1}}); err == nil {
		t.Fatal("loss in an unknown object passed")
	}
}

func TestGuardPair(t *testing.T) {
	b := testBench(t)
	if err := b.guardPair(); err != nil {
		t.Fatalf("workload pair rejected: %v", err)
	}
	// With r=2 the pair is within the unimportant tier's tolerance: the
	// degraded workload would no longer produce approximate reads.
	code, err := core.New(core.Params{Family: core.FamilyRS, K: 5, R: 2, G: 2, H: 6, Structure: core.Even})
	if err != nil {
		t.Fatal(err)
	}
	b.code = code
	if err := b.guardPair(); !errors.Is(err, errGuard) {
		t.Fatalf("survivable pair passed the guard: %v", err)
	}
}

// runCorrect runs one cycle of wl against a real store and returns the
// run's verdict.
func runCorrect(t *testing.T, wl workload) result {
	t.Helper()
	b := testBench(t)
	if err := b.generate(); err != nil {
		t.Fatal(err)
	}
	cy, err := runCycle(b, wl, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	a := aggregate{}
	a.add(cy)
	return a.result(nil)
}

func TestRunChecksEveryByte(t *testing.T) {
	if testing.Short() {
		t.Skip("generates clips")
	}
	if r := runCorrect(t, func(cy *cycle) error {
		if err := catalog(cy, cy.storeConfig()); err != nil {
			return err
		}
		cy.verify(nil, true)
		return cy.drill()
	}); !r.Correct || r.Failed != 0 {
		t.Fatalf("clean run failed: %+v", r)
	}
	// One flipped byte in the expectation of an I frame, not in the
	// store, must fail the run.
	if r := runCorrect(t, func(cy *cycle) error {
		if err := catalog(cy, cy.storeConfig()); err != nil {
			return err
		}
		cy.objs[3].segs[0].Data[100] ^= 0xff
		cy.verify(nil, true)
		return nil
	}); r.Correct || r.Failed != 1 {
		t.Fatalf("corrupted expectation: %+v", r)
	}
	// Four failed nodes in one local group exceed r+g: the store returns
	// I frames zero-filled, and the run must fail.
	if r := runCorrect(t, func(cy *cycle) error {
		if err := catalog(cy, cy.storeConfig()); err != nil {
			return err
		}
		dn := cy.b.code.DataNodeIndexes()
		cy.failed = dn[:4]
		if err := cy.st.FailNodes(cy.failed...); err != nil {
			return err
		}
		cy.verify(nil, true)
		return nil
	}); r.Correct {
		t.Fatalf("zero-filled I frames passed: %+v", r)
	}
}
