package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeIO is an in-memory NodeIO backend for injector tests.
type fakeIO struct {
	mu   sync.Mutex
	cols map[string][]byte
}

func newFakeIO() *fakeIO { return &fakeIO{cols: make(map[string][]byte)} }

func key(node int, object string, stripe int) string {
	return fmt.Sprintf("%d/%s/%d", node, object, stripe)
}

func (f *fakeIO) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.cols[key(node, object, stripe)]
	if !ok {
		return nil, errors.New("fake: missing")
	}
	return append([]byte(nil), d...), nil
}

func (f *fakeIO) WriteColumn(node int, object string, stripe int, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cols[key(node, object, stripe)] = append([]byte(nil), data...)
	return nil
}

func TestInjectorPassThrough(t *testing.T) {
	io := newFakeIO()
	inj := NewInjector(1)
	wrapped := inj.Wrap(io)
	if err := wrapped.WriteColumn(0, "o", 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := wrapped.ReadColumn(0, "o", 0)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read %q %v", got, err)
	}
	if inj.Stats().Total() != 0 {
		t.Fatalf("faults injected with empty schedule: %+v", inj.Stats())
	}
}

func TestCrashAndTransientErrors(t *testing.T) {
	io := newFakeIO()
	_ = io.WriteColumn(0, "o", 0, []byte("x"))
	_ = io.WriteColumn(1, "o", 0, []byte("y"))
	inj := NewInjector(2,
		Rule{Node: 0, Stripe: Any, Kind: FaultCrash},
		Rule{Node: 1, Stripe: Any, Kind: FaultTransient, Count: 1},
	)
	w := inj.Wrap(io)
	if _, err := w.ReadColumn(0, "o", 0); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("want ErrNodeUnavailable, got %v", err)
	}
	if _, err := w.ReadColumn(1, "o", 0); !errors.Is(err, ErrTransient) {
		t.Fatalf("want ErrTransient, got %v", err)
	}
	// Count=1: the transient rule is exhausted, the next read succeeds.
	if got, err := w.ReadColumn(1, "o", 0); err != nil || string(got) != "y" {
		t.Fatalf("retry after transient: %q %v", got, err)
	}
	st := inj.Stats()
	if st.Crashes != 1 || st.Transients != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCorruptReadLeavesStoredDataIntact(t *testing.T) {
	io := newFakeIO()
	orig := bytes.Repeat([]byte{0xAB}, 64)
	_ = io.WriteColumn(3, "o", 7, append([]byte(nil), orig...))
	inj := NewInjector(3, Rule{Node: 3, Stripe: Any, FromStripe: 7, Kind: FaultCorrupt, Bytes: 2})
	w := inj.Wrap(io)
	got, err := w.ReadColumn(3, "o", 7)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, orig) {
		t.Fatal("read not corrupted")
	}
	diff := 0
	for i := range got {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff == 0 || diff > 2 {
		t.Fatalf("flipped %d bytes, want 1..2", diff)
	}
	// The stored bytes are untouched (corruption was on the wire).
	stored, _ := io.ReadColumn(3, "o", 7)
	if !bytes.Equal(stored, orig) {
		t.Fatal("stored data mutated by read corruption")
	}
}

func TestFromStripeGate(t *testing.T) {
	io := newFakeIO()
	orig := bytes.Repeat([]byte{1}, 32)
	for s := 0; s < 10; s++ {
		_ = io.WriteColumn(3, "o", s, append([]byte(nil), orig...))
	}
	inj := NewInjector(4, Rule{Node: 3, Stripe: Any, FromStripe: 7, Kind: FaultCorrupt})
	w := inj.Wrap(io)
	for s := 0; s < 10; s++ {
		got, err := w.ReadColumn(3, "o", s)
		if err != nil {
			t.Fatal(err)
		}
		clean := bytes.Equal(got, orig)
		if s < 7 && !clean {
			t.Fatalf("stripe %d corrupted before activation", s)
		}
		if s >= 7 && clean {
			t.Fatalf("stripe %d not corrupted", s)
		}
	}
}

func TestTornWriteTruncates(t *testing.T) {
	io := newFakeIO()
	inj := NewInjector(5, Rule{Node: 2, Stripe: Any, Op: OpWrite, Kind: FaultTorn, KeepFraction: 0.25})
	w := inj.Wrap(io)
	data := bytes.Repeat([]byte{7}, 100)
	if err := w.WriteColumn(2, "o", 0, data); err != nil {
		t.Fatal(err)
	}
	stored, _ := io.ReadColumn(2, "o", 0)
	if len(stored) != 25 {
		t.Fatalf("stored %d bytes, want 25", len(stored))
	}
	if len(data) != 100 {
		t.Fatal("caller's buffer truncated")
	}
	if inj.Stats().TornWrites != 1 {
		t.Fatalf("stats %+v", inj.Stats())
	}
	// Torn rules never affect reads.
	if _, err := w.ReadColumn(2, "o", 0); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyInjection(t *testing.T) {
	io := newFakeIO()
	_ = io.WriteColumn(0, "o", 0, []byte("x"))
	inj := NewInjector(6, Rule{Node: 0, Stripe: Any, Kind: FaultLatency, Latency: 30 * time.Millisecond, Count: 1})
	var slept time.Duration
	inj.sleep = func(d time.Duration) { slept += d }
	w := inj.Wrap(io)
	if _, err := w.ReadColumn(0, "o", 0); err != nil {
		t.Fatal(err)
	}
	if slept != 30*time.Millisecond {
		t.Fatalf("slept %v", slept)
	}
	if _, err := w.ReadColumn(0, "o", 0); err != nil {
		t.Fatal(err)
	}
	if slept != 30*time.Millisecond {
		t.Fatalf("count gate ignored: slept %v", slept)
	}
}

func TestRateIsSeededDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		io := newFakeIO()
		_ = io.WriteColumn(0, "o", 0, []byte("x"))
		inj := NewInjector(seed, Rule{Node: 0, Stripe: Any, Kind: FaultTransient, Rate: 0.5})
		w := inj.Wrap(io)
		var outcomes []bool
		for i := 0; i < 64; i++ {
			_, err := w.ReadColumn(0, "o", 0)
			outcomes = append(outcomes, err != nil)
		}
		return outcomes
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
	hits := 0
	for _, v := range a {
		if v {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("rate 0.5 fired %d/%d times", hits, len(a))
	}
}

func TestAfterGate(t *testing.T) {
	io := newFakeIO()
	_ = io.WriteColumn(0, "o", 0, []byte("x"))
	inj := NewInjector(7, Rule{Node: 0, Stripe: Any, Kind: FaultTransient, After: 3})
	w := inj.Wrap(io)
	for i := 0; i < 3; i++ {
		if _, err := w.ReadColumn(0, "o", 0); err != nil {
			t.Fatalf("op %d failed before After gate: %v", i, err)
		}
	}
	if _, err := w.ReadColumn(0, "o", 0); !errors.Is(err, ErrTransient) {
		t.Fatalf("op 4 should fail, got %v", err)
	}
}

func TestClearNode(t *testing.T) {
	io := newFakeIO()
	_ = io.WriteColumn(0, "o", 0, []byte("x"))
	_ = io.WriteColumn(1, "o", 0, []byte("y"))
	inj := NewInjector(8,
		Rule{Node: 0, Stripe: Any, Kind: FaultCrash},
		Rule{Node: 1, Stripe: Any, Kind: FaultCrash},
	)
	w := inj.Wrap(io)
	inj.ClearNode(0)
	if _, err := w.ReadColumn(0, "o", 0); err != nil {
		t.Fatalf("cleared node still faulting: %v", err)
	}
	if _, err := w.ReadColumn(1, "o", 0); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("uncleared node healed: %v", err)
	}
	inj.ClearAll()
	if _, err := w.ReadColumn(1, "o", 0); err != nil {
		t.Fatalf("ClearAll left rules: %v", err)
	}
}

func TestParseSchedule(t *testing.T) {
	rules, err := ParseSchedule("node=3,fault=corrupt,stripe>=7,bytes=2; node=1,fault=transient,rate=0.3 ; op=write,fault=torn,keep=0.7,object=video")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules", len(rules))
	}
	r := rules[0]
	if r.Node != 3 || r.Kind != FaultCorrupt || r.FromStripe != 7 || r.Bytes != 2 || r.Stripe != Any {
		t.Fatalf("rule 0: %+v", r)
	}
	r = rules[1]
	if r.Node != 1 || r.Kind != FaultTransient || r.Rate != 0.3 {
		t.Fatalf("rule 1: %+v", r)
	}
	r = rules[2]
	if r.Node != Any || r.Op != OpWrite || r.Kind != FaultTorn || r.KeepFraction != 0.7 || r.Object != "video" {
		t.Fatalf("rule 2: %+v", r)
	}
}

func TestParseScheduleErrors(t *testing.T) {
	bad := []string{
		"",
		"node=3",                       // missing fault
		"fault=weird",                  // unknown fault
		"fault=crash,node=x",           // bad int
		"fault=crash,rate=2",           // rate out of range
		"fault=torn,keep=1.5",          // keep out of range
		"fault=crash,latency=-3ms",     // negative duration
		"fault=crash,frobnicate=1",     // unknown key
		"fault=crash,stripe>=banana",   // bad threshold
		"fault=crash,op=sideways",      // bad op
		"fault=crash no-equals-here x", // not key=value
	}
	for _, s := range bad {
		if _, err := ParseSchedule(s); err == nil {
			t.Errorf("schedule %q accepted", s)
		}
	}
}

func TestConcurrentInjectorIsRaceFree(t *testing.T) {
	io := newFakeIO()
	for n := 0; n < 4; n++ {
		for s := 0; s < 4; s++ {
			_ = io.WriteColumn(n, "o", s, bytes.Repeat([]byte{byte(n)}, 16))
		}
	}
	inj := NewInjector(9,
		Rule{Node: Any, Stripe: Any, Kind: FaultTransient, Rate: 0.2},
		Rule{Node: 2, Stripe: Any, Kind: FaultCorrupt, Rate: 0.5},
	)
	w := inj.Wrap(io)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, _ = w.ReadColumn(i%4, "o", g%4)
				_ = w.WriteColumn(i%4, "o", g%4, bytes.Repeat([]byte{byte(i)}, 16))
			}
		}(g)
	}
	wg.Wait()
	if inj.Stats().Total() == 0 {
		t.Fatal("no faults injected under concurrency")
	}
}
