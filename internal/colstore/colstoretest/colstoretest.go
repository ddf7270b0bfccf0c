// Package colstoretest is the shared conformance suite for column
// backends: colstore's in-memory and file backends and a netio.Client
// in front of a DataNode all run Run from their tests, so the NodeIO
// contract is asserted once here instead of per backend.
package colstoretest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"approxcode/internal/chaos"
	"approxcode/internal/colstore"
)

// Nodes is how many node indexes the suite uses, 0 through Nodes-1. A
// networked backend must route all of them.
const Nodes = 4

// column returns deterministic, non-zero test bytes for a column.
func column(node int, object string, stripe, size int) []byte {
	out := make([]byte, size)
	seed := byte(node*31 + stripe*7 + len(object))
	for i := range out {
		out[i] = seed + byte(i*13) | 1
	}
	return out
}

func mustWrite(t *testing.T, b colstore.Backend, node int, object string, stripe int, data []byte) {
	t.Helper()
	if err := b.WriteColumn(node, object, stripe, data); err != nil {
		t.Fatalf("WriteColumn(%d, %q, %d): %v", node, object, stripe, err)
	}
}

func mustRead(t *testing.T, b colstore.Backend, node int, object string, stripe int, want []byte) {
	t.Helper()
	got, err := b.ReadColumn(node, object, stripe)
	if err != nil {
		t.Fatalf("ReadColumn(%d, %q, %d): %v", node, object, stripe, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadColumn(%d, %q, %d) = %d bytes, not the %d written", node, object, stripe, len(got), len(want))
	}
}

func wantMissing(t *testing.T, b colstore.Backend, node int, object string, stripe int) {
	t.Helper()
	if got, err := b.ReadColumn(node, object, stripe); !errors.Is(err, chaos.ErrColumnMissing) {
		t.Fatalf("ReadColumn(%d, %q, %d) = %d bytes, %v; want ErrColumnMissing", node, object, stripe, len(got), err)
	}
	if got, err := b.ReadColumnAt(node, object, stripe, 0, 1); !errors.Is(err, chaos.ErrColumnMissing) {
		t.Fatalf("ReadColumnAt(%d, %q, %d) = %d bytes, %v; want ErrColumnMissing", node, object, stripe, len(got), err)
	}
}

// Run executes the conformance suite as subtests. Each subtest uses its
// own object names, so the backend may start non-empty.
func Run(t *testing.T, b colstore.Backend) {
	t.Helper()
	t.Run("ReadAfterWrite", func(t *testing.T) { testReadAfterWrite(t, b) })
	t.Run("BufferContract", func(t *testing.T) { testBufferContract(t, b) })
	t.Run("Missing", func(t *testing.T) { testMissing(t, b) })
	t.Run("ZeroLengthWriteDeletes", func(t *testing.T) { testDelete(t, b) })
	t.Run("ReadAtRange", func(t *testing.T) { testReadAtRange(t, b) })
	t.Run("ConcurrentNodes", func(t *testing.T) { testConcurrent(t, b) })
}

func testReadAfterWrite(t *testing.T, b colstore.Backend) {
	// Names with separators, dots and NUL must be stored verbatim.
	objects := []string{"raw/a", "raw.b", "raw\x00r"}
	for node := 0; node < Nodes; node++ {
		for _, obj := range objects {
			for stripe := 0; stripe < 3; stripe++ {
				mustWrite(t, b, node, obj, stripe, column(node, obj, stripe, 96))
			}
		}
	}
	for node := 0; node < Nodes; node++ {
		for _, obj := range objects {
			for stripe := 0; stripe < 3; stripe++ {
				want := column(node, obj, stripe, 96)
				mustRead(t, b, node, obj, stripe, want)
				part, err := b.ReadColumnAt(node, obj, stripe, 17, 40)
				if err != nil || !bytes.Equal(part, want[17:57]) {
					t.Fatalf("ReadColumnAt(%d, %q, %d, 17, 40): %v", node, obj, stripe, err)
				}
			}
		}
	}
	// An overwrite replaces the column, including its length.
	shorter := column(9, "raw/a", 1, 50)
	mustWrite(t, b, 2, "raw/a", 1, shorter)
	mustRead(t, b, 2, "raw/a", 1, shorter)
}

func testBufferContract(t *testing.T, b colstore.Backend) {
	const obj = "borrow"
	want := column(1, obj, 0, 128)
	buf := append([]byte(nil), want...)
	mustWrite(t, b, 1, obj, 0, buf)
	// The write borrowed buf only for the call.
	for i := range buf {
		buf[i] = 0xEE
	}
	mustRead(t, b, 1, obj, 0, want)
	// The caller owns what a read returns.
	got, err := b.ReadColumn(1, obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] ^= 0xFF
	}
	part, err := b.ReadColumnAt(1, obj, 0, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range part {
		part[i] ^= 0xFF
	}
	mustRead(t, b, 1, obj, 0, want)
}

func testMissing(t *testing.T, b colstore.Backend) {
	mustWrite(t, b, 0, "present", 0, column(0, "present", 0, 32))
	wantMissing(t, b, 0, "absent", 0)  // object never written
	wantMissing(t, b, 0, "present", 1) // stripe never written
	wantMissing(t, b, 1, "present", 0) // same column name, other node
	wantMissing(t, b, Nodes-1, "absent-everywhere", 5)
}

func testDelete(t *testing.T, b colstore.Backend) {
	const obj = "deleted"
	for stripe, empty := range [][]byte{nil, {}} {
		mustWrite(t, b, 2, obj, stripe, column(2, obj, stripe, 64))
		mustWrite(t, b, 2, obj, stripe, empty)
		wantMissing(t, b, 2, obj, stripe)
	}
	// Deleting what was never written is not an error.
	mustWrite(t, b, 3, "never-written", 0, nil)
	wantMissing(t, b, 3, "never-written", 0)
	// A deleted column can be written again.
	again := column(2, obj, 0, 48)
	mustWrite(t, b, 2, obj, 0, again)
	mustRead(t, b, 2, obj, 0, again)
}

func testReadAtRange(t *testing.T, b colstore.Backend) {
	const obj = "ranged"
	col := column(1, obj, 0, 100)
	mustWrite(t, b, 1, obj, 0, col)
	for _, r := range []struct{ off, n int }{
		{-1, 10},
		{0, -1},
		{95, 10},
		{100, 1},
		{101, 0},
		{math.MaxInt - 1, 2}, // off+n overflows int
		{2, math.MaxInt},     // so does this one
		{math.MaxInt, math.MaxInt},
	} {
		got, err := b.ReadColumnAt(1, obj, 0, r.off, r.n)
		if !errors.Is(err, chaos.ErrInvalid) {
			t.Fatalf("ReadColumnAt(off=%d, n=%d) = %d bytes, %v; want ErrInvalid", r.off, r.n, len(got), err)
		}
	}
	// The boundary cases are inside the column.
	if got, err := b.ReadColumnAt(1, obj, 0, 0, 100); err != nil || !bytes.Equal(got, col) {
		t.Fatalf("whole-column ReadColumnAt: %v", err)
	}
	if got, err := b.ReadColumnAt(1, obj, 0, 99, 1); err != nil || !bytes.Equal(got, col[99:]) {
		t.Fatalf("last-byte ReadColumnAt: %v", err)
	}
}

// testConcurrent drives every node from its own goroutines — writes,
// overwrites, deletes and reads — while readers of other nodes run
// alongside. Run it under -race.
func testConcurrent(t *testing.T, b colstore.Backend) {
	const rounds = 40
	var wg sync.WaitGroup
	errs := make(chan error, 2*Nodes)
	for node := 0; node < Nodes; node++ {
		obj := fmt.Sprintf("hammer-%d", node)
		wg.Add(2)
		go func(node int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				stripe := i % 4
				want := column(node, obj, i, 64+i)
				if err := b.WriteColumn(node, obj, stripe, want); err != nil {
					errs <- err
					return
				}
				got, err := b.ReadColumn(node, obj, stripe)
				if err != nil || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("node %d round %d: read-after-write: %v", node, i, err)
					return
				}
				if i%5 == 4 {
					if err := b.WriteColumn(node, obj, stripe, nil); err != nil {
						errs <- err
						return
					}
					if _, err := b.ReadColumn(node, obj, stripe); !errors.Is(err, chaos.ErrColumnMissing) {
						errs <- fmt.Errorf("node %d round %d: deleted column read: %v", node, i, err)
						return
					}
				}
			}
		}(node)
		// A second goroutine reads another node's columns: any answer
		// the contract allows is fine, a torn or shared buffer is not.
		go func(node int) {
			defer wg.Done()
			other := (node + 1) % Nodes
			otherObj := fmt.Sprintf("hammer-%d", other)
			for i := 0; i < rounds; i++ {
				got, err := b.ReadColumnAt(other, otherObj, i%4, 0, 16)
				if err != nil && !errors.Is(err, chaos.ErrColumnMissing) {
					errs <- fmt.Errorf("reader of node %d: %v", other, err)
					return
				}
				for j := range got {
					got[j] = 0
				}
			}
		}(node)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
