// The race runtime deliberately drops a share of sync.Pool puts, which
// inflates the pooled server's allocations, so the byte gate runs only
// in normal builds.

//go:build !race

package netio

import (
	"runtime"
	"testing"
)

// allocPerRoundTrip returns the bytes allocated process-wide per call of
// op, after a warm-up that fills the connection and frame pools.
func allocPerRoundTrip(t *testing.T, op func() error) float64 {
	t.Helper()
	const warm, rounds = 16, 200
	for i := 0; i < warm; i++ {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / rounds
}

// TestLoopbackAllocGate bounds the bytes one 48 KiB column round trip
// allocates across client, loopback TCP and DataNode together. A write
// may allocate only the backend's stored copy (the request frame is
// pooled and the client sends the caller's slice); a whole-column read
// only the backend's copy plus the client's exact-size result. Before
// gathered sends and pooled frames both were about 4x the column.
func TestLoopbackAllocGate(t *testing.T) {
	client := loopback(t, NewMemBackend())
	col := columnBytes(benchColumn, 3)

	write := allocPerRoundTrip(t, func() error { return client.WriteColumn(0, "obj", 0, col) })
	read := allocPerRoundTrip(t, func() error {
		_, err := client.ReadColumn(0, "obj", 0)
		return err
	})
	t.Logf("allocated per 48 KiB round trip: write %.0f B (%.2fx), read %.0f B (%.2fx)",
		write, write/benchColumn, read, read/benchColumn)
	if limit := 1.25 * benchColumn; write > limit {
		t.Errorf("WriteColumn allocates %.0f B per round trip, gate %.0f B (1.25x the column)", write, limit)
	}
	if limit := 2.25 * benchColumn; read > limit {
		t.Errorf("ReadColumn allocates %.0f B per round trip, gate %.0f B (2.25x the column)", read, limit)
	}
}
