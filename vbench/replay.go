package main

import (
	"math/rand"
	"time"

	"approxcode/internal/core"
	"approxcode/internal/gf256"
)

// Layer replays: the lower rungs of the ladder, timed from outside on
// the exact shapes the workloads use — one 48 KiB node column, one
// stripe of the workload code, and the degraded node pair.

const (
	replayWindow  = 20 * time.Millisecond
	replayWindows = 5
)

// rate runs fn in replayWindows windows of about replayWindow each and
// returns the median of bytesPerCall*calls/elapsed, in MB/s.
func rate(bytesPerCall int, fn func()) float64 {
	rates := make([]float64, replayWindows)
	for w := range rates {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < replayWindow {
			fn()
			calls++
		}
		rates[w] = float64(bytesPerCall*calls) / time.Since(t0).Seconds() / 1e6
	}
	return median(rates)
}

// replays returns the MB/s of gf256.MulAddSlice over one column,
// Code.Encode over one stripe (data bytes), and the reconstruction of
// that stripe with the degraded pair erased (data bytes). The pair is
// beyond the unimportant tier's tolerance, which ReconstructErased
// refuses as all-or-nothing; the replay therefore times
// ReconstructReport, the best-effort decode repair falls back to for
// exactly this pattern.
func replays(b *bench) (muladd, encode, decode float64) {
	rng := rand.New(rand.NewSource(b.seed))
	src := make([]byte, nodeSize)
	dst := make([]byte, nodeSize)
	rng.Read(src)
	muladd = rate(nodeSize, func() { gf256.MulAddSlice(0x8e, src, dst) })

	code := b.code
	shards := make([][]byte, code.TotalShards())
	for i := range shards {
		shards[i] = make([]byte, nodeSize)
		if code.Role(i) == core.RoleData {
			rng.Read(shards[i])
		}
	}
	dataBytes := code.DataShards() * nodeSize
	encode = rate(dataBytes, func() {
		if err := code.Encode(shards); err != nil {
			panic(err) // the shapes are fixed and valid; an error is a bug
		}
	})
	work := make([][]byte, len(shards))
	decode = rate(dataBytes, func() {
		copy(work, shards)
		for _, n := range b.pair {
			work[n] = nil
		}
		if _, err := code.ReconstructReport(work, core.Options{}); err != nil {
			panic(err)
		}
	})
	return muladd, encode, decode
}
