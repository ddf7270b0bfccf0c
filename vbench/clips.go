package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"approxcode/internal/core"
	"approxcode/internal/store"
	"approxcode/internal/video"
)

// The one store shape every workload uses: the 38-node code the
// storageserver example deploys, with 48 KiB per node per stripe.
var codeParams = core.Params{Family: core.FamilyRS, K: 5, R: 1, G: 2, H: 6, Structure: core.Even}

const (
	nodeSize = 48 << 10
	// A clip is 4 s of 256x144 video at 60 fps with a 30-frame GOP:
	// 240 frames, 8 of them I frames, about 2.1 MB.
	clipW, clipH, clipFrames = 256, 144, 240
	// poolClips distinct clips are generated once per run; catalog
	// objects cycle through them with a per-object stamp, so every
	// object's bytes are unique without generating every object.
	poolClips = 2
	// clipSeed is the first clip's video seed. Clip pixels and frame
	// sizes do not follow --seed: frame sizes decide how many stripes a
	// clip takes (5 or 6 today), so seed-drawn sizes would make the
	// storage cost, and every throughput downstream of it, jump between
	// seeds. The seed drives the stamps, key choices and op order.
	clipSeed = 1
)

// bench holds what every cycle of a run shares.
type bench struct {
	seed int64
	tmp  string
	code *core.Code
	// pair is the degraded workload's failure: two data nodes of local
	// group 0, beyond r for P/B frames and within r+g for I frames.
	pair []int
	// pool holds the generated clips and genTime what generating them
	// took (part of setup_s).
	pool    [][]store.Segment
	genTime time.Duration
}

func newBench(seed int64, tmp string) (*bench, error) {
	code, err := core.New(codeParams)
	if err != nil {
		return nil, err
	}
	dn := code.DataNodeIndexes()
	b := &bench{seed: seed, tmp: tmp, code: code, pair: []int{dn[0], dn[1]}}
	if err := b.guardPair(); err != nil {
		return nil, err
	}
	return b, nil
}

// guardPair asserts the degraded pattern is the paper's scenario: the
// unimportant tier cannot survive it and the important tier can. A
// change to the code parameters that broke this would silently turn
// the degraded workload into a single-tolerance read test.
func (b *bench) guardPair() error {
	if b.code.StripeOf(b.pair[0]) != b.code.StripeOf(b.pair[1]) {
		return fmt.Errorf("%w: nodes %v are not in one local group", errGuard, b.pair)
	}
	impOK, unimpOK := b.code.Survival(b.pair)
	if !impOK || unimpOK {
		return fmt.Errorf("%w: failing nodes %v of %s must lose P/B frames but keep I frames (important survives=%v, unimportant survives=%v)",
			errGuard, b.pair, b.code.Name(), impOK, unimpOK)
	}
	return nil
}

func clients() int { return runtime.NumCPU() }

// generate makes the clip pool: each clip goes through the container
// format, so segments are real I/P/B frames tagged by the
// identification module's parser.
func (b *bench) generate() error {
	t0 := time.Now()
	pool := make([][]store.Segment, poolClips)
	for i := range pool {
		cfg := video.DefaultConfig()
		cfg.Width, cfg.Height = clipW, clipH
		cfg.Seed = clipSeed + int64(i)
		st, err := video.Generate(cfg, clipFrames)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := video.WriteStream(&buf, st); err != nil {
			return err
		}
		_, frames, err := video.ParseStream(&buf)
		if err != nil {
			return err
		}
		segs := make([]store.Segment, len(frames))
		for j, f := range frames {
			segs[j] = store.Segment{ID: f.Index, Important: f.Important(), Data: f.Payload}
		}
		pool[i] = segs
	}
	b.pool, b.genTime = pool, time.Since(t0)
	return nil
}

// object is one catalog entry: a name and the exact bytes it holds.
type object struct {
	name  string
	segs  []store.Segment
	bytes int64
}

// makeObjects builds n objects named prefix<i> from the pool. Each is
// a copy of a pool clip with each frame's first bytes overwritten by a
// stamp unique to (seed, object, frame), so a read served from the
// wrong object or frame cannot match.
func makeObjects(pool [][]store.Segment, prefix string, seed int64, n int) []object {
	objs := make([]object, n)
	for i := range objs {
		src := pool[i%len(pool)]
		segs := make([]store.Segment, len(src))
		var total int64
		for j, s := range src {
			data := append([]byte(nil), s.Data...)
			var st [8]byte
			binary.LittleEndian.PutUint64(st[:], uint64(seed)<<24^uint64(i)<<12^uint64(j))
			copy(data, st[:])
			segs[j] = store.Segment{ID: s.ID, Important: s.Important, Data: data}
			total += int64(len(data))
		}
		objs[i] = object{name: fmt.Sprintf("%s%03d", prefix, i), segs: segs, bytes: total}
	}
	return objs
}
