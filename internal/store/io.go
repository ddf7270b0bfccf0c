package store

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"approxcode/internal/chaos"
)

// castagnoli is the CRC-32C polynomial table used for all shard
// checksums (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// colSum is the checksum stored per (stripe, node) column.
func colSum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// RetryPolicy tunes the self-healing I/O path: retries with
// exponential backoff + jitter, deadline-bounded attempts, and hedged
// reads against stragglers.
type RetryPolicy struct {
	// MaxAttempts bounds read/write attempts per column op (default 4).
	MaxAttempts int
	// BaseBackoff is the first retry delay; it doubles per attempt up
	// to MaxBackoff, with full jitter (defaults 200µs / 5ms).
	BaseBackoff, MaxBackoff time.Duration
	// HedgeDelay is how long a read waits before firing a second
	// (hedged) attempt at the same node; the first response wins.
	// Zero uses the default (2ms); negative disables hedging.
	HedgeDelay time.Duration
	// OpDeadline bounds the total time spent on one column operation,
	// including retries and backoff (default 500ms).
	OpDeadline time.Duration
	// Seed seeds the jitter PRNG (deterministic backoff schedules for
	// tests).
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 200 * time.Microsecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Millisecond
	}
	switch {
	case p.HedgeDelay == 0:
		p.HedgeDelay = 2 * time.Millisecond
	case p.HedgeDelay < 0:
		p.HedgeDelay = 0
	}
	if p.OpDeadline <= 0 {
		p.OpDeadline = 500 * time.Millisecond
	}
	return p
}

// ioResult carries one attempt's outcome; hedge marks the backup
// attempt so hedge wins can be counted.
type ioResult struct {
	data  []byte
	err   error
	hedge bool
}

// jitter draws a full-jitter delay in [d/2, d).
func (s *Store) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	s.rngMu.Lock()
	j := time.Duration(s.rng.Int63n(int64(d)/2 + 1))
	s.rngMu.Unlock()
	return d/2 + j
}

// readColumn reads one column through the (possibly fault-injected)
// NodeIO with the full self-healing pipeline: health gating, retries
// with exponential backoff + jitter, hedged attempts against
// stragglers, and an overall deadline. Errors are recorded against the
// node's health state.
func (s *Store) readColumn(node int, object string, stripe int) ([]byte, error) {
	if err := s.readGate(node); err != nil {
		return nil, err
	}
	if s.plainIO {
		// Fast path: no injector wrapping, so the only failure modes
		// are crashes and missing columns — neither is retryable.
		t := s.metrics.nodeRead.Start()
		data, err := s.io.ReadColumn(node, object, stripe)
		t.Stop()
		s.metrics.readAttempts.Inc()
		if err == nil {
			s.metrics.readBytes.Add(int64(len(data)))
			s.health.ok(node)
		}
		return data, err
	}
	deadline := time.Now().Add(s.retry.OpDeadline)
	return s.withRetry(node, deadline, readRetry, func() ([]byte, error) {
		return s.attemptRead(node, object, stripe, deadline)
	})
}

// readColumnAt reads a byte range of one column through the NodeIO.
// When the I/O stack supports partial reads (both colstore backends
// and netio.Client do; a chaos.Injector passes them through) only the
// requested range moves; otherwise the whole column is read and
// sliced. Retries mirror
// readColumn's policy without hedging — a partial read is already the
// cheap path, a straggler just retries.
func (s *Store) readColumnAt(node int, object string, stripe, off, n int) ([]byte, error) {
	if err := s.readGate(node); err != nil {
		return nil, err
	}
	ctx, cancelCtx := context.WithDeadline(context.Background(), time.Now().Add(s.retry.OpDeadline))
	defer cancelCtx()
	cio, hasCtx := s.io.(chaos.CtxIO)
	pr, partial := s.io.(chaos.PartialReader)
	attempt := func() ([]byte, error) {
		t := s.metrics.nodeRead.Start()
		defer t.Stop()
		s.metrics.readAttempts.Inc()
		if hasCtx || partial {
			var data []byte
			var err error
			if hasCtx {
				data, err = cio.ReadColumnAtCtx(ctx, node, object, stripe, off, n)
			} else {
				data, err = pr.ReadColumnAt(node, object, stripe, off, n)
			}
			if err == nil {
				s.metrics.partialReads.Inc()
				s.metrics.partialReadBytes.Add(int64(len(data)))
				s.metrics.readBytes.Add(int64(len(data)))
			}
			return data, err
		}
		col, err := s.io.ReadColumn(node, object, stripe)
		if err != nil {
			return nil, err
		}
		s.metrics.readBytes.Add(int64(len(col)))
		if off < 0 || n < 0 || off+n > len(col) {
			return nil, fmt.Errorf("%w: range [%d,%d) outside column of %d bytes",
				ErrInvalid, off, off+n, len(col))
		}
		return col[off : off+n], nil
	}
	if s.plainIO {
		data, err := attempt()
		if err == nil {
			s.health.ok(node)
		}
		return data, err
	}
	return s.withRetry(node, time.Now().Add(s.retry.OpDeadline), readAtRetry, attempt)
}

// attemptRead performs one read attempt, optionally hedged: if the
// primary attempt has not answered within HedgeDelay, a backup attempt
// fires and the first response of either wins. The attempt is bounded
// by the deadline, which also travels down the I/O stack as a context
// when the backend is context-aware — so an abandoned attempt (the
// hedge loser, or a straggler held by an injected latency) is cancelled
// when this call returns instead of running on in the background.
func (s *Store) attemptRead(node int, object string, stripe int, deadline time.Time) ([]byte, error) {
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	cio, hasCtx := s.io.(chaos.CtxIO)
	ch := make(chan ioResult, 2)
	launch := func(hedge bool) {
		go func() {
			t := s.metrics.nodeRead.Start()
			var data []byte
			var err error
			if hasCtx {
				data, err = cio.ReadColumnCtx(ctx, node, object, stripe)
			} else {
				data, err = s.io.ReadColumn(node, object, stripe)
			}
			t.Stop()
			s.metrics.readAttempts.Inc()
			if err == nil {
				s.metrics.readBytes.Add(int64(len(data)))
			}
			ch <- ioResult{data: data, err: err, hedge: hedge}
		}()
	}
	launch(false)
	if s.retry.HedgeDelay > 0 {
		hedgeTimer := time.NewTimer(s.retry.HedgeDelay)
		select {
		case r := <-ch:
			hedgeTimer.Stop()
			return r.data, r.err
		case <-hedgeTimer.C:
			s.metrics.hedges.Inc()
			launch(true)
		}
	}
	wait := time.NewTimer(time.Until(deadline))
	defer wait.Stop()
	select {
	case r := <-ch:
		if r.hedge && r.err == nil {
			s.metrics.hedgeWins.Inc()
		}
		return r.data, r.err
	case <-wait.C:
		return nil, fmt.Errorf("%w: node %d read %s/%d", ErrTimeout, node, object, stripe)
	}
}

// writeColumn writes one column through the NodeIO with retries (no
// hedging: duplicate writes are idempotent here but pointless).
// ErrNodeUnavailable aborts immediately — callers decide whether a
// crashed target is acceptable.
func (s *Store) writeColumn(node int, object string, stripe int, data []byte) error {
	ctx := context.Background()
	attempt := func() ([]byte, error) {
		t := s.metrics.nodeWrite.Start()
		var err error
		if cio, ok := s.io.(chaos.CtxIO); ok {
			err = cio.WriteColumnCtx(ctx, node, object, stripe, data)
		} else {
			err = s.io.WriteColumn(node, object, stripe, data)
		}
		t.Stop()
		s.metrics.writeAttempts.Inc()
		if err == nil {
			s.metrics.writeBytes.Add(int64(len(data)))
		}
		return nil, err
	}
	if s.plainIO {
		_, err := attempt()
		return err
	}
	deadline := time.Now().Add(s.retry.OpDeadline)
	var cancel context.CancelFunc
	ctx, cancel = context.WithDeadline(ctx, deadline)
	defer cancel()
	_, err := s.withRetry(node, deadline, writeRetry, attempt)
	return err
}

// retryPlan is what differs between the read and write retry loops.
type retryPlan struct {
	// permanent errors end the loop at once: no retry, no health event.
	permanent []error
	// read counts failed attempts as read errors and gives up once the
	// node turns health-failed; a write keeps trying to its budget.
	read bool
}

var (
	// A whole-column read stops when nothing is stored or the node is
	// crashed.
	readRetry = retryPlan{permanent: []error{errColumnMissing, ErrNodeUnavailable}, read: true}
	// A partial read also stops on a range the column cannot serve.
	readAtRetry = retryPlan{permanent: []error{errColumnMissing, ErrNodeUnavailable, chaos.ErrInvalid}, read: true}
	// A write stops only on a crashed node: callers decide whether a
	// crashed target is acceptable.
	writeRetry = retryPlan{permanent: []error{ErrNodeUnavailable}}
)

// withRetry runs attempt until it succeeds, hits a permanent error, or
// exhausts MaxAttempts or the deadline, sleeping an exponential backoff
// with full jitter between attempts (drawn from s.rng, so seeded runs
// back off on the same schedule). Success and failure feed the node's
// health state.
func (s *Store) withRetry(node int, deadline time.Time, plan retryPlan, attempt func() ([]byte, error)) ([]byte, error) {
	backoff := s.retry.BaseBackoff
	var lastErr error
	for try := 0; try < s.retry.MaxAttempts; try++ {
		if try > 0 {
			d := s.jitter(backoff)
			if time.Now().Add(d).After(deadline) {
				break
			}
			time.Sleep(d)
			backoff = min(backoff*2, s.retry.MaxBackoff)
			s.metrics.retries.Inc()
		}
		data, err := attempt()
		if err == nil {
			s.health.ok(node)
			return data, nil
		}
		for _, p := range plan.permanent {
			if errors.Is(err, p) {
				return nil, err
			}
		}
		lastErr = err
		if plan.read {
			s.metrics.readErrors.Inc()
		}
		if s.health.fail(node) == HealthFailed && plan.read {
			break
		}
	}
	return nil, lastErr
}

// readGate refuses reads of a health-failed node and of a node in the
// administrative fail set. The fail set lives in the store, not in the
// backend, so the gate applies to every backend alike.
func (s *Store) readGate(node int) error {
	if s.health.state(node) == HealthFailed {
		return fmt.Errorf("%w: node %d health-failed", ErrNodeUnavailable, node)
	}
	if s.nodeFailed(node) {
		return fmt.Errorf("%w: node %d administratively failed", ErrNodeUnavailable, node)
	}
	return nil
}
