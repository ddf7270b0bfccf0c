package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"approxcode/internal/chaos"
	"approxcode/internal/colstore"
	"approxcode/internal/obs"
)

// The write-ahead journal makes the store crash-consistent: every
// mutating operation (Put, UpdateSegment, FailNodes, repair commits)
// appends a redo record — and syncs it — before the mutation is
// applied, so an operation is acknowledged only once it is durable.
// Recover replays the journal on top of the newest complete snapshot
// generation; a record is self-checking (length + CRC-32C), so a crash
// mid-append leaves a torn tail that replay detects and discards —
// exactly the unacknowledged suffix.
//
// Layout: an 8-byte magic header, then records of
//
//	| seq uint64 | type uint8 | len uint32 | crc32c uint32 | payload |
//
// with sequence numbers strictly increasing. The snapshot manifest
// stores the last sequence it covers; replay skips records at or below
// it, which makes journal truncation after Save a pure space
// optimization rather than a correctness step.

var journalMagic = []byte("APPRJNL1")

const (
	journalFile      = "store.journal"
	journalHdrLen    = 17       // seq(8) + type(1) + len(4) + crc(4)
	maxJournalRecord = 64 << 20 // sanity bound on one record's payload
)

// recType tags a journal record's payload.
type recType uint8

const (
	recPut recType = iota + 1
	recUpdate
	recFailNodes
	recRepairStart
	recRepairStripe
	recRepairDone
	// recMigrateBegin / recMigrateCommit bracket a tier migration. The
	// begin record marks intent (a dangling begin means the process
	// died mid-build: recovery deletes whatever partial target
	// redundancy exists and keeps the old tier); the commit record is
	// the migration's durability point — replay re-derives the target
	// tier's redundancy from the data columns and swaps the tier.
	recMigrateBegin
	recMigrateCommit
)

// Journal record payloads, gob-encoded.

type putRecord struct {
	Name     string
	Segments []Segment
}

type updateRecord struct {
	Name string
	ID   int
	Data []byte
}

type failRecord struct {
	Nodes []int
}

// repairStartRecord opens a repair run. The run's ID is this record's
// own sequence number; checkpoints and the done record carry it so
// stale checkpoints from superseded runs are not mistaken for progress
// of the live one.
type repairStartRecord struct {
	Failed []int
}

// repairStripeRecord is a repair commit checkpoint. It carries the
// rebuilt column bytes, so a checkpointed stripe is durable the moment
// the record is synced: recovery replays the columns onto the
// replacement nodes and a resumed repair skips the stripe entirely.
type repairStripeRecord struct {
	ID     uint64
	Object string
	Stripe int
	// Cols are the columns written back by this commit (rebuilt,
	// healed, and re-encoded parity), keyed by node index.
	Cols map[int][]byte
	// Sums are the published CRC-32C column checksums for Cols.
	Sums map[int]uint32
	// Lost lists segment IDs this stripe abandoned (zero-filled
	// unimportant data), so a resumed repair's report stays complete.
	Lost []int
}

type repairDoneRecord struct {
	ID       uint64
	Unfailed []int
}

// migrateRecord carries one tier migration (both the begin and the
// commit record). From lets recovery know which redundancy set a
// dangling or committed migration was moving between without trusting
// the in-memory tier, which died with the process.
type migrateRecord struct {
	Name     string
	From, To int // tier.Level values
}

// journalRecord is one decoded record.
type journalRecord struct {
	Seq     uint64
	Type    recType
	Payload []byte
}

func (r journalRecord) decode(v any) error {
	return gob.NewDecoder(bytes.NewReader(r.Payload)).Decode(v)
}

// journal is the append handle. Appends group-commit: concurrent
// appenders enqueue their records and the first one in becomes the
// batch leader, writing every queued record in one buffer and paying
// one fsync for all of them; followers block until the leader's sync
// covers their record. An append therefore still returns only once its
// record is durable — the acknowledged-survives invariant is untouched
// — but under N concurrent writers the fsync cost is amortized over
// the whole batch instead of paid per record. The crash hooks thread
// the chaos.Crasher's torn-append point through the middle of the
// batch write and a batch-boundary point between the write and the
// sync.
type journal struct {
	path  string
	crash *chaos.Crasher
	// perOp disables coalescing: the leader commits one record per
	// batch, reproducing the pre-group-commit one-fsync-per-op
	// behaviour (the benchmark baseline, Config.NoGroupCommit).
	perOp bool
	// Batch telemetry (nil-safe obs handles; wired by attachJournal).
	batches    *obs.Counter
	records    *obs.Counter
	batchBytes *obs.Counter

	mu     sync.Mutex
	f      *os.File
	seq    uint64 // last durable (synced) sequence
	queue  []*pendingAppend
	leader bool
	wbuf   []byte // leader's reusable batch buffer
	// crashed is set when a batch commit panicked (a simulated process
	// death): the file may end in a torn record, so every queued and
	// later append fails with it instead of being written after the
	// tear, where recovery could never read it back.
	crashed error
}

// pendingAppend is one queued record waiting for a batch commit.
type pendingAppend struct {
	t        recType
	body     []byte
	seq      uint64
	err      error
	finished bool
	done     chan struct{}
}

// maxBatchBufRetain caps the batch buffer capacity the journal keeps
// between commits; a pathological jumbo batch is served by a one-off
// allocation instead of pinning its memory forever.
const maxBatchBufRetain = 1 << 20

// lastSeq returns the last appended (durable) sequence number.
func (j *journal) lastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// createJournal writes a fresh journal (header only) at path,
// atomically replacing any existing file.
func createJournal(path string, lastSeq uint64, crash *chaos.Crasher) (*journal, error) {
	if err := colstore.WriteFileAtomic(path, journalMagic); err != nil {
		return nil, fmt.Errorf("store journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store journal: %w", err)
	}
	return &journal{path: path, f: f, seq: lastSeq, crash: crash}, nil
}

// openJournal opens path for appending, truncating it to validLen (the
// checked prefix readJournal accepted) so a torn tail can never be
// misread as data by a later reader. A missing or header-less file is
// recreated fresh.
func openJournal(path string, validLen int64, lastSeq uint64, crash *chaos.Crasher) (*journal, error) {
	if validLen < int64(len(journalMagic)) {
		return createJournal(path, lastSeq, crash)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return createJournal(path, lastSeq, crash)
		}
		return nil, fmt.Errorf("store journal: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("store journal: truncate torn tail: %w", err)
	}
	return &journal{path: path, f: f, seq: lastSeq, crash: crash}, nil
}

// append encodes payload, queues the record for the next batch commit,
// and returns once the batch holding it has been written and synced.
// The returned sequence number is the operation's durability token:
// once append returns, recovery is guaranteed to replay the record.
//
// Concurrency shape: whichever appender finds no leader becomes one and
// drains the queue batch by batch; appenders arriving while a commit is
// in flight pile into the next batch. Sequence numbers are assigned in
// batch order, so the on-disk order is exactly the commit order.
func (j *journal) append(t recType, payload any) (uint64, error) {
	body, err := encodeGob(payload)
	if err != nil {
		return 0, fmt.Errorf("store journal: encode: %w", err)
	}
	if len(body) > maxJournalRecord {
		return 0, fmt.Errorf("store journal: record of %d bytes exceeds limit", len(body))
	}
	p := &pendingAppend{t: t, body: body, done: make(chan struct{})}
	j.mu.Lock()
	if err := j.crashed; err != nil {
		j.mu.Unlock()
		return 0, err
	}
	j.queue = append(j.queue, p)
	if j.leader {
		// A leader is committing; it (or its successor loop) will pick
		// this record up in a following batch.
		j.mu.Unlock()
		<-p.done
		return p.seq, p.err
	}
	j.leader = true
	for len(j.queue) > 0 {
		var batch []*pendingAppend
		if j.perOp {
			batch, j.queue = j.queue[:1:1], j.queue[1:]
		} else {
			batch, j.queue = j.queue, nil
		}
		base := j.seq
		j.mu.Unlock()
		j.writeBatch(base, batch)
		j.mu.Lock()
	}
	j.leader = false
	j.mu.Unlock()
	<-p.done
	return p.seq, p.err
}

// writeBatch commits one batch: records are laid out back to back in a
// single buffer, written with the torn-append crash point between the
// halves, synced once, and only then acknowledged to every waiter. A
// crash before the sync leaves at most a prefix of whole records (plus
// one torn one the CRC rejects) — each record is still individually
// all-or-nothing, which is what the crash matrix asserts.
func (j *journal) writeBatch(base uint64, batch []*pendingAppend) {
	finish := func(err error) {
		if err == nil {
			j.mu.Lock()
			j.seq = base + uint64(len(batch))
			j.mu.Unlock()
			j.batches.Inc()
			j.records.Add(int64(len(batch)))
		}
		for _, p := range batch {
			p.err = err
			p.finished = true
			close(p.done)
		}
	}
	// A simulated crash (chaos.Crasher panic) kills the leader
	// mid-commit. Before re-panicking, fail the batch's unacknowledged
	// waiters and every record queued behind it, release leadership and
	// mark the journal crashed, so concurrent test harnesses observe
	// failed appends instead of hanging on a leader that is gone.
	defer func() {
		if r := recover(); r != nil {
			crashed := errors.New("store journal: crashed during batch commit")
			j.mu.Lock()
			j.crashed = crashed
			j.leader = false
			queued := j.queue
			j.queue = nil
			j.mu.Unlock()
			for _, p := range append(batch, queued...) {
				if !p.finished {
					p.err = crashed
					p.finished = true
					close(p.done)
				}
			}
			panic(r)
		}
	}()
	buf := j.wbuf[:0]
	for i, p := range batch {
		p.seq = base + 1 + uint64(i)
		var hdr [journalHdrLen]byte
		binary.LittleEndian.PutUint64(hdr[0:8], p.seq)
		hdr[8] = byte(p.t)
		binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(p.body)))
		binary.LittleEndian.PutUint32(hdr[13:17], colSum(p.body))
		buf = append(buf, hdr[:]...)
		buf = append(buf, p.body...)
	}
	if cap(buf) <= maxBatchBufRetain {
		j.wbuf = buf[:0]
	}
	j.batchBytes.Add(int64(len(buf)))
	if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
		finish(fmt.Errorf("store journal: %w", err))
		return
	}
	half := len(buf) / 2
	if _, err := j.f.Write(buf[:half]); err != nil {
		finish(fmt.Errorf("store journal: %w", err))
		return
	}
	j.crash.Hit("journal.append.torn")
	if _, err := j.f.Write(buf[half:]); err != nil {
		finish(fmt.Errorf("store journal: %w", err))
		return
	}
	j.crash.Hit("journal.batch.before-sync")
	if err := j.f.Sync(); err != nil {
		finish(fmt.Errorf("store journal: sync: %w", err))
		return
	}
	finish(nil)
}

// rotate rewrites the journal keeping only records with seq >
// keepAfter (normally none, right after a Save), atomically. The
// caller must have quiesced appends (Save holds the quiesce write
// lock, so no batch leader can be mid-commit here).
func (j *journal) rotate(keepAfter uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	recs, _, _, err := readJournal(j.path)
	if err != nil {
		// An unreadable journal at rotation time is replaced outright:
		// the snapshot that triggered the rotation already covers every
		// acknowledged operation.
		recs = nil
	}
	var buf bytes.Buffer
	buf.Write(journalMagic)
	for _, r := range recs {
		if r.Seq <= keepAfter {
			continue
		}
		var hdr [journalHdrLen]byte
		binary.LittleEndian.PutUint64(hdr[0:8], r.Seq)
		hdr[8] = byte(r.Type)
		binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(r.Payload)))
		binary.LittleEndian.PutUint32(hdr[13:17], colSum(r.Payload))
		buf.Write(hdr[:])
		buf.Write(r.Payload)
	}
	if err := colstore.WriteFileAtomic(j.path, buf.Bytes()); err != nil {
		return fmt.Errorf("store journal: rotate: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store journal: rotate: %w", err)
	}
	// The rotated content is already durable under the same name; the
	// old descriptor's close result cannot affect it.
	_ = j.f.Close()
	j.f = f
	return nil
}

func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// readJournal reads and validates path. It returns the decoded records
// of the longest valid prefix, the byte length of that prefix
// (validLen — pass to openJournal so the tail is physically dropped),
// and how many torn/corrupt tail bytes were discarded. A missing file
// is an empty journal; a damaged header is ErrCorrupted (nothing after
// it can be trusted).
func readJournal(path string) (recs []journalRecord, validLen int64, torn int64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, err
	}
	if len(raw) < len(journalMagic) || !bytes.Equal(raw[:len(journalMagic)], journalMagic) {
		return nil, 0, 0, fmt.Errorf("%w: %s: bad journal header", ErrCorrupted, journalFile)
	}
	off := int64(len(journalMagic))
	size := int64(len(raw))
	var prevSeq uint64
	for {
		if size-off < journalHdrLen {
			break // torn header (or clean end)
		}
		hdr := raw[off : off+journalHdrLen]
		seq := binary.LittleEndian.Uint64(hdr[0:8])
		typ := recType(hdr[8])
		plen := int64(binary.LittleEndian.Uint32(hdr[9:13]))
		want := binary.LittleEndian.Uint32(hdr[13:17])
		if plen > maxJournalRecord || off+journalHdrLen+plen > size {
			break // torn payload
		}
		payload := raw[off+journalHdrLen : off+journalHdrLen+plen]
		if colSum(payload) != want {
			break // corrupt record: discard it and everything after
		}
		if seq <= prevSeq || typ < recPut || typ > recMigrateCommit {
			break // garbage that happens to checksum — not a valid record
		}
		recs = append(recs, journalRecord{Seq: seq, Type: typ, Payload: append([]byte(nil), payload...)})
		prevSeq = seq
		off += journalHdrLen + plen
	}
	return recs, off, size - off, nil
}

// removeJournal deletes the journal at path (used when a full snapshot
// into a foreign directory supersedes whatever journal lived there).
func removeJournal(path string) error {
	err := os.Remove(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}
