package store

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/obs"
)

// stallLeader marks the journal as having an active batch leader, so
// appends pile into the queue instead of committing. releaseAndDrain
// then clears the mark and commits the whole pile as one real append's
// batch — a deterministic way to exercise multi-record batches without
// depending on scheduler timing.
func stallLeader(j *journal) {
	j.mu.Lock()
	j.leader = true
	j.mu.Unlock()
}

func waitQueued(t *testing.T, j *journal, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		j.mu.Lock()
		q := len(j.queue)
		j.mu.Unlock()
		if q >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d appends queued", q, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func releaseLeader(j *journal) {
	j.mu.Lock()
	j.leader = false
	j.mu.Unlock()
}

// wireBatchCounters attaches fresh obs counters so a test can observe
// the journal's batch/record accounting.
func wireBatchCounters(j *journal) (batches, records *obs.Counter) {
	reg := obs.NewRegistry(false)
	j.batches = reg.Counter("b")
	j.records = reg.Counter("r")
	j.batchBytes = reg.Counter("bb")
	return j.batches, j.records
}

// TestJournalGroupCommitCoalesces proves the tentpole property: N
// appends queued behind a busy leader commit as ONE batch — one
// writeBatch, one fsync — and every append still gets a unique,
// contiguous, monotonically increasing sequence number matching the
// on-disk order.
func TestJournalGroupCommitCoalesces(t *testing.T) {
	path := journalPath(t)
	j, err := createJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	batches, records := wireBatchCounters(j)

	const followers = 15
	stallLeader(j)
	var wg sync.WaitGroup
	seqs := make([]uint64, followers)
	errs := make([]error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seqs[i], errs[i] = j.append(recFailNodes, failRecord{Nodes: []int{i}})
		}(i)
	}
	waitQueued(t, j, followers)
	releaseLeader(j)
	// This append becomes the leader and drains the whole pile.
	lastSeq, err := j.append(recFailNodes, failRecord{Nodes: []int{followers}})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i, e := range errs {
		if e != nil {
			t.Fatalf("append %d: %v", i, e)
		}
	}
	if got := batches.Value(); got != 1 {
		t.Fatalf("committed %d batches, want 1 (coalesced)", got)
	}
	if got := records.Value(); got != followers+1 {
		t.Fatalf("batch records counter %d, want %d", got, followers+1)
	}
	seen := make(map[uint64]bool)
	for i, sq := range seqs {
		if sq == 0 || sq > followers+1 || seen[sq] {
			t.Fatalf("append %d got seq %d (dup or out of range)", i, sq)
		}
		seen[sq] = true
	}
	if seen[lastSeq] || lastSeq == 0 || lastSeq > followers+1 {
		t.Fatalf("leader seq %d collides or out of range", lastSeq)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	recs, _, torn, err := readJournal(path)
	if err != nil || torn != 0 {
		t.Fatalf("read: %v, torn %d", err, torn)
	}
	if len(recs) != followers+1 {
		t.Fatalf("%d records on disk, want %d", len(recs), followers+1)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want contiguous from 1", i, r.Seq)
		}
	}
}

// TestJournalPerOpDisablesCoalescing checks the benchmark baseline
// mode: with perOp set, the same queued pile commits one record per
// batch (one fsync each), reproducing pre-group-commit behaviour.
func TestJournalPerOpDisablesCoalescing(t *testing.T) {
	path := journalPath(t)
	j, err := createJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.perOp = true
	batches, records := wireBatchCounters(j)

	const followers = 7
	stallLeader(j)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := j.append(recFailNodes, failRecord{Nodes: []int{i}}); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
		}(i)
	}
	waitQueued(t, j, followers)
	releaseLeader(j)
	if _, err := j.append(recFailNodes, failRecord{Nodes: []int{followers}}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if b, r := batches.Value(), records.Value(); b != followers+1 || r != followers+1 {
		t.Fatalf("perOp committed %d batches for %d records, want 1:1", b, r)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalBatchTruncationSweep is the group-commit torn-write test:
// a multi-record batch is written as one contiguous buffer, and the
// file is then truncated at EVERY byte offset, simulating a crash that
// tore the batch anywhere — mid-header, mid-payload, between records.
// At each offset replay must accept exactly the longest whole-record
// prefix: each acknowledged record is all-or-nothing, never partially
// visible.
func TestJournalBatchTruncationSweep(t *testing.T) {
	path := journalPath(t)
	j, err := createJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const followers = 5
	stallLeader(j)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := j.append(recUpdate, updateRecord{Name: "obj", ID: i, Data: []byte{byte(i), 0xAB, 0xCD}}); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
		}(i)
	}
	waitQueued(t, j, followers)
	releaseLeader(j)
	if _, err := j.append(recUpdate, updateRecord{Name: "obj", ID: followers, Data: []byte{0xEE}}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole, _, _, err := readJournal(path)
	if err != nil || len(whole) != followers+1 {
		t.Fatalf("baseline: %d records, %v", len(whole), err)
	}
	// Record boundaries of the batched file, for the boundary assertion.
	boundary := map[int64]int{int64(len(journalMagic)): 0}
	off := int64(len(journalMagic))
	for i, r := range whole {
		off += journalHdrLen + int64(len(r.Payload))
		boundary[off] = i + 1
	}
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, validLen, torn, err := readJournal(path)
		if cut < len(journalMagic) {
			if err == nil {
				t.Fatalf("cut %d: headerless journal accepted", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if validLen+torn != int64(cut) {
			t.Fatalf("cut %d: validLen %d + torn %d != size", cut, validLen, torn)
		}
		// validLen must land exactly on a record boundary, and the
		// accepted records must be a byte-exact prefix of the originals.
		want, ok := boundary[validLen]
		if !ok {
			t.Fatalf("cut %d: validLen %d is not a record boundary", cut, validLen)
		}
		if len(recs) != want {
			t.Fatalf("cut %d: %d records for boundary %d", cut, len(recs), want)
		}
		for i, r := range recs {
			var got, orig updateRecord
			if err := r.decode(&got); err != nil {
				t.Fatalf("cut %d: record %d undecodable: %v", cut, i, err)
			}
			if err := whole[i].decode(&orig); err != nil {
				t.Fatal(err)
			}
			if got.ID != orig.ID || string(got.Data) != string(orig.Data) {
				t.Fatalf("cut %d: record %d mutated by truncation", cut, i)
			}
		}
	}
}

// TestJournalBatchCrashFailsWaiters arms the batch-boundary crash point
// and checks the leader's simulated death does not strand its
// followers: every queued append must return an error (their records
// were never acknowledged as durable), not hang forever.
func TestJournalBatchCrashFailsWaiters(t *testing.T) {
	path := journalPath(t)
	crasher := chaos.NewCrasher()
	j, err := createJournal(path, 0, crasher)
	if err != nil {
		t.Fatal(err)
	}
	crasher.Arm("journal.batch.before-sync", 1)

	const followers = 4
	stallLeader(j)
	var wg sync.WaitGroup
	errs := make([]error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = j.append(recFailNodes, failRecord{Nodes: []int{i}})
		}(i)
	}
	waitQueued(t, j, followers)
	releaseLeader(j)
	// The leader append dies at the crash point (panic = simulated kill).
	func() {
		defer func() {
			var ce *chaos.CrashError
			r := recover()
			if r == nil {
				t.Fatal("leader append did not crash")
			}
			if e, ok := r.(error); !ok || !errors.As(e, &ce) {
				panic(r)
			}
		}()
		_, _ = j.append(recFailNodes, failRecord{Nodes: []int{followers}})
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("followers hung after leader crash")
	}
	for i, e := range errs {
		if e == nil {
			t.Fatalf("follower %d acknowledged despite crashed batch commit", i)
		}
	}
	// The file holds fully written but unsynced records; replay may see
	// all of them or a prefix — but never a torn record.
	recs, _, _, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		var fr failRecord
		if err := r.decode(&fr); err != nil {
			t.Fatalf("record %d torn: %v", i, err)
		}
	}
	_ = j.close()
}

// TestJournalCrashedLeaderReleasesQueue pins the group-commit hang: a
// leader that dies inside writeBatch must not leave records queued
// behind its batch (nor later appends) waiting for a leader that is
// gone. Per-op batching makes the shape deterministic: the leader
// commits only the head of a two-record queue and crashes on the torn
// write, so the second follower is still queued when it dies.
func TestJournalCrashedLeaderReleasesQueue(t *testing.T) {
	path := journalPath(t)
	crasher := chaos.NewCrasher()
	j, err := createJournal(path, 0, crasher)
	if err != nil {
		t.Fatal(err)
	}
	j.perOp = true
	crasher.Arm("journal.append.torn", 1)

	const followers = 2
	stallLeader(j)
	errs := make(chan error, followers+1)
	for i := 0; i < followers; i++ {
		go func(i int) {
			_, err := j.append(recFailNodes, failRecord{Nodes: []int{i}})
			errs <- err
		}(i)
	}
	waitQueued(t, j, followers)
	releaseLeader(j)
	if crasher.Run(func() {
		_, _ = j.append(recFailNodes, failRecord{Nodes: []int{followers}})
	}) == nil {
		t.Fatal("leader append did not crash")
	}
	// An append arriving after the crash must fail too: the journal may
	// end in a torn record, so nothing written after it is readable.
	go func() {
		_, err := j.append(recFailNodes, failRecord{Nodes: []int{followers + 1}})
		errs <- err
	}()
	for i := 0; i < followers+1; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("append acknowledged after the leader crashed mid-commit")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("append hung after the batch leader crashed")
		}
	}
	_ = j.close()
}
