package vdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// pollUntilSealed drains the tail until the auditor reports the epoch
// sealed; the records are already durable, so one sweep should do it.
func pollUntilSealed(t testing.TB, a *TailAuditor) {
	t.Helper()
	if _, err := a.Poll(); err != nil {
		t.Fatalf("tail poll: %v", err)
	}
	if !a.Sealed() {
		t.Fatalf("tail consumed %d records but the epoch is not sealed", a.Records())
	}
}

// shrinkTailWindow makes the tail flush its Σ-OR window every two
// submissions for the rest of the test, so four-client boards cross window
// boundaries.
func shrinkTailWindow(t *testing.T) {
	old := tailWindow
	tailWindow = 2
	t.Cleanup(func() { tailWindow = old })
}

// TestTailAuditorLiveFileLog is the live-follow happy path: a tail attached
// to a durable session's board log verifies every record as it lands, holds
// the sealed digest the moment Finalize's seal record arrives, survives a
// snapshot (Compact) epoch boundary, and agrees with the offline AuditLog
// on both epochs.
func TestTailAuditorLiveFileLog(t *testing.T) {
	shrinkTailWindow(t)
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	log, err := store.OpenFileLog(filepath.Join(t.TempDir(), "board.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(77), Store: log, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := TailAuditLog(pub, log, TailOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	subs := buildSubs(t, pub, []int{1, 0, 1, 1})
	for i, sub := range subs {
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		// Interleave polling with submissions: the tail keeps up live.
		if _, err := a.Poll(); err != nil {
			t.Fatalf("mid-epoch poll after submit %d: %v", i, err)
		}
	}
	if a.Sealed() {
		t.Fatal("tail sealed before Finalize")
	}
	if a.Clients() != len(subs) {
		t.Fatalf("tail follows %d clients, want %d", a.Clients(), len(subs))
	}

	res, err := sess.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pollUntilSealed(t, a)
	want := TranscriptDigest(pub, res.Transcript)
	if !bytes.Equal(a.Digest(), want) {
		t.Fatal("live tail digest differs from the sealed transcript's")
	}
	if err := AuditLog(ctx, pub, log, 0, 2); err != nil {
		t.Fatalf("offline audit disagrees with the live tail: %v", err)
	}
	// BenchmarkTailSealVerify's hook re-verifies the consumed seal in place.
	if err := a.ReverifySeal(pub.EncodeTranscript(res.Transcript)); err != nil {
		t.Fatalf("re-verifying the consumed seal: %v", err)
	}

	// Compact: the snapshot record closes epoch 0 under the digest the tail
	// just verified, and the tail rolls into epoch 1.
	if err := sess.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Poll(); err != nil {
		t.Fatalf("poll over snapshot: %v", err)
	}
	if a.Epoch() != 1 || a.Sealed() {
		t.Fatalf("after snapshot: epoch %d sealed=%v, want epoch 1 open", a.Epoch(), a.Sealed())
	}
	if d, ok := a.VerifiedDigest(0); !ok || !bytes.Equal(d, want) {
		t.Fatal("epoch 0's verified digest not retained across the snapshot")
	}

	// Epoch 1 on the compacted log.
	for _, sub := range subs[:2] {
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	res1, err := sess.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pollUntilSealed(t, a)
	if !bytes.Equal(a.Digest(), TranscriptDigest(pub, res1.Transcript)) {
		t.Fatal("epoch 1 tail digest differs from the sealed transcript's")
	}
	for _, epoch := range []int{0, 1} {
		if err := AuditLog(ctx, pub, log, epoch, 2); err != nil {
			t.Fatalf("offline audit of epoch %d after compaction: %v", epoch, err)
		}
	}
}

// TestTailAuditorDeferredMemLog: a sealed board whose roster has no verdict
// records (an eager log with them stripped out); the tail decides the whole
// board by its own batch check at seal time and still lands on the identical
// digest.
func TestTailAuditorDeferredMemLog(t *testing.T) {
	shrinkTailWindow(t)
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(78), Store: log, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range buildSubs(t, pub, []int{1, 1, 0, 1}) {
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, err := TailAuditLog(pub, memLogOf(t, withoutVerdicts(recs)), TailOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	pollUntilSealed(t, a)
	if !bytes.Equal(a.Digest(), TranscriptDigest(pub, res.Transcript)) {
		t.Fatal("verdict-less tail digest differs from the sealed transcript's")
	}
}

// tailBaseRecords runs a clean durable session and returns its board-log
// records, raw material for the mutation table.
func tailBaseRecords(t *testing.T, pub *Public) []*store.Record {
	t.Helper()
	ctx := context.Background()
	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(79), Store: log, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range buildSubs(t, pub, []int{1, 0, 1, 1}) {
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	recs, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func copyRecords(recs []*store.Record) []*store.Record {
	out := make([]*store.Record, len(recs))
	for i, rec := range recs {
		cp := *rec
		cp.Payload = append([]byte(nil), rec.Payload...)
		out[i] = &cp
	}
	return out
}

// TestTailAuditorFileBitFlip flips a byte of a committed record on disk
// behind a live tail — in-flight tampering with the file itself, below the
// record grammar. The storage layer's CRC catches it and the tail surfaces
// the offending record and byte offset. A tailer error is not kept by the
// tail, but the next Poll asks the tailer again from the same record, so it
// reports the same position and the epoch stays uncertified.
func TestTailAuditorFileBitFlip(t *testing.T) {
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	path := filepath.Join(t.TempDir(), "board.log")
	log, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(80), Store: log, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range buildSubs(t, pub, []int{1, 0, 1}) {
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Finalize(ctx); err != nil {
		t.Fatal(err)
	}

	// Byte offset of record 2 in the file: magic, then framed records.
	recs, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	off := int64(7) // len(fileMagic)
	for _, rec := range recs[:2] {
		off += int64(len(store.EncodeRecord(rec)))
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, off+8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	a, err := TailAuditLog(pub, log, TailOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	frag := fmt.Sprintf("record 2 (offset %d)", off)
	for poll := 1; poll <= 2; poll++ {
		n, err := a.Poll()
		if err == nil {
			t.Fatalf("poll %d certified a log with a flipped byte on disk", poll)
		}
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("poll %d error %q does not carry the offending position %q", poll, err, frag)
		}
		if poll == 2 && n != 0 {
			t.Fatalf("the second poll consumed %d records past the corruption", n)
		}
		if a.Sealed() {
			t.Fatalf("tampered epoch was certified after poll %d", poll)
		}
		if _, ok := a.VerifiedDigest(0); ok {
			t.Fatalf("tampered epoch has a verified digest after poll %d", poll)
		}
	}
}

// TestSegmentedTailRefusesNoSegments: a merged reader over no segments has
// no evidence to hold a seal to, so the live tail refuses to open and the
// offline merged audit refuses to run, with one text.
func TestSegmentedTailRefusesNoSegments(t *testing.T) {
	ctx := context.Background()
	pub := testPublic(t, 1, 1, 4)
	seal := make([]byte, 32)
	st, tailErr := NewSegmentedTail(pub, nil, func(int) ([]byte, bool, error) { return seal, true, nil }, TailOptions{})
	if st != nil || !errors.Is(tailErr, ErrAuditFail) || !strings.Contains(tailErr.Error(), "no board logs to audit") {
		t.Fatalf("tail over no segments: %v, %v; want a refusal", st, tailErr)
	}
	_, _, auditErr := AuditMergedLogs(ctx, pub, nil, 0, 0, func(int) (int, []byte, error) { return 0, seal, nil })
	if fmt.Sprint(auditErr) != fmt.Sprint(tailErr) {
		t.Fatalf("the audit refused no segments with %v, the tail with %v", auditErr, tailErr)
	}
}

// TestTailPollRacesTheWriter: Poll decodes on pool goroutines while the
// session appends to the same FileLog from another goroutine. The poller
// follows the epoch to its seal and ends on the sealed digest; run under
// -race, it checks that a drain shares nothing with the writer but the log.
func TestTailPollRacesTheWriter(t *testing.T) {
	shrinkTailWindow(t)
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	log, err := store.OpenFileLog(filepath.Join(t.TempDir(), "board.log"), store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(79), Store: log, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := TailAuditLog(pub, log, TailOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var want []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, sub := range buildSubs(t, pub, []int{1, 0, 1, 1, 0, 1, 0, 0}) {
			if err := sess.Submit(ctx, sub); err != nil {
				t.Error(err)
				return
			}
		}
		res, err := sess.Finalize(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		want = TranscriptDigest(pub, res.Transcript)
	}()
	for !a.Sealed() {
		select {
		case <-done:
			if want == nil {
				t.FailNow() // the writer failed: no seal is coming
			}
		default:
		}
		if _, err := a.Poll(); err != nil {
			t.Fatalf("poll beside the writer: %v", err)
		}
	}
	<-done
	if !bytes.Equal(a.Digest(), want) {
		t.Fatal("the polled tail's digest differs from the sealed transcript's")
	}
}

// TestSegmentedTailWaitsForManifestSeal pins the merged tail's one ready
// rule: an epoch certifies only once its merged seal is recorded. Every
// segment of a sharded directory seals, but the manifest's merged-seal
// record never lands (a crash between the two): the tail verifies every
// segment and still reports the epoch not ready, without an error, and the
// offline audit refuses it. Once ResumeShardedSession heals the manifest,
// the same tail's next Poll and VerifyMerged certify the session's digest.
func TestSegmentedTailWaitsForManifestSeal(t *testing.T) {
	ctx := context.Background()
	pub := testPublic(t, 1, 1, 4)
	const shards = 2
	dir := t.TempDir()
	seg, err := store.OpenSegmentedLog(dir, shards, store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardedSession(pub, SessionOptions{Rand: testSeed(34), Segmented: seg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		sub, err := ss.NewClientSubmission(i, i%2)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	// Seal every shard by hand, so the manifest record is never written.
	ts := make([]*Transcript, shards)
	for i := range ts {
		res, err := ss.Shard(i).Finalize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ts[i] = res.Transcript
	}
	want := MergedTranscriptDigest(pub, ts)
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	seg2, err := store.OpenSegmentedLog(dir, shards, store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()
	st, err := tailSegments(pub, seg2, TailOptions{Workers: 2}, shardSegments)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Poll(); err != nil {
		t.Fatal(err)
	}
	for i, a := range st.shards {
		if d, ok := a.VerifiedDigest(0); !ok || !bytes.Equal(d, TranscriptDigest(pub, ts[i])) {
			t.Fatalf("shard %d: the tail did not verify the sealed segment", i)
		}
	}
	if d, ready, err := st.VerifyMerged(0); err != nil || ready {
		t.Fatalf("tail over a manifest without the merged seal: digest %x ready=%v err=%v, want not ready and no error", d, ready, err)
	}
	if err := AuditSegmentedLog(ctx, pub, seg2, 0, 2); !errors.Is(err, ErrAuditFail) {
		t.Fatalf("offline audit of an epoch without a merged seal: %v, want an audit failure", err)
	}

	if _, err := ResumeShardedSession(ctx, pub, SessionOptions{Rand: testSeed(34), Segmented: seg2}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Poll(); err != nil {
		t.Fatal(err)
	}
	got, ready, err := st.VerifyMerged(0)
	if err != nil || !ready || !bytes.Equal(got, want) {
		t.Fatalf("tail after the manifest heal: digest %x ready=%v err=%v, want the session's digest %x", got, ready, err, want)
	}
}

// TestTailParityWithAdversaries pins live-tail == offline-audit over the
// full front-door corruption table: for every corrupted client the session
// itself already rejected, both auditors must accept the resulting log and
// the tail's digest must equal the sealed transcript's — single-session
// over a memory log, and sharded over a real segmented log.
func TestTailParityWithAdversaries(t *testing.T) {
	shrinkTailWindow(t)
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)

	submitAll := func(t *testing.T, door interface {
		Submit(context.Context, *ClientSubmission) error
	}, tc adversaryCorruption) {
		t.Helper()
		const n, target = 6, 3
		subs := make([]*ClientSubmission, n)
		for i := range subs {
			sub, err := pub.NewClientSubmission(i, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			subs[i] = sub
		}
		donor, err := pub.NewClientSubmission(100+target, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(pub, subs[target], donor)
		for i, sub := range subs {
			err := door.Submit(ctx, sub)
			if i == target {
				if !errors.Is(err, ErrClientReject) {
					t.Fatalf("corrupt client verdict = %v, want ErrClientReject", err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("honest client %d rejected: %v", i, err)
			}
		}
	}

	for _, tc := range adversaryCorruptions {
		t.Run("session/"+tc.name, func(t *testing.T) {
			log := store.NewMemLog()
			sess, err := NewSession(pub, SessionOptions{Store: log, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			submitAll(t, sess, tc)
			res, err := sess.Finalize(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := AuditLog(ctx, pub, log, 0, 2); err != nil {
				t.Fatalf("offline audit: %v", err)
			}
			a, err := TailAuditLog(pub, log, TailOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			pollUntilSealed(t, a)
			if !bytes.Equal(a.Digest(), TranscriptDigest(pub, res.Transcript)) {
				t.Fatal("tail digest differs from the sealed transcript's")
			}
		})
		t.Run("sharded/"+tc.name, func(t *testing.T) {
			seg, err := store.OpenSegmentedLog(t.TempDir(), 4)
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()
			ss, err := NewShardedSession(pub, SessionOptions{Shards: 4, Segmented: seg, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			submitAll(t, ss, tc)
			res, err := ss.Finalize(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := AuditSegmentedLog(ctx, pub, seg, 0, 2); err != nil {
				t.Fatalf("offline segmented audit: %v", err)
			}
			st, err := tailSegments(pub, seg, TailOptions{Workers: 2}, shardSegments)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for {
				n, err := st.Poll()
				if err != nil {
					t.Fatalf("segmented tail poll: %v", err)
				}
				if n == 0 {
					break
				}
			}
			digest, ready, err := st.VerifyMerged(0)
			if err != nil {
				t.Fatalf("merged verify: %v", err)
			}
			if !ready {
				t.Fatal("merged epoch not ready after draining every segment")
			}
			if !bytes.Equal(digest, res.Digest) {
				t.Fatal("merged tail digest differs from MergedTranscriptDigest")
			}
		})
	}
}

// TestOffBoardVerdictOnFailingProof: an off-board rejection that is not a
// budget refusal is a payload dispute, which says the client's board proof
// passed — a session decides the board first and posts board failures. Such
// a verdict for a spliced-in client whose proof fails leaves the sealed
// roster unchanged, so only the verdict check can see it: the offline audits
// and the live tail must all refuse the log at that verdict record.
func TestOffBoardVerdictOnFailingProof(t *testing.T) {
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	const fresh = 9 // never submitted; ShardOf(9, 2) is shard 0
	if ShardOf(fresh, 2) != 0 {
		t.Fatal("the fresh client does not live on shard 0")
	}
	// splice inserts, before recs' seal, the fresh client's submission
	// corrupted by tc and a payload-dispute verdict for it, returning the
	// log and the verdict's record index.
	splice := func(t *testing.T, recs []*store.Record, tc adversaryCorruption) ([]*store.Record, int) {
		sub, err := pub.NewClientSubmission(fresh, 1, testSeed(91))
		if err != nil {
			t.Fatal(err)
		}
		donor, err := pub.NewClientSubmission(100+fresh, 1, testSeed(92))
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(pub, sub, donor)
		if pub.VerifyClient(sub.Public) == nil {
			t.Fatalf("%s: the corrupted board proof verifies", tc.name)
		}
		at := len(recs) - 1
		for recs[at-1].Kind == RecordSealChunk {
			at--
		}
		epoch := recs[at].Epoch
		dispute := fmt.Errorf("%w: client %d: payload dispute", ErrClientReject, fresh)
		recs = insertAt(recs, at, &store.Record{Kind: RecordVerdict, Epoch: epoch, Payload: encodeVerdict(fresh, dispute, false)})
		recs = insertAt(recs, at, &store.Record{Kind: RecordSubmission, Epoch: epoch, Payload: pub.EncodeClientSubmission(sub)})
		return recs, at + 1
	}
	refusedAt := func(t *testing.T, who string, err error, want int) {
		t.Helper()
		var pos *boardLogError
		if !errors.As(err, &pos) || pos.Index != want || !errors.Is(err, ErrAuditFail) ||
			!strings.Contains(pos.Reason, "payload dispute, but its board proof fails") {
			t.Fatalf("%s: want the verdict at record %d refused, got: %v", who, want, err)
		}
	}
	honest := func(t *testing.T, door interface {
		Submit(context.Context, *ClientSubmission) error
	}) {
		for _, sub := range buildSubs(t, pub, []int{1, 0, 1, 1}) {
			if err := door.Submit(ctx, sub); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tc := range adversaryCorruptions {
		if !tc.wantOnBoard {
			continue // a payload corruption leaves the board proof valid
		}
		t.Run("session/"+tc.name, func(t *testing.T) {
			log := store.NewMemLog()
			sess, err := NewSession(pub, SessionOptions{Rand: testSeed(93), Store: log, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			honest(t, sess)
			if _, err := sess.Finalize(ctx); err != nil {
				t.Fatal(err)
			}
			recs, _ := log.Snapshot()
			recs, at := splice(t, recs, tc)
			refusedAt(t, "audit", AuditLog(ctx, pub, memLogOf(t, recs), 0, 2), at)
			refusedAt(t, "tail", feedAll(NewTailAuditor(pub, TailOptions{Workers: 2}), recs), at)
			sweepReaders(t, sweptLog{pub: pub, recs: recs})
		})
		t.Run("sharded/"+tc.name, func(t *testing.T) {
			seg, err := store.OpenSegmentedLog(t.TempDir(), 2, store.WithNoSync())
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()
			ss, err := NewShardedSession(pub, SessionOptions{Rand: testSeed(94), Shards: 2, Segmented: seg, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			honest(t, ss)
			if _, err := ss.Finalize(ctx); err != nil {
				t.Fatal(err)
			}
			segs, manifest := segmentRecords(t, seg)
			var at int
			segs[0], at = splice(t, segs[0], tc)
			spliced := segmentedLogOf(t, segs, manifest)
			defer spliced.Close()
			refusedAt(t, "segmented audit", AuditSegmentedLog(ctx, pub, spliced, 0, 2), at)
			st, err := tailSegments(pub, spliced, TailOptions{Workers: 2}, shardSegments)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			_, err = st.Poll()
			refusedAt(t, "segmented tail", err, at)
		})
	}
}

// BenchmarkTailSealVerify times the live tail's seal step on its own: the
// tail verified every submission on arrival, so sealing costs one byte-walk
// of the seal's client section plus the K Line-13 checks against the
// rolling commitment product, whose crypto is independent of the epoch
// size. The 1000/10000 pair is the point: ns/op must grow far slower than
// the 10× larger epoch. Each size's epoch is built and drained once,
// outside the timer, and reused across the harness's calls.
func BenchmarkTailSealVerify(b *testing.B) {
	pub, err := Setup(Config{Provers: 1, Bins: 1, Coins: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1000, 10000} {
		var tail *TailAuditor
		var seal []byte
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			if tail == nil {
				tail, seal = drainedTail(b, pub, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tail.ReverifySeal(seal); err != nil {
					b.Fatal(err)
				}
			}
		})
		if tail != nil {
			tail.Close()
		}
	}
}

// BenchmarkAuditLog times the two uses of the one board read over a whole
// sealed epoch, on the boards BenchmarkTailSealVerify drains: the offline
// audit (one Replay, auditWindow) and a fresh tail drained by a single Poll
// (a tailer, tailWindow). Its cost is the epoch's: every submission decoded
// and its board proof decided, and every accepted client folded into the
// Line-13 product. At 1000 submissions the audit decides them with one
// batched check at the seal; 10000 crosses auditWindow, so the same work is
// split over three products. The tail decides them 64 at a time. 1000/onebad
// is the 1000-client audit of a board that holds one on-board rejection (a
// forged bit proof): its window's combined check fails, so the audit takes
// the fallback that decides the window's submissions one by one.
func BenchmarkAuditLog(b *testing.B) {
	pub, err := Setup(Config{Provers: 1, Bins: 1, Coins: 8})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range []int{1000, 10000} {
		var log *store.MemLog
		board := func(b *testing.B) *store.MemLog {
			if log == nil {
				log, _ = sealedBoard(b, pub, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			return log
		}
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			log := board(b)
			for i := 0; i < b.N; i++ {
				if err := AuditLog(ctx, pub, log, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(strconv.Itoa(n)+"/poll", func(b *testing.B) {
			log := board(b)
			for i := 0; i < b.N; i++ {
				tail, err := TailAuditLog(pub, log, TailOptions{})
				if err != nil {
					b.Fatal(err)
				}
				pollUntilSealed(b, tail)
				tail.Close()
			}
		})
	}
	var onebad *store.MemLog
	b.Run("1000/onebad", func(b *testing.B) {
		if onebad == nil {
			onebad, _ = sealedBoard(b, pub, 1000, 500)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := AuditLog(ctx, pub, onebad, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFinalizeCoins times the coin half of an epoch per noise coin: a
// 64-client, one-prover, one-bin epoch on one worker, whose Finalize cost
// (coin commitments and their Σ-OR proofs, Morra, Line 13) and audit cost
// (the same proofs and Morra openings checked again) grow with nb while the
// client work stays fixed. Admission is outside the timer.
func BenchmarkFinalizeCoins(b *testing.B) {
	ctx := context.Background()
	for _, nb := range []int{256, 4096} {
		b.Run(strconv.Itoa(nb), func(b *testing.B) {
			pub, err := Setup(Config{Provers: 1, Bins: 1, Coins: nb})
			if err != nil {
				b.Fatal(err)
			}
			subs := make([]*ClientSubmission, 64)
			for i := range subs {
				if subs[i], err = pub.NewClientSubmission(i, i%2, nil); err != nil {
					b.Fatal(err)
				}
			}
			var finalize, audit time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sess, err := NewSession(pub, SessionOptions{Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.SubmitBatch(ctx, subs); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				res, err := sess.Finalize(ctx)
				if err != nil {
					b.Fatal(err)
				}
				finalize += time.Since(start)
				start = time.Now()
				if err := AuditParallel(pub, res.Transcript, 1); err != nil {
					b.Fatal(err)
				}
				audit += time.Since(start)
			}
			coins := float64(b.N * nb)
			b.ReportMetric(float64(finalize.Microseconds())/coins, "finalize-us/coin")
			b.ReportMetric(float64(audit.Microseconds())/coins, "audit-us/coin")
		})
	}
}

// sealedBoard finalizes an n-client epoch, admitted in frames of 256, on a
// MemLog and returns the log with the sealed transcript. Each client listed
// in bad submits a forged bit proof (forgeBitProof) and earns an on-board
// rejection.
func sealedBoard(b *testing.B, pub *Public, n int, bad ...int) (*store.MemLog, *Transcript) {
	b.Helper()
	ctx := context.Background()
	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Store: log})
	if err != nil {
		b.Fatal(err)
	}
	const frame = 256
	var subs []*ClientSubmission
	for i := 0; i < n; i++ {
		sub, err := pub.NewClientSubmission(i, i%2, nil)
		if err != nil {
			b.Fatal(err)
		}
		if slices.Contains(bad, i) {
			sub = forgeBitProof(pub, sub)
		}
		if subs = append(subs, sub); len(subs) == frame || i == n-1 {
			verdicts, err := sess.SubmitBatch(ctx, subs)
			if err != nil {
				b.Fatal(err)
			}
			for j, v := range verdicts {
				if (v != nil) != slices.Contains(bad, subs[j].Public.ID) {
					b.Fatalf("client %d: verdict %v", subs[j].Public.ID, v)
				}
			}
			subs = nil
		}
	}
	res, err := sess.Finalize(ctx)
	if err != nil {
		b.Fatal(err)
	}
	return log, res.Transcript
}

// drainedTail returns a tail that has consumed the whole of sealedBoard's
// log, seal included, with the seal's bytes.
func drainedTail(b *testing.B, pub *Public, n int) (*TailAuditor, []byte) {
	b.Helper()
	log, tr := sealedBoard(b, pub, n)
	tail, err := TailAuditLog(pub, log, TailOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pollUntilSealed(b, tail)
	return tail, pub.EncodeTranscript(tr)
}
