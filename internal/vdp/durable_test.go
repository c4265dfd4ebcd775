package vdp

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/store"
)

// buildSubs deterministically generates client submissions outside any
// session, standing in for remote clients whose material is fixed across
// the uninterrupted and crash-recovered server runs under comparison.
func buildSubs(t *testing.T, pub *Public, choices []int) []*ClientSubmission {
	t.Helper()
	subs := make([]*ClientSubmission, len(choices))
	for i, choice := range choices {
		sub, err := pub.NewClientSubmission(i, choice, testSeed(byte(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	return subs
}

// TestTranscriptWireRoundTrip: the sealed-epoch encoding is lossless — a
// decoded transcript has the same TranscriptDigest as the original and
// still passes the full audit, for both deployment shapes.
func TestTranscriptWireRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		k, m    int
		choices []int
	}{
		{"curator-count", 1, 1, []int{1, 0, 1, 1}},
		{"mpc-histogram", 2, 3, []int{0, 1, 2, 2, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pub := testPublic(t, tc.k, tc.m, 4)
			res, err := Run(pub, tc.choices, &RunOptions{Rand: testSeed(9)})
			if err != nil {
				t.Fatal(err)
			}
			enc := pub.EncodeTranscript(res.Transcript)
			back, err := pub.DecodeTranscript(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(TranscriptDigest(pub, back), TranscriptDigest(pub, res.Transcript)) {
				t.Error("decoded transcript digest differs from original")
			}
			if err := Audit(pub, back); err != nil {
				t.Errorf("decoded transcript failed audit: %v", err)
			}
			if !bytes.Equal(pub.EncodeTranscript(back), enc) {
				t.Error("transcript encoding is not canonical under re-encode")
			}
		})
	}
}

// TestCrashRecoveryDigest is the durability acceptance criterion: a session
// killed mid-epoch after N submits and resumed from its file-backed board
// log finishes the epoch with a TranscriptDigest byte-identical to an
// uninterrupted run — for the curator count and the MPC histogram.
// (TestResumeReverifiesMissingVerdicts covers a log missing verdicts.)
func TestCrashRecoveryDigest(t *testing.T) {
	cases := []struct {
		name    string
		k, m    int
		choices []int
	}{
		{"curator-count-eager", 1, 1, []int{1, 0, 1, 1, 0, 1}},
		{"mpc-histogram-eager", 2, 3, []int{0, 1, 2, 2, 1, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pub := testPublic(t, tc.k, tc.m, 4)
			subs := buildSubs(t, pub, tc.choices)
			ctx := context.Background()

			// Reference: the uninterrupted run over the same submissions.
			ref, err := NewSession(pub, SessionOptions{Rand: testSeed(3)})
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range subs {
				if err := ref.Submit(ctx, sub); err != nil {
					t.Fatal(err)
				}
			}
			refRes, err := ref.Finalize(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := TranscriptDigest(pub, refRes.Transcript)

			// Crash run: submit half into a file-backed session, drop it on
			// the floor (no Finalize, no clean close), then recover.
			path := filepath.Join(t.TempDir(), "board.log")
			log, err := store.OpenFileLog(path)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(pub, SessionOptions{Rand: testSeed(3), Store: log})
			if err != nil {
				t.Fatal(err)
			}
			crashAt := len(subs) / 2
			for _, sub := range subs[:crashAt] {
				if err := sess.Submit(ctx, sub); err != nil {
					t.Fatal(err)
				}
			}
			// The "crash": the session vanishes, the log file survives.
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			log, err = store.OpenFileLog(path)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := ResumeSession(ctx, pub, SessionOptions{Rand: testSeed(3), Store: log})
			if err != nil {
				t.Fatal(err)
			}
			if got := resumed.Submitted(); got != crashAt {
				t.Fatalf("resumed session recovered %d submissions, want %d", got, crashAt)
			}
			for _, sub := range subs[crashAt:] {
				if err := resumed.Submit(ctx, sub); err != nil {
					t.Fatal(err)
				}
			}
			res, err := resumed.Finalize(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := TranscriptDigest(pub, res.Transcript); !bytes.Equal(got, want) {
				t.Error("recovered transcript digest differs from uninterrupted run")
			}
			if err := Audit(pub, res.Transcript); err != nil {
				t.Errorf("recovered transcript failed audit: %v", err)
			}

			// The sealed epoch audits offline, straight from the log.
			if err := AuditLog(ctx, pub, log, 0, 0); err != nil {
				t.Errorf("AuditLog rejected the sealed epoch: %v", err)
			}
			if err := AuditLog(ctx, pub, log, -1, 0); err != nil {
				t.Errorf("AuditLog(latest) rejected the sealed epoch: %v", err)
			}
			sealed, err := SealedEpochs(log)
			if err != nil {
				t.Fatal(err)
			}
			if len(sealed) != 1 || sealed[0] != 0 {
				t.Errorf("SealedEpochs = %v, want [0]", sealed)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResumeReverifiesMissingVerdicts: submissions persisted without verdict
// records (a crash between the two appends) are
// re-verified at resume with the same verdicts Submit would have produced —
// including the rejection of a tampered client — and the recovered verdicts
// are appended so the log converges.
func TestResumeReverifiesMissingVerdicts(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	subs := buildSubs(t, pub, []int{1, 0, 1})

	// Tamper with client 1: relabel the whole submission as client 9. The
	// payload stays self-consistent, but the board proof's Fiat-Shamir
	// context binds client ID 1, so verification must reject it publicly.
	subs[1].Public.ID = 9
	for _, pl := range subs[1].Payloads {
		pl.ClientID = 9
	}

	log := store.NewMemLog()
	for _, sub := range subs {
		rec := &store.Record{Kind: RecordSubmission, Epoch: 0, Payload: pub.EncodeClientSubmission(sub)}
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	sess, err := ResumeSession(ctx, pub, SessionOptions{Rand: testSeed(3), Store: log})
	if err != nil {
		t.Fatal(err)
	}
	rejected := sess.Rejected()
	if len(rejected) != 1 {
		t.Fatalf("resume rejected %d clients, want 1 (the tampered one)", len(rejected))
	}
	if err, ok := rejected[9]; !ok || !errors.Is(err, ErrClientReject) {
		t.Fatalf("tampered client verdict = %v, want ErrClientReject", rejected)
	}
	// The re-verification appended verdict records: 3 submissions + 3
	// verdicts now in the log.
	if got := log.Len(); got != 6 {
		t.Fatalf("log holds %d records after resume, want 6", got)
	}
	res, err := sess.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The tampered client failed its *board* proof, so it stays on the
	// bulletin board with its public verdict: 3 board entries, 2 counted.
	if len(res.Transcript.Clients) != 3 {
		t.Fatalf("board holds %d clients, want 3", len(res.Transcript.Clients))
	}
	if err := Audit(pub, res.Transcript); err != nil {
		t.Errorf("audit failed: %v", err)
	}
}

// TestResumeSealedEpoch: a log whose last epoch is sealed resumes in the
// finalized state — Submit refuses, Reset opens the next epoch, and the new
// epoch's releases land in the same log.
func TestResumeSealedEpoch(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	subs := buildSubs(t, pub, []int{1, 0, 1, 1})
	ctx := context.Background()

	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(3), Store: log})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs[:2] {
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Finalize(ctx); err != nil {
		t.Fatal(err)
	}

	resumed, err := ResumeSession(ctx, pub, SessionOptions{Rand: testSeed(3), Store: log})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Finalized() {
		t.Fatal("resumed session over a sealed epoch is not finalized")
	}
	if err := resumed.Submit(ctx, subs[2]); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Submit into a sealed epoch: %v, want ErrBadConfig", err)
	}
	if err := resumed.Reset(); err != nil {
		t.Fatal(err)
	}
	if resumed.Epoch() != 1 {
		t.Fatalf("epoch after Reset = %d, want 1", resumed.Epoch())
	}
	for _, sub := range subs[2:] {
		if err := resumed.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := resumed.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealedEpochs(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 2 || sealed[0] != 0 || sealed[1] != 1 {
		t.Fatalf("SealedEpochs = %v, want [0 1]", sealed)
	}
	for _, epoch := range sealed {
		if err := AuditLog(ctx, pub, log, epoch, 0); err != nil {
			t.Errorf("AuditLog epoch %d: %v", epoch, err)
		}
	}
}

// TestAuditLogCrossChecksSubmissions: a seal that disagrees with the log's
// own arrival records is rejected, even though the transcript inside it
// verifies in isolation.
func TestAuditLogCrossChecksSubmissions(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	subs := buildSubs(t, pub, []int{1, 0, 1})
	ctx := context.Background()

	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(3), Store: log})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := AuditLog(ctx, pub, log, 0, 0); err != nil {
		t.Fatalf("intact log rejected: %v", err)
	}

	// Drop one submission record: the seal now lists a client the log never
	// admitted.
	recs, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tampered := store.NewMemLog()
	dropped := false
	for _, rec := range recs {
		if rec.Kind == RecordSubmission && !dropped {
			dropped = true
			continue
		}
		if err := tampered.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := AuditLog(ctx, pub, tampered, 0, 0); !errors.Is(err, ErrAuditFail) {
		t.Fatalf("seal/log mismatch: %v, want ErrAuditFail", err)
	}

	// Unsealed epoch: auditing it must fail cleanly.
	if err := AuditLog(ctx, pub, log, 7, 0); !errors.Is(err, ErrAuditFail) {
		t.Fatalf("unsealed epoch audit: %v, want ErrAuditFail", err)
	}

	// A verdict for a client the log never admitted: refuse, exactly as
	// ResumeSession would.
	phantom := store.NewMemLog()
	if err := phantom.Append(&store.Record{Kind: RecordVerdict, Epoch: 0, Payload: encodeVerdict(42, nil, true)}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := phantom.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := AuditLog(ctx, pub, phantom, 0, 0); !errors.Is(err, ErrAuditFail) {
		t.Fatalf("verdict for unknown client: %v, want ErrAuditFail", err)
	}

	// A second submission from an already-decided client (an attempt to
	// swap the arrival bytes the seal cross-check compares against).
	swapped := store.NewMemLog()
	for _, rec := range recs {
		if err := swapped.Append(rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind == RecordVerdict {
			resub := &store.Record{Kind: RecordSubmission, Epoch: 0, Payload: recs[0].Payload}
			if err := swapped.Append(resub); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if err := AuditLog(ctx, pub, swapped, 0, 0); !errors.Is(err, ErrAuditFail) {
		t.Fatalf("duplicate submission from decided client: %v, want ErrAuditFail", err)
	}

	// A record kind no Session writes: the auditor must refuse the log,
	// exactly as the server's own recovery would.
	alien := store.NewMemLog()
	if err := alien.Append(&store.Record{Kind: 99, Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := alien.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := AuditLog(ctx, pub, alien, 0, 0); !errors.Is(err, ErrAuditFail) {
		t.Fatalf("unknown record kind: %v, want ErrAuditFail", err)
	}
	if _, err := ResumeSession(ctx, pub, SessionOptions{Store: alien}); err == nil {
		t.Fatal("ResumeSession accepted a log with an unknown record kind")
	}
}

// TestConcurrentDurableSubmitOrder: submissions racing into a durable
// session land in the log in the same order they land on the board, so a
// session resumed from a snapshot of the log finalizes to the exact digest
// the original session does — even though the interleaving itself was
// nondeterministic.
func TestConcurrentDurableSubmitOrder(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	subs := buildSubs(t, pub, []int{1, 0, 1, 1, 0, 1, 0, 1})
	ctx := context.Background()

	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(6), Parallelism: 4, Store: log})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, sub := range subs {
		wg.Add(1)
		go func(sub *ClientSubmission) {
			defer wg.Done()
			if err := sess.Submit(ctx, sub); err != nil {
				t.Errorf("submit %d: %v", sub.Public.ID, err)
			}
		}(sub)
	}
	wg.Wait()

	// Clone the log as a crash image *before* finalizing the original.
	recs, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	image := store.NewMemLog()
	for _, rec := range recs {
		if err := image.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	res, err := sess.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := TranscriptDigest(pub, res.Transcript)

	resumed, err := ResumeSession(ctx, pub, SessionOptions{Rand: testSeed(6), Parallelism: 4, Store: image})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := resumed.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := TranscriptDigest(pub, res2.Transcript); !bytes.Equal(got, want) {
		t.Error("resumed-from-snapshot digest differs: log order diverged from board order")
	}
}

// TestResumeSupersedesLostWithdrawal: a submission whose withdrawal record
// was lost (withdraw appends are best-effort) followed by a successful
// retry of the same client must replay as the retry alone — the log stays
// recoverable instead of failing with a duplicate-ID error.
func TestResumeSupersedesLostWithdrawal(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	subs := buildSubs(t, pub, []int{1, 1})
	log := store.NewMemLog()
	// Client 0 submitted, was withdrawn (record lost), then retried: two
	// submission records, no withdrawal between them.
	for i := 0; i < 2; i++ {
		rec := &store.Record{Kind: RecordSubmission, Epoch: 0, Payload: pub.EncodeClientSubmission(subs[0])}
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	sess, err := ResumeSession(ctx, pub, SessionOptions{Rand: testSeed(3), Store: log})
	if err != nil {
		t.Fatalf("resume over a lost-withdrawal log: %v", err)
	}
	if got := sess.Submitted(); got != 1 {
		t.Fatalf("recovered %d submissions, want 1 (retry supersedes)", got)
	}
	if _, err := sess.Finalize(ctx); err != nil {
		t.Fatal(err)
	}

	// A duplicate after a *decided* submission is real corruption: reject.
	bad := store.NewMemLog()
	if err := bad.Append(&store.Record{Kind: RecordSubmission, Epoch: 0, Payload: pub.EncodeClientSubmission(subs[0])}); err != nil {
		t.Fatal(err)
	}
	if err := bad.Append(&store.Record{Kind: RecordVerdict, Epoch: 0, Payload: encodeVerdict(subs[0].Public.ID, nil, true)}); err != nil {
		t.Fatal(err)
	}
	if err := bad.Append(&store.Record{Kind: RecordSubmission, Epoch: 0, Payload: pub.EncodeClientSubmission(subs[0])}); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSession(ctx, pub, SessionOptions{Store: bad}); err == nil {
		t.Fatal("duplicate of a decided submission was accepted on resume")
	}
}

// TestChunkedSealRoundTrip: a sealed transcript too large for one store
// record is split across seal-chunk records, and both ResumeSession and
// AuditLog reassemble it transparently.
func TestChunkedSealRoundTrip(t *testing.T) {
	old := sealChunkSize
	sealChunkSize = 512 // force several chunks without a giant transcript
	defer func() { sealChunkSize = old }()

	pub := testPublic(t, 1, 1, 4)
	subs := buildSubs(t, pub, []int{1, 0, 1})
	ctx := context.Background()
	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(3), Store: log})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	nChunks := 0
	if err := log.Replay(func(rec *store.Record) error {
		if rec.Kind == RecordSealChunk {
			nChunks++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if nChunks < 2 {
		t.Fatalf("seal used %d chunk records, want several", nChunks)
	}
	sealed, err := SealedEpochs(log)
	if err != nil || len(sealed) != 1 || sealed[0] != 0 {
		t.Fatalf("SealedEpochs = %v (err %v), want [0]", sealed, err)
	}
	resumed, err := ResumeSession(ctx, pub, SessionOptions{Rand: testSeed(3), Store: log})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Finalized() {
		t.Fatal("chunk-sealed epoch did not resume as finalized")
	}
	if err := AuditLog(ctx, pub, log, 0, 0); err != nil {
		t.Fatalf("AuditLog over a chunked seal: %v", err)
	}
}

// TestAuditLogRejectsForgedWithdrawal: a withdrawal record cannot erase a
// verdict-decided client from the cross-check — neither appended after the
// seal nor spliced in before it.
func TestAuditLogRejectsForgedWithdrawal(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	subs := buildSubs(t, pub, []int{1, 0, 1})
	ctx := context.Background()
	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(3), Store: log})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Finalize(ctx); err != nil {
		t.Fatal(err)
	}

	// Forgery 1: withdraw an admitted client after the seal.
	after := store.NewMemLog()
	recs, _ := log.Snapshot()
	for _, rec := range recs {
		if err := after.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := after.Append(&store.Record{Kind: RecordWithdraw, Epoch: 0, Payload: encodeWithdraw(subs[0].Public.ID)}); err != nil {
		t.Fatal(err)
	}
	if err := AuditLog(ctx, pub, after, 0, 0); !errors.Is(err, ErrAuditFail) {
		t.Fatalf("post-seal withdrawal forgery: %v, want ErrAuditFail", err)
	}

	// Forgery 2: splice the withdrawal in before the seal, targeting a
	// client whose verdict is on record.
	before := store.NewMemLog()
	for _, rec := range recs {
		if rec.Kind == RecordSeal || rec.Kind == RecordSealChunk {
			if err := before.Append(&store.Record{Kind: RecordWithdraw, Epoch: 0, Payload: encodeWithdraw(subs[0].Public.ID)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := before.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := AuditLog(ctx, pub, before, 0, 0); !errors.Is(err, ErrAuditFail) {
		t.Fatalf("pre-seal withdrawal forgery: %v, want ErrAuditFail", err)
	}
}

// TestNewSessionRejectsUsedLog: a fresh session must not append to a log
// with history; recovery is ResumeSession's job.
func TestNewSessionRejectsUsedLog(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	log := store.NewMemLog()
	if err := log.Append(&store.Record{Kind: RecordReset, Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(pub, SessionOptions{Store: log}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("NewSession over a used log: %v, want ErrBadConfig", err)
	}
}
