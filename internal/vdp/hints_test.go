package vdp

import (
	"bytes"
	"context"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fp256"
	"repro/internal/store"
)

// The digests testdata/v1board.log's epochs verify to: epoch 0 as sealed in
// the fixture, epoch 1 as ResumeSession finalizes it with testSeed(72).
// Both were read off the fixture by the version-1 readers of the build that
// wrote it.
const (
	v1BoardDigest0 = "a03a84fc1c2cab9abac5d7afb1e909b8633b7831832db34e8028cff5f7045cb8"
	v1BoardDigest1 = "83555f4cceca627689405c72ea6117cfe2d0a1fb58b8572eafab85b22f4adf47"
)

// v1BoardRecords reads the version-1 board fixture (see TestWriteV1Board).
func v1BoardRecords(t *testing.T) []*store.Record {
	t.Helper()
	log, err := store.OpenFileLogReadOnly(filepath.Join("testdata", "v1board.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	recs, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// writableCopy copies the fixture into a fresh file log a resume may append
// to.
func writableCopy(t *testing.T) *store.FileLog {
	t.Helper()
	src, err := os.Open(filepath.Join("testdata", "v1board.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	path := filepath.Join(t.TempDir(), "board.log")
	dst, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := store.OpenFileLog(path, store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return log
}

func wantDigest(t *testing.T, who string, got []byte, want string) {
	t.Helper()
	if hex.EncodeToString(got) != want {
		t.Fatalf("%s verified digest %x, want the pinned %s", who, got, want)
	}
}

// TestV1BoardStillReads: a board log written before arrival records carried
// hints reads through the version-1 path — the offline audit, a live tail
// and a resume each accept it and verify its pinned digests, and what the
// resumed session appends (version-2 records) continues the same log.
func TestV1BoardStillReads(t *testing.T) {
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	recs := v1BoardRecords(t)
	arrivals := 0
	for i, rec := range recs {
		if rec.Kind != RecordSubmission {
			continue
		}
		arrivals++
		if _, hints := splitArrival(rec.Payload); len(hints) != 0 {
			t.Fatalf("fixture record %d carries %d hint bytes", i, len(hints))
		}
	}
	if arrivals != 7 {
		t.Fatalf("fixture holds %d arrival records, want 7", arrivals)
	}
	sweepReaders(t, sweptLog{pub: pub, recs: recs})

	ro, err := store.OpenFileLogReadOnly(filepath.Join("testdata", "v1board.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := AuditLog(ctx, pub, ro, 0, 2); err != nil {
		t.Fatalf("audit: %v", err)
	}
	s, err := auditedEpoch(ctx, pub, ro, 0, 2, 0, 1)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	wantDigest(t, "audit", s.digest, v1BoardDigest0)
	if len(s.roster) != 3 {
		t.Fatalf("audit roster %v, want three clients", s.roster)
	}

	tail := NewTailAuditor(pub, TailOptions{Workers: 2})
	if err := feedAll(tail, recs); err != nil {
		t.Fatalf("tail: %v", err)
	}
	d0, _ := tail.VerifiedDigest(0)
	wantDigest(t, "tail", d0, v1BoardDigest0)

	log := writableCopy(t)
	sess, err := ResumeSession(ctx, pub, SessionOptions{Rand: testSeed(72), Store: log, Parallelism: 2})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	// Clients 3 and 4 were decided, 5 withdrawn, 6 arrived without a verdict.
	if sess.Epoch() != 1 || sess.Submitted() != 3 || sess.Accepted() != 3 {
		t.Fatalf("resumed epoch %d with %d submitted, %d accepted; want epoch 1, 3 and 3",
			sess.Epoch(), sess.Submitted(), sess.Accepted())
	}
	res, err := sess.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest(t, "resume", TranscriptDigest(pub, res.Transcript), v1BoardDigest1)

	after, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := len(recs); i < len(after); i++ {
		if err := tail.Feed(after[i], int64(i)); err != nil {
			t.Fatalf("tail of the resumed log: %v", err)
		}
	}
	d1, _ := tail.VerifiedDigest(1)
	wantDigest(t, "tail of the resumed log", d1, v1BoardDigest1)
	if err := AuditLog(ctx, pub, log, 1, 2); err != nil {
		t.Fatalf("audit of the resumed epoch: %v", err)
	}
}

// roots counts the field square roots fn takes.
func roots(fn func()) uint64 {
	before := fp256.SqrtCalls()
	fn()
	return fp256.SqrtCalls() - before
}

// pointsOf counts the group elements of a client's public part.
func pointsOf(cp *ClientPublic) uint64 {
	var n uint64
	for _, row := range cp.ShareCommitments {
		n += uint64(len(row))
	}
	if cp.BitProof != nil {
		n += 2
	}
	if cp.OneHotProof != nil {
		n += 2 * uint64(len(cp.OneHotProof.Bits))
	}
	return n
}

// proverPoints counts the group elements of a transcript's prover section:
// each coin's commitment, A0 and A1, and every Morra commitment.
func proverPoints(tr *Transcript) uint64 {
	var n uint64
	for _, msg := range tr.CoinMsgs {
		for _, comms := range msg.Commitments {
			n += 3 * uint64(len(comms))
		}
	}
	for _, rec := range tr.Morra {
		for _, cm := range rec.Commits {
			n += uint64(len(cm.Commitments))
		}
	}
	return n
}

// arrivalPoints counts the points of the arrival records of recs, of epoch
// only when epoch ≥ 0.
func arrivalPoints(t *testing.T, pub *Public, recs []*store.Record, epoch int) uint64 {
	t.Helper()
	var n uint64
	for _, rec := range recs {
		if rec.Kind != RecordSubmission || (epoch >= 0 && int(rec.Epoch) != epoch) {
			continue
		}
		sub, err := pub.DecodeClientSubmission(rec.Payload)
		if err != nil {
			t.Fatal(err)
		}
		n += pointsOf(sub.Public)
	}
	return n
}

// encodeV1 is sub's version-1 encoding, the client's bytes without the hint
// section: what a client built before point hints sends.
func encodeV1(pub *Public, sub *ClientSubmission) []byte {
	client, _ := splitArrival(pub.EncodeClientSubmission(sub))
	return client
}

// TestReadersTakeNoSquareRoots: admission takes no square root for a hinted
// submission — a "submit" body or a 64-member "submit-batch" — and one per
// point of a version-1 member, which it still admits and logs as the same
// arrival record the hinted member would have made. The readers of the
// board — tail, audit, resume (of an open epoch and of a sealed one), the
// snapshot check of a compacted epoch — take none on a version-2 board,
// whose arrival records and seal carry a hint for every point, and one per
// point of each version-1 record and seal they decode (the fixture).
func TestReadersTakeNoSquareRoots(t *testing.T) {
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)

	// A v2 board shaped like the fixture: epoch 0 sealed, epoch 1 open.
	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(74), Store: log, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int][]byte) // each client's hinted encoding
	client := func(id int) *ClientSubmission {
		sub, err := pub.NewClientSubmission(id, id%2, testSeed(byte(180+id)))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = pub.EncodeClientSubmission(sub)
		return sub
	}
	hinted := func(id int) []byte {
		client(id)
		return want[id]
	}
	submitBody := func(body []byte) func() ([]*ClientSubmission, error) {
		return func() ([]*ClientSubmission, error) {
			sub, err := pub.DecodeClientSubmission(body)
			return []*ClientSubmission{sub}, err
		}
	}
	batchBody := func(members ...[]byte) func() ([]*ClientSubmission, error) {
		body := EncodeRawSubmissionBatch(members)
		return func() ([]*ClientSubmission, error) { return pub.DecodeSubmissionBatch(body) }
	}
	var batch64 [][]byte
	for id := 100; id < 164; id++ {
		batch64 = append(batch64, hinted(id))
	}
	v1 := client(1)
	frames := []struct {
		name   string
		epoch  int
		decode func() ([]*ClientSubmission, error)
		roots  uint64
	}{
		{"hinted submit", 0, submitBody(hinted(0)), 0},
		{"hinted 64-member submit-batch", 0, batchBody(batch64...), 0},
		{"submit-batch with a v1 member", 0, batchBody(encodeV1(pub, v1), hinted(2)), pointsOf(v1.Public)},
		{"hinted submit, epoch 1", 1, submitBody(hinted(3)), 0},
		{"hinted submit-batch, epoch 1", 1, batchBody(hinted(4)), 0},
	}
	for _, f := range frames {
		if f.epoch == 1 && sess.Epoch() == 0 {
			if _, err := sess.Finalize(ctx); err != nil {
				t.Fatal(err)
			}
			if err := sess.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		if n := roots(func() {
			subs, err := f.decode()
			if err != nil {
				t.Fatal(err)
			}
			verdicts, err := sess.SubmitBatch(ctx, subs)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range verdicts {
				if v != nil {
					t.Fatalf("%s: %v", f.name, v)
				}
			}
		}); n != f.roots {
			t.Fatalf("admitting a %s took %d square roots, want %d", f.name, n, f.roots)
		}
	}
	v2, _ := log.Snapshot()
	logged := 0
	for i, rec := range v2 {
		if rec.Kind != RecordSubmission {
			continue
		}
		logged++
		sub, err := pub.DecodeClientSubmission(rec.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Payload, want[sub.Public.ID]) {
			t.Fatalf("arrival record %d is not client %d's hinted encoding", i, sub.Public.ID)
		}
	}
	if logged != len(want) {
		t.Fatalf("the board logs %d arrival records for %d clients", logged, len(want))
	}

	for _, board := range []struct {
		name string
		recs []*store.Record
		hint bool
	}{{"v2", v2, true}, {"v1 fixture", v1BoardRecords(t), false}} {
		recs := board.recs
		sealed := -1 // the last record of epoch 0's seal
		for i, rec := range recs {
			if rec.Epoch == 0 && (rec.Kind == RecordSeal || rec.Kind == RecordSealChunk) {
				sealed = i
			}
		}
		var seal []byte
		if err := scanSeals(memLogOf(t, recs), func(epoch int, b []byte) {
			if epoch == 0 {
				seal = b
			}
		}); err != nil || seal == nil || sealed < 0 {
			t.Fatalf("%s: no epoch-0 seal: %v", board.name, err)
		}
		if _, hints := sealParts(seal); (len(hints) != 0) != board.hint {
			t.Fatalf("%s: epoch 0's seal carries %d hint bytes", board.name, len(hints))
		}
		var clients [][]byte
		var tr *Transcript
		sealRoots := roots(func() {
			var err error
			if clients, tr, err = pub.decodeProverSection(seal, 1); err != nil {
				t.Fatal(err)
			}
		})
		// The snapshot check of a compacted epoch 0 decodes its seal once.
		digest0 := sealDigest(pub, clients, tr)
		if n := roots(func() {
			if d, err := transcriptDigestFromBytes(pub, seal); err != nil || !bytes.Equal(d, digest0) {
				t.Fatalf("%s: snapshot check: %x, %v", board.name, d, err)
			}
		}); n != sealRoots {
			t.Errorf("%s: the snapshot check took %d square roots, the prover section %d", board.name, n, sealRoots)
		}
		want := proverPoints(tr)
		if board.hint {
			want = 0
		}
		if sealRoots != want {
			t.Errorf("%s: decoding epoch 0's prover section took %d square roots, want %d", board.name, sealRoots, want)
		}
		upToSeal := recs[:sealed+1]
		compacted := append(copyRecords(upToSeal), &store.Record{Kind: RecordSnapshot, Payload: encodeSnapshot(0, digest0)})
		all, epoch0 := arrivalPoints(t, pub, recs, -1), arrivalPoints(t, pub, recs, 0)
		if board.hint {
			all, epoch0 = 0, 0
		}
		resume := func(recs []*store.Record) func() error {
			return func() error {
				_, err := ResumeSession(ctx, pub, SessionOptions{Rand: testSeed(75), Store: memLogOf(t, recs), Parallelism: 2})
				return err
			}
		}
		for _, r := range []struct {
			who  string
			want uint64
			read func() error
		}{
			{"tail", sealRoots + all, func() error {
				return feedAll(NewTailAuditor(pub, TailOptions{Workers: 2}), recs)
			}},
			{"audit", sealRoots + epoch0, func() error { return AuditLog(ctx, pub, memLogOf(t, recs), 0, 2) }},
			{"resume", all, resume(recs)},
			{"resume of the sealed epoch 0", epoch0 + sealRoots, resume(upToSeal)},
			// The seal is decoded to verify it, then again by the snapshot
			// check.
			{"tail of the compacted epoch 0", epoch0 + 2*sealRoots, func() error {
				return feedAll(NewTailAuditor(pub, TailOptions{Workers: 2}), compacted)
			}},
		} {
			var err error
			if n := roots(func() { err = r.read() }); err != nil || n != r.want {
				t.Errorf("%s: %s took %d square roots (err %v), want %d (%d for the seal's prover section)",
					board.name, r.who, n, err, r.want, sealRoots)
			}
		}
	}
}
