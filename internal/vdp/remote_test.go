package vdp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/store"
)

// versionZero is the decoder's refusal of a body whose first byte is 0, as
// every retired prover-0-only "submit" body's is.
const versionZero = "vdp: unsupported wire format version 0 (this build speaks 1)"

// oldSubmitBody builds the retired "submit" body — u32 publicLen | public |
// prover-0 payload, no version byte — that the decoders must refuse.
func oldSubmitBody(pub *Public, sub *ClientSubmission) []byte {
	pubEnc := pub.EncodeClientPublic(sub.Public)
	body := binary.BigEndian.AppendUint32(nil, uint32(len(pubEnc)))
	return append(append(body, pubEnc...), pub.EncodeClientPayload(sub.Payloads[0])...)
}

// TestSubmitPayloadAliases: the submit-payload pair is the client
// submission codec under another name — the same bytes out, the same
// submission back, the same refusal of a bad body.
func TestSubmitPayloadAliases(t *testing.T) {
	pub := testPublic(t, 2, 2, 4)
	sub, err := pub.NewClientSubmission(3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pub.EncodeSubmitPayload(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, pub.EncodeClientSubmission(sub)) {
		t.Fatal("EncodeSubmitPayload differs from EncodeClientSubmission")
	}
	got, err := pub.DecodeSubmitPayload(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Public.ID != 3 || !bytes.Equal(pub.EncodeClientSubmission(got), b) {
		t.Fatal("DecodeSubmitPayload did not give back the submission")
	}
	if _, err := pub.DecodeSubmitPayload(oldSubmitBody(pub, sub)); err == nil || err.Error() != versionZero {
		t.Fatalf("decoding the old layout: %v, want %q", err, versionZero)
	}
}

// TestSubmitPayloadWire pins a submission's one wire encoding and the
// router's zero-crypto byte work over it: every "submit-batch" member is
// EncodeClientSubmission's record byte for byte (a "submit" body is one such
// record), a K = 2 record keeps both provers' payloads, the retired
// prover-0-only body is refused with the version text, and peek, batch split
// and byte-identical reassembly survive hostile framing.
func TestSubmitPayloadWire(t *testing.T) {
	pub := testPublic(t, 2, 2, 4)
	all := make([]*ClientSubmission, 3)
	for i := range all {
		var err error
		if all[i], err = pub.NewClientSubmission(i+7, i%2, nil); err != nil {
			t.Fatal(err)
		}
	}
	body := pub.EncodeClientSubmission(all[0])
	got, err := pub.DecodeClientSubmission(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Public.ID != 7 || len(got.Payloads) != 2 {
		t.Fatalf("K = 2 round trip: client %d with %d payloads", got.Public.ID, len(got.Payloads))
	}
	for k, pl := range got.Payloads {
		if pl.ClientID != 7 || pl.Prover != k || !bytes.Equal(pub.EncodeClientPayload(pl), pub.EncodeClientPayload(all[0].Payloads[k])) {
			t.Fatalf("K = 2 round trip changed prover %d's payload", k)
		}
	}
	if id, err := PeekSubmissionID(body); err != nil || id != 7 {
		t.Fatalf("peek: id %d err %v", id, err)
	}

	// Partition scan + reassembly round trip: each member of a 3-client
	// batch is the record a "submit" frame carries, and re-encoding the
	// records reproduces the frame byte for byte.
	frame := pub.EncodeSubmissionBatch(all)
	recs, ids, err := SplitSubmissionBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("split yielded %d records", len(recs))
	}
	for i, rec := range recs {
		if ids[i] != i+7 || !bytes.Equal(rec, pub.EncodeClientSubmission(all[i])) {
			t.Fatalf("record %d (peeked id %d) is not client %d's submit body", i, ids[i], i+7)
		}
	}
	if !bytes.Equal(EncodeRawSubmissionBatch(recs), frame) {
		t.Fatal("reassembled batch is not byte-identical to the original frame")
	}

	// The retired body starts with a length below 16 MiB, so its first byte
	// is 0: both the decoder and the router's peek refuse it by version.
	old := oldSubmitBody(pub, all[0])
	if _, err := pub.DecodeClientSubmission(old); err == nil || err.Error() != versionZero {
		t.Fatalf("decoding the old layout: %v, want %q", err, versionZero)
	}
	if _, err := PeekSubmissionID(old); err == nil || err.Error() != versionZero {
		t.Fatalf("peeking the old layout: %v, want %q", err, versionZero)
	}

	// Hostile framing fails without panicking: no body, a short length field,
	// a length field past the end, a 2^32-scale length field.
	for _, bad := range [][]byte{nil, {WireVersion, 0}, {WireVersion, 0, 0, 200, 1}, {WireVersion, 255, 0, 0, 0, 1}} {
		if _, err := PeekSubmissionID(bad); err == nil {
			t.Fatalf("peek accepted %v", bad)
		}
	}
	if _, _, err := SplitSubmissionBatch([]byte{WireVersion, 255, 255, 255, 255}); err == nil {
		t.Fatal("split accepted an absurd batch count")
	}
}

// TestShardSessionMergeAudit runs a one-node "cluster" through the remote
// entry points: a shard session over its own board log, the merged audit
// over node logs against a merged seal, the release merge, and the
// merged-seal record codec.
func TestShardSessionMergeAudit(t *testing.T) {
	pub := testPublic(t, 1, 2, 4)
	ctx := context.Background()

	// Config validation: bad shard coordinates and an internal shard split.
	if _, err := NewShardSession(pub, SessionOptions{Rand: testSeed(95)}, 0, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatal("accepted zero shard count")
	}
	if _, err := NewShardSession(pub, SessionOptions{Rand: testSeed(95)}, 2, 2); !errors.Is(err, ErrBadConfig) {
		t.Fatal("accepted out-of-range shard index")
	}
	if _, err := NewShardSession(pub, SessionOptions{Rand: testSeed(95), Shards: 2}, 0, 2); !errors.Is(err, ErrBadConfig) {
		t.Fatal("accepted an internal shard split inside a shard session")
	}
	if _, err := ResumeShardSession(ctx, pub, SessionOptions{Rand: testSeed(95)}, -1, 2); !errors.Is(err, ErrBadConfig) {
		t.Fatal("resume accepted a negative shard index")
	}

	log := store.NewMemLog()
	sess, err := NewShardSession(pub, SessionOptions{Rand: testSeed(95), Store: log}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, choice := range []int{1, 0, 1} {
		sub, err := pub.NewClientSubmission(i, choice, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}

	tr := res.Transcript
	sealed := MergedTranscriptDigest(pub, []*Transcript{tr})
	seal := func(want []byte) func(int) (int, []byte, error) {
		return func(epoch int) (int, []byte, error) { return max(epoch, 0), want, nil }
	}
	if _, _, err := AuditMergedLogs(ctx, pub, nil, 0, 0, seal(sealed)); !errors.Is(err, ErrAuditFail) {
		t.Fatal("audited an empty node set")
	}
	noSeal := errors.New("no seal")
	if _, _, err := AuditMergedLogs(ctx, pub, []Replayer{log}, 0, 0, func(int) (int, []byte, error) { return 0, nil, noSeal }); !errors.Is(err, noSeal) {
		t.Fatalf("audit without a merged seal: %v", err)
	}
	if _, _, err := AuditMergedLogs(ctx, pub, []Replayer{log}, 0, 0, seal(make([]byte, len(sealed)))); !errors.Is(err, ErrAuditFail) || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("audit against another merged seal: %v", err)
	}
	epoch, digest, err := AuditMergedLogs(ctx, pub, []Replayer{log}, -1, 0, seal(sealed))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 0 || !bytes.Equal(digest, sealed) {
		t.Fatalf("merged-log audit returned epoch %d digest %x, want epoch 0 digest %x", epoch, digest, sealed)
	}

	rel, err := MergeReleases(pub, []*Transcript{tr})
	if err != nil {
		t.Fatal(err)
	}
	for j := range rel.Raw {
		if rel.Raw[j] != res.Release.Raw[j] {
			t.Fatalf("bin %d: merged raw %d, sealed raw %d", j, rel.Raw[j], res.Release.Raw[j])
		}
	}

	sidecar := store.NewMemLog()
	book, err := OpenMergedSeals(sidecar, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := book.Record(0, 1, digest); err != nil {
		t.Fatal(err)
	}
	if book, err = OpenMergedSeals(sidecar, 1); err != nil {
		t.Fatalf("reopening the merged-seal log: %v", err)
	}
	if epoch, got, ok := book.Get(-1); !ok || epoch != 0 || !bytes.Equal(got, digest) {
		t.Fatalf("merged-seal record round trip: epoch %d, ok %v", epoch, ok)
	}
	recs, _ := sidecar.Snapshot()
	torn := store.NewMemLog()
	if err := torn.Append(&store.Record{Kind: recs[0].Kind, Payload: recs[0].Payload[:3]}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMergedSeals(torn, 1); err == nil {
		t.Fatal("opened a merged-seal log holding a truncated record")
	}
}

// TestShardPinAtAdmission: a shard's session admits only the clients ShardOf
// assigns it, as its log's readers accept only those. A misrouted member —
// sent to a fresh shard session, to a resumed one, or to a sharded session's
// sub-session — earns the refusal verdict and leaves no record, so the log
// still resumes and the epoch passes the merged audit.
func TestShardPinAtAdmission(t *testing.T) {
	pub := testPublic(t, 1, 2, 4)
	ctx := context.Background()
	const shards = 2
	own, other := pickIDForShard(0, shards), pickIDForShard(1, shards)
	submission := func(id int) *ClientSubmission {
		sub, err := pub.NewClientSubmission(id, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	refusal := fmt.Sprintf("vdp: client input rejected: client %d belongs to shard 1, this node serves shard 0", other)
	// refused sends the misrouted client alone and in a batch behind an
	// already-admitted one, and checks the verdict and that no record lands.
	refused := func(t *testing.T, s *Session, log store.Log) {
		t.Helper()
		before := log.Len()
		if err := s.Submit(ctx, submission(other)); !errors.Is(err, ErrClientReject) || err.Error() != refusal {
			t.Fatalf("misrouted submit: %v, want %q", err, refusal)
		}
		vs, err := s.SubmitBatch(ctx, []*ClientSubmission{submission(own), submission(other)})
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(vs[0], ErrClientReject) || vs[1] == nil || vs[1].Error() != refusal {
			t.Fatalf("batch verdicts %v, want a duplicate and %q", vs, refusal)
		}
		if got := log.Len(); got != before {
			t.Fatalf("log length %d after the refusals, want %d", got, before)
		}
	}

	t.Run("fresh-and-resumed", func(t *testing.T) {
		log := store.NewMemLog()
		s, err := NewShardSession(pub, SessionOptions{Rand: testSeed(96), Store: log}, 0, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(ctx, submission(own)); err != nil {
			t.Fatal(err)
		}
		refused(t, s, log)
		resumed, err := ResumeShardSession(ctx, pub, SessionOptions{Rand: testSeed(96), Store: log}, 0, shards)
		if err != nil {
			t.Fatalf("resuming past the refusals: %v", err)
		}
		refused(t, resumed, log)
		res0, err := resumed.Finalize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		s1, err := NewShardSession(pub, SessionOptions{Rand: testSeed(96)}, 1, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.Submit(ctx, submission(other)); err != nil {
			t.Fatalf("the client's own shard: %v", err)
		}
		res1, err := s1.Finalize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ts := []*Transcript{res0.Transcript, res1.Transcript}
		rel, err := MergeReleases(pub, ts)
		if err != nil {
			t.Fatal(err)
		}
		if err := AuditMerged(ctx, pub, ts, rel, 0); err != nil {
			t.Fatalf("merged audit: %v", err)
		}
		if _, err := ResumeShardSession(ctx, pub, SessionOptions{Rand: testSeed(96), Store: log}, 0, shards); err != nil {
			t.Fatalf("resuming the sealed log: %v", err)
		}
	})

	t.Run("sharded-session-shard", func(t *testing.T) {
		seg, err := store.OpenSegmentedLog(t.TempDir(), shards)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		ss, err := NewShardedSession(pub, SessionOptions{Rand: testSeed(97), Segmented: seg})
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Submit(ctx, submission(own)); err != nil {
			t.Fatal(err)
		}
		refused(t, ss.Shard(0), seg.Segment(0))
		if err := ss.Submit(ctx, submission(other)); err != nil {
			t.Fatalf("routed to its own shard: %v", err)
		}
		res, err := ss.Finalize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := AuditMerged(ctx, pub, res.Transcripts(), res.Release, 0); err != nil {
			t.Fatalf("merged audit: %v", err)
		}
		if err := AuditSegmentedLog(ctx, pub, seg, 0, 0); err != nil {
			t.Fatalf("segmented log audit: %v", err)
		}
	})
}
