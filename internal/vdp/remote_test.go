package vdp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
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
// entry points: a shard session over its own board log, the transcript
// fetch, the merged audit over node logs, the release merge, and the
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

	if _, err := TranscriptFromLog(pub, log, 1); err == nil || !strings.Contains(err.Error(), "not sealed") {
		t.Fatalf("fetched a transcript for an unsealed epoch: %v", err)
	}
	tr, err := TranscriptFromLog(pub, log, 0)
	if err != nil {
		t.Fatal(err)
	}
	sealed := TranscriptDigest(pub, res.Transcript)
	if !bytes.Equal(TranscriptDigest(pub, tr), sealed) {
		t.Fatal("fetched transcript digest disagrees with the sealed result")
	}

	if _, err := AuditMergedLogs(ctx, pub, nil, 0, 0); !errors.Is(err, ErrAuditFail) {
		t.Fatal("audited an empty node set")
	}
	digest, err := AuditMergedLogs(ctx, pub, []Replayer{log}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(digest, MergedTranscriptDigest(pub, []*Transcript{tr})) {
		t.Fatal("merged-log audit digest disagrees with the merged transcript digest")
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
