package vdp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestSubmitPayloadWire pins the single-submission client wire layout and
// the router's zero-crypto byte shuffles over it: peek, repack-as-batch-of-
// one, batch split and byte-identical reassembly.
func TestSubmitPayloadWire(t *testing.T) {
	pub := testPublic(t, 1, 2, 4)
	sub, err := pub.NewClientSubmission(7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := pub.EncodeSubmitPayload(sub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.EncodeSubmitPayload(nil); !errors.Is(err, ErrBadConfig) {
		t.Fatal("encoded a nil submission")
	}

	got, err := pub.DecodeSubmitPayload(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Public.ID != 7 || len(got.Payloads) != 1 || got.Payloads[0].ClientID != 7 {
		t.Fatalf("decoded submission for client %d", got.Public.ID)
	}

	// The router's forward path: a one-per-frame submit becomes a batch of
	// one whose decode sees the client's exact bytes.
	rec, id, err := RepackSubmitPayload(body)
	if err != nil || id != 7 {
		t.Fatalf("repack id %d err %v", id, err)
	}
	batch := EncodeRawSubmissionBatch([][]byte{rec})
	subs, err := pub.DecodeSubmissionBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Public.ID != 7 {
		t.Fatalf("repacked batch decoded to %d submissions", len(subs))
	}

	// Partition scan + reassembly round trip: splitting a 3-client batch
	// and re-encoding the records reproduces the frame byte-for-byte.
	all := make([]*ClientSubmission, 3)
	for i := range all {
		if all[i], err = pub.NewClientSubmission(i, i%2, nil); err != nil {
			t.Fatal(err)
		}
	}
	frame := pub.EncodeSubmissionBatch(all)
	recs, ids, err := SplitSubmissionBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("split yielded %d records", len(recs))
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("record %d peeked id %d", i, id)
		}
	}
	if !bytes.Equal(EncodeRawSubmissionBatch(recs), frame) {
		t.Fatal("reassembled batch is not byte-identical to the original frame")
	}

	// Hostile framing fails without panicking: no body, a short length field,
	// a length field past the end, a 2^32-scale length field.
	for _, bad := range [][]byte{nil, {0, 0}, {0, 0, 0, 200, 1}, {255, 0, 0, 0, 1}} {
		if _, _, err := RepackSubmitPayload(bad); err == nil {
			t.Fatalf("repack accepted %v", bad)
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

	enc := EncodeMergedSealRecord(1, digest)
	shards, got, err := DecodeMergedSealRecord(enc)
	if err != nil || shards != 1 || !bytes.Equal(got, digest) {
		t.Fatalf("merged-seal record round trip: shards=%d err=%v", shards, err)
	}
	if _, _, err := DecodeMergedSealRecord(enc[:3]); err == nil {
		t.Fatal("decoded a truncated merged-seal record")
	}
}
