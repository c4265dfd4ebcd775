package cluster

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// TestStandbyMirrorResume pins the restarted-standby boot path: NewStandby
// over non-empty logs adopts the mirrored record count, epoch high-water mark
// and merged seals, and serves them through the read-side RPC surface.
func TestStandbyMirrorResume(t *testing.T) {
	ctx := context.Background()
	pub := testPub(t)

	board := store.NewMemLog()
	seal := store.NewMemLog()
	for i, epoch := range []uint32{0, 0, 1} {
		rec := &store.Record{Kind: 1, Epoch: epoch, Payload: []byte{byte(i)}}
		if err := board.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	digest := bytes.Repeat([]byte{7}, 32)
	if err := seal.Append(sealRecord(t, 0, 2, digest)); err != nil {
		t.Fatal(err)
	}

	sb, err := NewStandby(ctx, pub, StandbyConfig{Shard: 0, Shards: 2, Board: board, Seal: seal})
	if err != nil {
		t.Fatal(err)
	}
	if sb.MirroredRecords() != 3 {
		t.Fatalf("mirrored records = %d, want 3", sb.MirroredRecords())
	}
	if sb.Promoted() {
		t.Fatal("freshly resumed standby reports promoted")
	}

	// The latest mirrored merged seal is served over KindMergedGet.
	reply := sb.Handle(&transport.Frame{Kind: KindMergedGet, Payload: encodeMergedGetReq(-1)})[0]
	if reply.Kind != okKind(KindMergedGet) {
		t.Fatalf("merged-get latest reply %q: %s", reply.Kind, reply.Payload)
	}
	// An epoch the mirror never saw is refused.
	reply = sb.Handle(&transport.Frame{Kind: KindMergedGet, Payload: encodeMergedGetReq(5)})[0]
	if reply.Kind != KindError || !strings.Contains(string(reply.Payload), "no merged seal for epoch 5") {
		t.Fatalf("merged-get missing epoch reply %q: %s", reply.Kind, reply.Payload)
	}
	// Admission RPCs stay refused until promotion.
	reply = sb.Handle(&transport.Frame{Kind: KindReset})[0]
	if reply.Kind != KindError || !strings.Contains(string(reply.Payload), "until promoted") {
		t.Fatalf("unserved-kind reply %q: %s", reply.Kind, reply.Payload)
	}
}

// TestStandbyRejectsBadMirror sweeps NewStandby's boot validation: missing
// logs, foreign record kinds in the seal sidecar, and a seal recorded for a
// different cluster width are all refused before the standby goes live.
func TestStandbyRejectsBadMirror(t *testing.T) {
	ctx := context.Background()
	pub := testPub(t)
	digest := bytes.Repeat([]byte{3}, 32)

	if _, err := NewStandby(ctx, pub, StandbyConfig{Shard: 0, Shards: 2}); err == nil ||
		!strings.Contains(err.Error(), "board and seal logs") {
		t.Fatalf("missing logs err = %v", err)
	}

	seal := store.NewMemLog()
	if err := seal.Append(&store.Record{Kind: 1, Payload: []byte("junk")}); err != nil {
		t.Fatal(err)
	}
	_, err := NewStandby(ctx, pub, StandbyConfig{Shard: 0, Shards: 2, Board: store.NewMemLog(), Seal: seal})
	if err == nil || !strings.Contains(err.Error(), "unknown kind 1") {
		t.Fatalf("foreign seal kind err = %v", err)
	}

	seal = store.NewMemLog()
	if err := seal.Append(sealRecord(t, 0, 3, digest)); err != nil {
		t.Fatal(err)
	}
	_, err = NewStandby(ctx, pub, StandbyConfig{Shard: 0, Shards: 2, Board: store.NewMemLog(), Seal: seal})
	if err == nil || !strings.Contains(err.Error(), "claims 3 shards, the board has 2") {
		t.Fatalf("shard-width mismatch err = %v", err)
	}

	// A standby with an empty seal mirror has nothing to serve yet.
	sb, err := NewStandby(ctx, pub, StandbyConfig{Shard: 1, Shards: 2, Board: store.NewMemLog(), Seal: store.NewMemLog()})
	if err != nil {
		t.Fatal(err)
	}
	reply := sb.Handle(&transport.Frame{Kind: KindMergedGet, Payload: encodeMergedGetReq(-1)})[0]
	if reply.Kind != KindError || !strings.Contains(string(reply.Payload), "no merged seal yet") {
		t.Fatalf("empty-mirror merged-get reply %q: %s", reply.Kind, reply.Payload)
	}
}

// TestStandbyRefusesBadSealFrame: a replicate frame carrying a merged-seal
// record the standby would refuse at restart — another cluster width, or
// another record kind — is refused whole with node-error before anything is
// mirrored, so the standby still reopens over its own logs. A good seal
// record still lands.
func TestStandbyRefusesBadSealFrame(t *testing.T) {
	ctx := context.Background()
	pub := testPub(t)
	seal := store.NewMemLog()
	cfg := StandbyConfig{Shard: 0, Shards: 2, Board: store.NewMemLog(), Seal: seal}
	sb, err := NewStandby(ctx, pub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	digest := bytes.Repeat([]byte{5}, 32)
	good := sealRecord(t, 0, 2, digest)
	send := func(recs ...*store.Record) *transport.Frame {
		payload, err := encodeReplicate(0, 2, ReplLogSeal, 0, recs)
		if err != nil {
			t.Fatal(err)
		}
		return sb.Handle(&transport.Frame{Kind: KindReplicate, Payload: payload})[0]
	}
	for name, bad := range map[string]*store.Record{
		"other width": sealRecord(t, 1, 3, digest),
		"other kind":  {Kind: vdp.RecordSubmission, Epoch: 1, Payload: []byte("junk")},
	} {
		if reply := send(good, bad); reply.Kind != KindError {
			t.Fatalf("%s: replicate answered %q: %s", name, reply.Kind, reply.Payload)
		}
		if n := seal.Len(); n != 0 {
			t.Fatalf("%s: the refused frame left %d records in the seal mirror", name, n)
		}
		if _, err := NewStandby(ctx, pub, cfg); err != nil {
			t.Fatalf("%s: the standby no longer reopens: %v", name, err)
		}
	}
	if reply := send(good); reply.Kind != okKind(KindReplicate) || seal.Len() != 1 {
		t.Fatalf("good seal answered %q: %s (mirror holds %d)", reply.Kind, reply.Payload, seal.Len())
	}
	reply := sb.Handle(&transport.Frame{Kind: KindMergedGet, Payload: encodeMergedGetReq(0)})[0]
	if reply.Kind != okKind(KindMergedGet) {
		t.Fatalf("merged-get after the good seal answered %q: %s", reply.Kind, reply.Payload)
	}
	if _, err := NewStandby(ctx, pub, cfg); err != nil {
		t.Fatalf("the standby does not reopen over its good seal: %v", err)
	}
}

func TestReplicatorAddr(t *testing.T) {
	r := NewReplicator("127.0.0.1:9", 0, 1, transport.ClientOptions{})
	defer r.Close()
	if r.addr != "127.0.0.1:9" {
		t.Fatalf("addr = %q", r.addr)
	}
}
