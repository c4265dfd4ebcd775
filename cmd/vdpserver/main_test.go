package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// TestRunStandaloneRestarts is the smoke script's standalone lane in
// process, over both self-finalizing histogram boards: serve a durable
// epoch, stop it early by signal after one admission (it finalizes with what
// it has), restart on the same directory — the sealed epoch is compacted and
// epoch 1 opens — fill that epoch, and audit the store offline.
func TestRunStandaloneRestarts(t *testing.T) {
	pub := sketchTestPublic(t, 1, 4)
	submit := func(addr string, id int) {
		t.Helper()
		sub, err := pub.NewClientSubmission(id, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if reply := roundTrip(t, addr, &transport.Frame{Kind: "submit", Payload: pub.EncodeClientSubmission(sub)}); reply.Kind != "ack" {
			t.Fatalf("client %d got %q %q, want an ack", id, reply.Kind, reply.Payload)
		}
	}
	for _, shards := range []int{1, 2} {
		dir, addr := t.TempDir(), freeAddr(t)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			runStandalone(ctx, pub, nil, addr, dir, shards, 5, 10*time.Second)
		}()
		submit(addr, 0)
		cancel() // the signal: finalize early with 1/5
		<-done

		// Restarted without -shards: a segmented directory is adopted.
		done = make(chan struct{})
		go func() {
			defer close(done)
			runStandalone(context.Background(), pub, nil, addr, dir, 1, 2, 10*time.Second)
		}()
		submit(addr, 0) // a fresh epoch: the ID is free again
		submit(addr, 1)
		<-done

		if shards == 1 {
			log, err := store.OpenFileLogReadOnly(filepath.Join(dir, boardLogName))
			if err != nil {
				t.Fatal(err)
			}
			for epoch := 0; epoch < 2; epoch++ {
				if err := vdp.AuditLog(context.Background(), pub, log, epoch, 0); err != nil {
					t.Errorf("offline audit of epoch %d: %v", epoch, err)
				}
			}
			log.Close()
			continue
		}
		seg, err := store.OpenSegmentedLogReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 2; epoch++ {
			if err := vdp.AuditSegmentedLog(context.Background(), pub, seg, epoch, 0); err != nil {
				t.Errorf("offline audit of segmented epoch %d: %v", epoch, err)
			}
		}
		seg.Close()
	}
}
