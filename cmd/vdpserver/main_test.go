package main

import (
	"bytes"
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
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

// TestRunNodeInMemory runs cluster nodes with neither -store-dir nor
// -standby behind a cluster.Router, in process. Such a node keeps its board
// log in memory, so after the merge the cross-node audit reads every node's
// log and a live tail certifies the merged epoch.
func TestRunNodeInMemory(t *testing.T) {
	const k, n = 2, 6
	pub := sketchTestPublic(t, 1, 4)
	ctx, cancel := context.WithCancel(context.Background())
	addrs := make([]string, k)
	var wg sync.WaitGroup
	for i := range addrs {
		addrs[i] = freeAddr(t)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runNode(ctx, pub, addrs[i], "", nil, i, k, "", 10*time.Second)
		}(i)
	}
	defer func() {
		cancel()
		wg.Wait()
	}()
	for _, addr := range addrs {
		roundTrip(t, addr, &transport.Frame{Kind: cluster.KindStatus}) // waits for the listener
	}

	router, err := cluster.New(cluster.Config{Pub: pub, Backends: addrs, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	recs := make([][]byte, n)
	for id := range recs {
		sub, err := pub.NewClientSubmission(id, id%2, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs[id] = pub.EncodeClientSubmission(sub)
	}
	replies, err := router.Handler()(&transport.Frame{Kind: "submit-batch", Payload: vdp.EncodeRawSubmissionBatch(recs)})
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := vdp.DecodeBatchVerdicts(replies[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		if !v.Accepted {
			t.Fatalf("client %d refused: %s", v.ID, v.Reason)
		}
	}
	res, err := router.FinalizeMerge(ctx)
	if err != nil {
		t.Fatal(err)
	}

	report, err := router.AuditCluster(ctx, -1, 0)
	if err != nil || report.Source != "logs" || !bytes.Equal(report.Digest, res.Digest) {
		t.Fatalf("cross-node audit of memory nodes: %+v, %v; want log evidence for digest %x", report, err, res.Digest)
	}

	backends := make([]*cluster.Backend, k)
	for i, addr := range addrs {
		backends[i] = cluster.NewBackend([]string{addr}, i, transport.ClientOptions{Timeout: 10 * time.Second})
		defer backends[i].Close()
	}
	fol, err := cluster.NewTailFollower(pub, backends, vdp.TailOptions{})
	if err != nil {
		t.Fatalf("tailing memory nodes: %v", err)
	}
	if _, err := fol.Poll(); err != nil {
		t.Fatal(err)
	}
	if epoch, digest, ready, err := fol.VerifyNext(); err != nil || !ready || epoch != 0 || !bytes.Equal(digest, res.Digest) {
		t.Fatalf("tail certified epoch %d digest %x ready=%v err=%v, want epoch 0 digest %x", epoch, digest, ready, err, res.Digest)
	}
}
