package transport_test

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// shardedFixture builds a small curator deployment, a sharded session over
// it, and the TCP plumbing vdpserver puts around them: the one frame
// dispatch.
type shardedFixture struct {
	t    *testing.T
	pub  *vdp.Public
	sess *vdp.ShardedSession
	srv  *transport.Server
}

func newShardedFixture(t *testing.T, shards int) *shardedFixture {
	t.Helper()
	pub, err := vdp.Setup(vdp.Config{Provers: 1, Bins: 1, Coins: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := vdp.NewShardedSession(pub, vdp.SessionOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	f := &shardedFixture{t: t, pub: pub, sess: sess}
	f.srv, err = transport.Listen("127.0.0.1:0", server.New(context.Background(), pub, server.Of(sess), server.Options{}).Handle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.srv.Close() })
	return f
}

// buildSubs prepares real client submissions with IDs [base, base+n).
func (f *shardedFixture) buildSubs(base, n int) []*vdp.ClientSubmission {
	f.t.Helper()
	subs := make([]*vdp.ClientSubmission, n)
	for i := range subs {
		sub, err := f.pub.NewClientSubmission(base+i, (base+i)%2, nil)
		if err != nil {
			f.t.Fatal(err)
		}
		subs[i] = sub
	}
	return subs
}

// submit drives one submission over its own TCP connection, returning the
// server's reply: "" for an ack, the error text otherwise.
func (f *shardedFixture) submit(sub *vdp.ClientSubmission) string {
	payload := f.pub.EncodeClientSubmission(sub)
	conn, err := net.Dial("tcp", f.srv.Addr())
	if err != nil {
		f.t.Error(err)
		return "dial failed"
	}
	defer conn.Close()
	if err := transport.WriteFrame(conn, &transport.Frame{Kind: "submit", Sender: sub.Public.ID, Payload: payload}); err != nil {
		f.t.Error(err)
		return "write failed"
	}
	reply, err := transport.ReadFrame(conn)
	if err != nil {
		f.t.Error(err)
		return "read failed"
	}
	if reply.Kind == "ack" {
		return ""
	}
	return string(reply.Payload)
}

// TestShardedServerConcurrentTCP floods a sharded server with concurrent
// submissions over real TCP connections (run under -race in CI): every
// client must be admitted exactly once, land on its hash-assigned shard,
// and the merged epoch must finalize and audit.
func TestShardedServerConcurrentTCP(t *testing.T) {
	const shards, clients, workers = 4, 16, 8
	f := newShardedFixture(t, shards)
	subs := f.buildSubs(0, clients)

	var wg sync.WaitGroup
	replies := make([]string, clients)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < clients; i += workers {
				replies[i] = f.submit(subs[i])
			}
		}(w)
	}
	wg.Wait()
	for i, r := range replies {
		if r != "" {
			t.Errorf("client %d rejected over TCP: %s", i, r)
		}
	}
	if got := f.sess.Submitted(); got != clients {
		t.Fatalf("session admitted %d clients, want %d", got, clients)
	}
	for i := 0; i < shards; i++ {
		want := 0
		for id := 0; id < clients; id++ {
			if vdp.ShardOf(id, shards) == i {
				want++
			}
		}
		if got := f.sess.Shard(i).Submitted(); got != want {
			t.Errorf("shard %d holds %d clients, hash assigns %d", i, got, want)
		}
	}
	res, err := f.sess.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := vdp.AuditMerged(context.Background(), f.pub, res.Transcripts(), res.Release, 0); err != nil {
		t.Errorf("merged audit: %v", err)
	}
}

// TestShardedResetAfterFinalizeUnderLoad is the lifecycle edge case under
// fire: Finalize and Reset race a continuing TCP submission flood. Every
// in-flight submission must resolve to exactly one of three legal outcomes
// — admitted (into the closing or the fresh epoch), refused with the
// lifecycle error, or refused as a duplicate — and the epochs on either
// side of the boundary must both audit.
func TestShardedResetAfterFinalizeUnderLoad(t *testing.T) {
	const shards, floodClients, workers = 4, 24, 6
	f := newShardedFixture(t, shards)

	// Epoch 0 baseline: a few clients that are certainly in before Finalize.
	for _, sub := range f.buildSubs(0, 3) {
		if r := f.submit(sub); r != "" {
			t.Fatalf("baseline client rejected: %s", r)
		}
	}

	flood := f.buildSubs(100, floodClients)
	var wg sync.WaitGroup
	replies := make([]string, floodClients)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := w; i < floodClients; i += workers {
				replies[i] = f.submit(flood[i])
			}
		}(w)
	}

	// Finalize and Reset while the flood is (racing to be) in flight.
	close(start)
	res0, err := f.sess.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.sess.Reset(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	accepted := 0
	for i, r := range replies {
		switch {
		case r == "":
			accepted++
		case strings.Contains(r, "session is finaliz"): // finalizing or finalized
		case strings.Contains(r, "duplicate submission"):
		default:
			t.Errorf("flood client %d: unexpected refusal %q", 100+i, r)
		}
	}
	if err := vdp.AuditMerged(context.Background(), f.pub, res0.Transcripts(), res0.Release, 0); err != nil {
		t.Errorf("epoch 0 merged audit: %v", err)
	}
	if got := f.sess.Epoch(); got != 1 {
		t.Fatalf("epoch after reset = %d, want 1", got)
	}

	// The fresh epoch serves new clients — and flood clients that were
	// turned away at the boundary can resubmit now.
	for _, sub := range f.buildSubs(500, 3) {
		if r := f.submit(sub); r != "" {
			t.Fatalf("post-reset client rejected: %s", r)
		}
	}
	resubmitted := 0
	for i, r := range replies {
		if r != "" && strings.Contains(r, "session is finaliz") {
			if rr := f.submit(flood[i]); rr != "" {
				t.Errorf("boundary-refused client %d cannot enter the new epoch: %s", 100+i, rr)
			} else {
				resubmitted++
			}
		}
	}
	t.Logf("flood: %d admitted before the boundary, %d resubmitted after", accepted, resubmitted)
	res1, err := f.sess.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := vdp.AuditMerged(context.Background(), f.pub, res1.Transcripts(), res1.Release, 0); err != nil {
		t.Errorf("epoch 1 merged audit: %v", err)
	}
}
