package transport_test

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"testing"

	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// TestServerRestartRecoversEpoch is the end-to-end acceptance test for the
// durable bulletin board: a vdpserver-shaped service (TCP transport + eager
// Session + file-backed board log) is killed mid-epoch after accepting half
// its clients, restarted against the same store directory, fed the rest,
// and must finalize to a TranscriptDigest byte-identical to an
// uninterrupted run over the same submissions.
func TestServerRestartRecoversEpoch(t *testing.T) {
	pub, err := vdp.Setup(vdp.Config{Provers: 1, Bins: 1, Coins: 4})
	if err != nil {
		t.Fatal(err)
	}
	choices := []int{1, 0, 1, 1}
	subs := make([]*vdp.ClientSubmission, len(choices))
	for i, c := range choices {
		sub, err := pub.NewClientSubmission(i, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	seed := func() *bytes.Reader {
		b := make([]byte, 32)
		for i := range b {
			b[i] = byte(i*13 + 5)
		}
		return bytes.NewReader(b)
	}
	ctx := context.Background()

	// Reference: an uninterrupted seeded session over the same submissions.
	ref, err := vdp.NewSession(pub, vdp.SessionOptions{Rand: seed()})
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
	want := vdp.TranscriptDigest(pub, refRes.Transcript)

	// serve starts one server "incarnation" over sess and returns its
	// address; submitTo drives the vdpclient wire path against it.
	serve := func(sess *vdp.Session) *transport.Server {
		srv, err := transport.Listen("127.0.0.1:0", server.New(ctx, pub, server.Of(sess), server.Options{}).Handle)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	submitTo := func(addr string, sub *vdp.ClientSubmission) {
		payload := pub.EncodeClientSubmission(sub)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := transport.WriteFrame(conn, &transport.Frame{Kind: "submit", Sender: sub.Public.ID, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		reply, err := transport.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Kind != "ack" {
			t.Fatalf("client %d: reply %q (%s)", sub.Public.ID, reply.Kind, reply.Payload)
		}
	}

	// Incarnation 1: accept half the clients over TCP, then "crash" — the
	// listener dies and the session is dropped without Finalize; only the
	// board log file survives.
	path := filepath.Join(t.TempDir(), "board.log")
	log1, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	sess1, err := vdp.NewSession(pub, vdp.SessionOptions{Rand: seed(), Store: log1})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := serve(sess1)
	for _, sub := range subs[:2] {
		submitTo(srv1.Addr(), sub)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2: recover from the same store directory, accept the
	// remaining clients, finalize.
	log2, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	sess2, err := vdp.ResumeSession(ctx, pub, vdp.SessionOptions{Rand: seed(), Store: log2})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess2.Accepted(); got != 2 {
		t.Fatalf("recovered %d accepted clients, want 2", got)
	}
	srv2 := serve(sess2)
	for _, sub := range subs[2:] {
		submitTo(srv2.Addr(), sub)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := sess2.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := vdp.TranscriptDigest(pub, res.Transcript); !bytes.Equal(got, want) {
		t.Error("restarted server's transcript digest differs from the uninterrupted run")
	}
	if err := vdp.AuditLog(ctx, pub, log2, -1, 0); err != nil {
		t.Errorf("offline audit of the recovered epoch failed: %v", err)
	}
}
