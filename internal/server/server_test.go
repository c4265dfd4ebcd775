package server_test

import (
	"bytes"
	"context"
	"crypto/elliptic"
	"encoding/binary"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

func setup(t *testing.T, bins int) *vdp.Public {
	t.Helper()
	pub, err := vdp.Setup(vdp.Config{Provers: 1, Bins: bins, Coins: 4})
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// idOn returns the nth client ID (from 0) that ShardOf maps to shard of 2.
func idOn(shard, nth int) int {
	for id := 0; ; id++ {
		if vdp.ShardOf(id, 2) == shard {
			if nth == 0 {
				return id
			}
			nth--
		}
	}
}

func submission(t *testing.T, pub *vdp.Public, id int) *vdp.ClientSubmission {
	t.Helper()
	sub, err := pub.NewClientSubmission(id, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// forged returns a submission whose board proof is another client's: it
// decodes, reaches the board, and earns an attributable rejection.
func forged(t *testing.T, pub *vdp.Public, id int) *vdp.ClientSubmission {
	t.Helper()
	sub, donor := submission(t, pub, id), submission(t, pub, id+1000)
	sub.Public.BitProof, sub.Public.OneHotProof = donor.Public.BitProof, donor.Public.OneHotProof
	return sub
}

// equivocating returns a submission whose board proof is sound but whose
// private share opening does not match its commitment: a payload refusal,
// decided off the board.
func equivocating(t *testing.T, pub *vdp.Public, id int) *vdp.ClientSubmission {
	t.Helper()
	sub := submission(t, pub, id)
	o := sub.Payloads[0].Openings[0]
	o.X = o.X.Add(pub.Field().One())
	return sub
}

// mismatched returns a submission whose prover-0 payload names another
// client: a payload refusal, decided off the board.
func mismatched(t *testing.T, pub *vdp.Public, id int) *vdp.ClientSubmission {
	t.Helper()
	sub := submission(t, pub, id)
	sub.Payloads[0].ClientID = id + 1000
	return sub
}

// submitFrame is a "submit" frame: its body is the submission record, the
// same bytes as one member of a "submit-batch".
func submitFrame(pub *vdp.Public, sub *vdp.ClientSubmission) *transport.Frame {
	return &transport.Frame{Kind: "submit", Payload: pub.EncodeClientSubmission(sub)}
}

func batchFrame(pub *vdp.Public, subs ...*vdp.ClientSubmission) *transport.Frame {
	return &transport.Frame{Kind: "submit-batch", Payload: pub.EncodeSubmissionBatch(subs)}
}

// step is one frame through the handler and the exact reply it must earn:
// a reply kind with its payload bytes (an "error" frame among them: the
// connection stays up), or a handler error (the transport answers those with
// an "error" frame carrying the text and drops the connection) — errIs pins
// the whole text, errHas a part of it.
type step struct {
	name    string
	frame   *transport.Frame
	kind    string
	payload []byte
	errHas  string
	errIs   string
}

// refused is the step of a single "submit" whose client is rejected: an
// "error" frame carrying the verdict reason (a format taking the client ID)
// for client id.
func refused(name string, frame *transport.Frame, reason string, id int) step {
	return step{name: name, frame: frame, kind: "error", payload: []byte(fmt.Sprintf(reason, id))}
}

func run(t *testing.T, h transport.Handler, steps []step) {
	t.Helper()
	for _, st := range steps {
		replies, err := h(st.frame)
		if st.errIs != "" {
			if err == nil || err.Error() != st.errIs {
				t.Errorf("%s: err = %v, want exactly %q", st.name, err, st.errIs)
			}
			continue
		}
		if st.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), st.errHas) {
				t.Errorf("%s: err = %v, want one containing %q", st.name, err, st.errHas)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: handler error %v, want a %q reply", st.name, err, st.kind)
			continue
		}
		if len(replies) != 1 || replies[0].Kind != st.kind || !bytes.Equal(replies[0].Payload, st.payload) {
			t.Errorf("%s: want one %q frame carrying %q, got:", st.name, st.kind, st.payload)
			for _, r := range replies {
				t.Errorf("  %q frame carrying %q", r.Kind, r.Payload)
			}
		}
	}
}

// The verdict text every board gives the forged submission: as a bit proof
// (one bin), and as row 1 of a sketch contribution (a one-hot proof).
const (
	duplicateReason = "vdp: client input rejected: duplicate submission from client %d"
	misroutedReason = "vdp: client input rejected: client %d belongs to shard 1, this node serves shard 0"
	unpromotedText  = "cluster: shard 0 standby does not take submissions until promoted"
	payloadReason   = "vdp: client input rejected: client %d share opening for bin 0 does not match its public commitment"
	mismatchReason  = "vdp: client input rejected: payload/public ID mismatch for client %d"
	versionZero     = "vdp: unsupported wire format version 0 (this build speaks 1)"
	truncated       = "vdp: truncated encoding"
	budgetReason    = "vdp: client input rejected: client %d privacy budget exhausted: 5 of 5 µε spent, next epoch costs 5 µε"
	forgedReason    = "vdp: client input rejected: client %d: sigma: proof verification failed: challenge split does not sum to e"
	forgedRowReason = "vdp: sketch row 1: vdp: client input rejected: client %d: coordinate 0: sigma: proof verification failed: challenge split does not sum to e"
)

// TestDispatchOverEveryAdmitter drives the one handler over the admitters
// cmd/vdpserver and cmd/vdprouter wire it to — plain session, Shards:2
// session, one shard's session, cluster node, standby before and after
// promotion, and a router over two nodes — with the same client frames,
// asserting reply kinds, payload bytes, counts and log lines. They differ in
// exactly one reply: one shard's board — its session, bare or behind a
// cluster node — answers a batch member that belongs to another shard with a
// per-client verdict, where a whole board admits it. The router answers as a
// whole board does: it hands each member to the node that owns it.
func TestDispatchOverEveryAdmitter(t *testing.T) {
	pub := setup(t, 1)
	ctx := context.Background()
	node := func(t *testing.T) *cluster.Node {
		board := store.NewMemLog()
		sess, err := vdp.NewShardSession(pub, vdp.SessionOptions{Store: board}, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		n, err := cluster.NewNode(ctx, pub, sess, cluster.NodeConfig{Shard: 0, Shards: 2, BoardLog: board})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	modes := []struct {
		name     string
		open     func(t *testing.T) (server.Admitter, transport.Handler)
		misroute bool // a shard-1 client is refused, not admitted
	}{
		{"plain", func(t *testing.T) (server.Admitter, transport.Handler) {
			s, err := vdp.NewSession(pub, vdp.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return server.Of(s), nil
		}, false},
		{"shards-2", func(t *testing.T) (server.Admitter, transport.Handler) {
			s, err := vdp.NewShardedSession(pub, vdp.SessionOptions{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			return server.Of(s), nil
		}, false},
		{"shard-session", func(t *testing.T) (server.Admitter, transport.Handler) {
			s, err := vdp.NewShardSession(pub, vdp.SessionOptions{}, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			return server.Of(s), nil
		}, true},
		{"node", func(t *testing.T) (server.Admitter, transport.Handler) {
			n := node(t)
			return server.Of(n), cluster.Demux(n.Handle)
		}, true},
		{"promoted-standby", func(t *testing.T) (server.Admitter, transport.Handler) {
			sb, err := cluster.NewStandby(ctx, pub, cluster.StandbyConfig{
				Shard: 0, Shards: 2, Board: store.NewMemLog(), Seal: store.NewMemLog(),
			})
			if err != nil {
				t.Fatal(err)
			}
			h := server.New(ctx, pub, server.Of(sb), server.Options{Extra: cluster.Demux(sb.Handle)}).Handle
			// node-promote, rpc version 3: any epoch, no log-length fence.
			promote := &transport.Frame{Kind: cluster.KindPromote, Payload: []byte{3, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}}
			run(t, h, []step{
				{name: "submit before promotion", frame: submitFrame(pub, submission(t, pub, idOn(0, 0))), errHas: "until promoted"},
				{name: "batch before promotion", frame: batchFrame(pub, submission(t, pub, idOn(0, 1))), errHas: "until promoted"},
			})
			if replies, err := h(promote); err != nil || len(replies) != 1 || replies[0].Kind != cluster.KindPromote+"-ok" {
				t.Fatalf("promotion: replies %+v, err %v", replies, err)
			}
			return server.Of(sb), cluster.Demux(sb.Handle)
		}, true},
		// Each node is served through the dispatch; the router's own
		// dispatch is the one under test.
		{"router", func(t *testing.T) (server.Admitter, transport.Handler) {
			_, _, r := twoNodes(t, pub)
			return r, nil
		}, false},
	}
	a, b, c, d := idOn(0, 0), idOn(0, 1), idOn(0, 2), idOn(1, 0)
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			adm, extra := m.open(t)
			var logged []string
			disp := server.New(ctx, pub, adm, server.Options{
				Accepted: 1, Target: 4, Extra: extra, Label: m.name + ": ",
				Logf: func(f string, args ...any) { logged = append(logged, fmt.Sprintf(f, args...)) },
			})
			want := []vdp.BatchVerdict{
				{ID: b, Accepted: true},
				{ID: c, Reason: fmt.Sprintf(forgedReason, c)},
				{ID: d, Accepted: true},
			}
			if m.misroute {
				want[2] = vdp.BatchVerdict{ID: d, Reason: fmt.Sprintf(misroutedReason, d)}
			}
			overlong := submitFrame(pub, submission(t, pub, a))
			binary.BigEndian.PutUint32(overlong.Payload[1:], uint32(len(overlong.Payload))) // public block past the end
			huge := submitFrame(pub, submission(t, pub, a))
			binary.BigEndian.PutUint32(huge.Payload[1:], 0xffffffff) // wraps a 32-bit int
			first := submitFrame(pub, submission(t, pub, a))
			// The single-"submit" reply surface, text for text: an "ack", or an
			// "error" frame carrying the verdict.
			bad, eq, mis, misB := idOn(0, 3), idOn(0, 4), idOn(0, 5), idOn(0, 6)
			steps := []step{
				{name: "submit", frame: first, kind: "ack", payload: []byte("accepted")},
				refused("duplicate submit", first, duplicateReason, a),
				refused("forged submit", submitFrame(pub, forged(t, pub, bad)), forgedReason, bad),
				refused("forged resubmit", submitFrame(pub, submission(t, pub, bad)), duplicateReason, bad),
				refused("equivocating payload", submitFrame(pub, equivocating(t, pub, eq)), payloadReason, eq),
				// One identity rule: the verdict a payload naming another client
				// earns is the same in a "submit" as in a "submit-batch".
				refused("payload naming another client", submitFrame(pub, mismatched(t, pub, mis)), mismatchReason, mis),
				{name: "same, as a batch member", frame: batchFrame(pub, mismatched(t, pub, misB)), kind: "batch-verdicts",
					payload: vdp.EncodeBatchVerdicts([]vdp.BatchVerdict{{ID: misB, Reason: fmt.Sprintf(mismatchReason, misB)}})},
				{name: "short submit", frame: &transport.Frame{Kind: "submit", Payload: []byte{0, 0}}, errIs: versionZero},
				{name: "length field past the end", frame: overlong, errIs: truncated},
				{name: "length field 2^32-1", frame: huge, errIs: truncated},
				{name: "garbage batch", frame: &transport.Frame{Kind: "submit-batch", Payload: []byte{9}}, errHas: "version"},
				{name: "unknown kind", frame: &transport.Frame{Kind: "release"}, errHas: `unexpected frame kind "release"`},
			}
			if m.misroute {
				e := idOn(1, 1)
				steps = append(steps, refused("misrouted submit", submitFrame(pub, submission(t, pub, e)), misroutedReason, e))
			}
			run(t, disp.Handle, steps)
			if n := disp.Accepted(); n != 2 {
				t.Fatalf("accepted = %d after one recovered + one live admission, want 2", n)
			}
			select {
			case <-disp.Done():
				t.Fatal("Done closed at 2/4")
			default:
			}
			run(t, disp.Handle, []step{{name: "batch", frame: batchFrame(pub, submission(t, pub, b), forged(t, pub, c), submission(t, pub, d)),
				kind: "batch-verdicts", payload: vdp.EncodeBatchVerdicts(want)}})
			wantN := 4
			if m.misroute {
				wantN = 3
			}
			if n := disp.Accepted(); n != wantN {
				t.Fatalf("accepted = %d after the batch, want %d", n, wantN)
			}
			select {
			case <-disp.Done():
				if wantN < 4 {
					t.Fatal("Done closed below the target")
				}
			default:
				if wantN >= 4 {
					t.Fatal("Done still open at the target")
				}
			}
			wantLog := []string{
				fmt.Sprintf("%s: accepted client %d (2/4)", m.name, a),
				fmt.Sprintf("%s: accepted batch of 1: 0 admitted, 1 rejected (2/4)", m.name),
				fmt.Sprintf("%s: accepted batch of 3: %d admitted, %d rejected (%d/4)", m.name, wantN-2, 5-wantN, wantN),
			}
			if strings.Join(logged, "\n") != strings.Join(wantLog, "\n") {
				t.Errorf("log lines:\n%s\nwant:\n%s", strings.Join(logged, "\n"), strings.Join(wantLog, "\n"))
			}
			if extra != nil {
				// The mode's extra is the cluster RPC: served ahead of admission.
				replies, err := disp.Handle(&transport.Frame{Kind: cluster.KindStatus})
				if err != nil || len(replies) != 1 || replies[0].Kind != cluster.KindStatus+"-ok" {
					t.Errorf("node-status through the dispatch: replies %+v, err %v", replies, err)
				}
			}
		})
	}
	t.Run("budget-refusal", submitBudgetRefusal)
}

// TestBadHintRefusesFrame: a "submit-batch" frame one of whose members
// carries a hostile hint section — a y ≥ p, the other root of the point's x,
// a section cut short, surplus hint bytes — is malformed as a whole: the
// dispatch refuses the frame before any board write, so the log gains no
// arrival and no verdict, and the honest member beside it is admitted when
// it comes again.
func TestBadHintRefusesFrame(t *testing.T) {
	pub := setup(t, 1)
	ctx := context.Background()
	log := store.NewMemLog()
	s, err := vdp.NewSession(pub, vdp.SessionOptions{Store: log})
	if err != nil {
		t.Fatal(err)
	}
	disp := server.New(ctx, pub, server.Of(s), server.Options{})
	good := pub.EncodeClientSubmission(submission(t, pub, 1))
	rec := pub.EncodeClientSubmission(submission(t, pub, 2))
	// One bin: three points (the commitment and the bit proof's two), each
	// hinted by its 32-byte y, end the record.
	first := len(rec) - 3*32
	hostile := func(edit func(y []byte)) []byte {
		out := bytes.Clone(rec)
		edit(out[first : first+32])
		return out
	}
	p := elliptic.P256().Params().P
	rows := []struct {
		name   string
		member []byte
	}{
		{"y >= p", hostile(func(y []byte) { p.FillBytes(y) })},
		{"the other root", hostile(func(y []byte) { new(big.Int).Sub(p, new(big.Int).SetBytes(y)).FillBytes(y) })},
		{"hints cut short", rec[:len(rec)-1]},
		{"surplus hint bytes", append(bytes.Clone(rec), 0)},
	}
	for _, r := range rows {
		frame := &transport.Frame{Kind: "submit-batch", Payload: vdp.EncodeRawSubmissionBatch([][]byte{good, r.member})}
		run(t, disp.Handle, []step{{name: r.name, frame: frame, errHas: "hint"}})
		if n := log.Len(); n != 0 {
			t.Fatalf("%s: the refused frame left %d records on the board", r.name, n)
		}
	}
	run(t, disp.Handle, []step{{name: "honest member again", frame: &transport.Frame{Kind: "submit-batch", Payload: vdp.EncodeRawSubmissionBatch([][]byte{good})},
		kind: "batch-verdicts", payload: vdp.EncodeBatchVerdicts([]vdp.BatchVerdict{{ID: 1, Accepted: true}})}})
}

// submitBudgetRefusal pins the one single-"submit" reply the boards of
// TestDispatchOverEveryAdmitter cannot earn in their first epoch: a client
// whose budget is spent is refused with an "error" frame carrying the
// ledger's verdict, and the refusal reserves its ID like any other verdict.
func submitBudgetRefusal(t *testing.T) {
	pub := setup(t, 1)
	ctx := context.Background()
	s, err := vdp.NewSession(pub, vdp.SessionOptions{Budget: &vdp.BudgetConfig{EpochCost: 5, Total: 5}})
	if err != nil {
		t.Fatal(err)
	}
	disp := server.New(ctx, pub, server.Of(s), server.Options{})
	run(t, disp.Handle, []step{{name: "epoch 0", frame: submitFrame(pub, submission(t, pub, 1)), kind: "ack", payload: []byte("accepted")}})
	if _, err := s.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	run(t, disp.Handle, []step{
		refused("epoch 1, budget spent", submitFrame(pub, submission(t, pub, 1)), budgetReason, 1),
		refused("refused client again", submitFrame(pub, submission(t, pub, 1)), duplicateReason, 1),
		{name: "fresh client", frame: submitFrame(pub, submission(t, pub, 2)), kind: "ack", payload: []byte("accepted")},
	})
	if n := disp.Accepted(); n != 2 {
		t.Fatalf("accepted = %d, want 2 (a refusal is not an admission)", n)
	}
}

// oldSubmitBody builds the retired "submit" body — u32 publicLen | public |
// prover-0 payload, no version byte — that every front door refuses.
func oldSubmitBody(pub *vdp.Public, sub *vdp.ClientSubmission) []byte {
	pubEnc := pub.EncodeClientPublic(sub.Public)
	body := binary.BigEndian.AppendUint32(nil, uint32(len(pubEnc)))
	// The prover-0 payload is the blob after the public part and the payload
	// count of a submission record: version byte, u32 length | public, u32
	// count, u32 length | payload, then the other payloads and the hints.
	rec := pub.EncodeClientSubmission(sub)
	at := 1 + 4 + len(pubEnc) + 4
	n := int(binary.BigEndian.Uint32(rec[at:]))
	return append(append(body, pubEnc...), rec[at+4:at+4+n]...)
}

// twoNodes serves shard 0 and shard 1 of a two-node cluster over TCP, each
// node through the dispatch, and opens a Router over them. It returns each
// node's dispatch handler and, per node, the body of the last "submit-batch"
// frame the node was handed.
func twoNodes(t *testing.T, pub *vdp.Public) (nodes [2]transport.Handler, last func(shard int) []byte, r *cluster.Router) {
	t.Helper()
	ctx := context.Background()
	var mu sync.Mutex
	var seen [2][]byte
	addrs := make([]string, 2)
	for sh := range nodes {
		board := store.NewMemLog()
		sess, err := vdp.NewShardSession(pub, vdp.SessionOptions{Store: board}, sh, 2)
		if err != nil {
			t.Fatal(err)
		}
		n, err := cluster.NewNode(ctx, pub, sess, cluster.NodeConfig{Shard: sh, Shards: 2, BoardLog: board, SealLog: store.NewMemLog()})
		if err != nil {
			t.Fatal(err)
		}
		nodes[sh] = server.New(ctx, pub, server.Of(n), server.Options{Extra: cluster.Demux(n.Handle)}).Handle
		srv, err := transport.Listen("127.0.0.1:0", func(f *transport.Frame) ([]*transport.Frame, error) {
			if f.Kind == "submit-batch" {
				mu.Lock()
				seen[sh] = f.Payload
				mu.Unlock()
			}
			return nodes[sh](f)
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[sh] = srv.Addr()
	}
	r, err := cluster.New(cluster.Config{Pub: pub, Backends: addrs, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	last = func(shard int) []byte {
		mu.Lock()
		defer mu.Unlock()
		return seen[shard]
	}
	return nodes, last, r
}

// TestTwoProversThroughEveryFrontDoor sends K = 2 clients, each carrying a
// payload for both provers, as "submit" and as "submit-batch" frames through
// every front door: the dispatch over a Session, a ShardedSession and a
// cluster node, and a Router over two nodes. Every client is admitted, the
// boards audit, the router hands a node the client's submit body byte for
// byte, and the retired prover-0-only body is refused at every door with the
// decoder's version text.
func TestTwoProversThroughEveryFrontDoor(t *testing.T) {
	pub, err := vdp.Setup(vdp.Config{Provers: 2, Bins: 1, Coins: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// A door is where client id's frames go and, once they are in, the audit
	// of the boards behind it.
	type door struct {
		to    func(id int) transport.Handler
		audit func(t *testing.T)
	}
	auditCluster := func(t *testing.T, r *cluster.Router) {
		if _, err := r.FinalizeMerge(ctx); err != nil {
			t.Fatal(err)
		}
		if rep, err := r.AuditCluster(ctx, -1, 0); err != nil || rep.Source != "logs" {
			t.Fatalf("cluster audit: %+v, %v", rep, err)
		}
	}
	doors := []struct {
		name string
		open func(t *testing.T) door
	}{
		{"session", func(t *testing.T) door {
			board := store.NewMemLog()
			s, err := vdp.NewSession(pub, vdp.SessionOptions{Store: board})
			if err != nil {
				t.Fatal(err)
			}
			h := server.New(ctx, pub, server.Of(s), server.Options{}).Handle
			return door{func(int) transport.Handler { return h }, func(t *testing.T) {
				if _, err := s.Finalize(ctx); err != nil {
					t.Fatal(err)
				}
				if err := vdp.AuditLog(ctx, pub, board, 0, 0); err != nil {
					t.Fatal(err)
				}
			}}
		}},
		{"shards-2", func(t *testing.T) door {
			seg, err := store.OpenSegmentedLog(t.TempDir(), 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { seg.Close() })
			s, err := vdp.NewShardedSession(pub, vdp.SessionOptions{Shards: 2, Segmented: seg})
			if err != nil {
				t.Fatal(err)
			}
			h := server.New(ctx, pub, server.Of(s), server.Options{}).Handle
			return door{func(int) transport.Handler { return h }, func(t *testing.T) {
				if _, err := s.Finalize(ctx); err != nil {
					t.Fatal(err)
				}
				if err := vdp.AuditSegmentedLog(ctx, pub, seg, 0, 0); err != nil {
					t.Fatal(err)
				}
			}}
		}},
		{"node", func(t *testing.T) door {
			nodes, _, r := twoNodes(t, pub)
			return door{func(id int) transport.Handler { return nodes[vdp.ShardOf(id, 2)] }, func(t *testing.T) { auditCluster(t, r) }}
		}},
		{"router", func(t *testing.T) door {
			_, last, r := twoNodes(t, pub)
			h := r.Handler()
			return door{func(id int) transport.Handler {
				return func(f *transport.Frame) ([]*transport.Frame, error) {
					replies, err := h(f)
					if f.Kind == "submit" && err == nil {
						recs, _, serr := vdp.SplitSubmissionBatch(last(vdp.ShardOf(id, 2)))
						if serr != nil || len(recs) != 1 || !bytes.Equal(recs[0], f.Payload) {
							t.Errorf("client %d: the node was not handed the submit body byte for byte", id)
						}
					}
					return replies, err
				}
			}, func(t *testing.T) { auditCluster(t, r) }}
		}},
	}
	for _, d := range doors {
		t.Run(d.name, func(t *testing.T) {
			door := d.open(t)
			for _, sh := range []int{0, 1} {
				one, batched := idOn(sh, 0), idOn(sh, 1)
				run(t, door.to(one), []step{{name: fmt.Sprintf("submit %d", one), frame: submitFrame(pub, submission(t, pub, one)), kind: "ack", payload: []byte("accepted")}})
				run(t, door.to(batched), []step{{name: fmt.Sprintf("batch of %d", batched), frame: batchFrame(pub, submission(t, pub, batched)),
					kind: "batch-verdicts", payload: vdp.EncodeBatchVerdicts([]vdp.BatchVerdict{{ID: batched, Accepted: true}})}})
			}
			old := idOn(0, 2)
			run(t, door.to(old), []step{{name: "old layout", frame: &transport.Frame{Kind: "submit", Payload: oldSubmitBody(pub, submission(t, pub, old))}, errIs: versionZero}})
			if t.Failed() {
				return
			}
			door.audit(t)
		})
	}
}

func contribution(t *testing.T, pub *vdp.Public, layout sketch.Layout, id, item int) []*vdp.ClientSubmission {
	t.Helper()
	c, err := pub.NewSketchContribution(layout, id, item, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.Rows
}

// TestDispatchSketch is the fifth admitter: contribution grouping (one
// verdict per contribution; empty, ragged, incomplete and interleaved bundles
// refused whole), the "submit" explainer, and the query extra before and
// after the release.
func TestDispatchSketch(t *testing.T) {
	layout := sketch.Layout{Rows: 2, Width: 4, Domain: 8}
	pub := setup(t, layout.Width)
	ctx := context.Background()
	hs, err := vdp.NewSketchSession(pub, layout, vdp.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	board := server.NewSketch(hs)
	disp := server.New(ctx, pub, board, server.Options{Target: 2, Extra: board.Extra})

	c1, c2, c3 := contribution(t, pub, layout, 1, 3), contribution(t, pub, layout, 2, 5), contribution(t, pub, layout, 3, 5)
	c3[1] = forged(t, pub, 3) // row 0 admits client 3, row 1 refuses it
	topK := &transport.Frame{Kind: "sketch-query", Payload: vdp.EncodeSketchQuery(&vdp.SketchQuery{Kind: vdp.SketchQueryTopK, Arg: 3})}
	point := func(item int) *transport.Frame {
		return &transport.Frame{Kind: "sketch-query", Payload: vdp.EncodeSketchQuery(&vdp.SketchQuery{Kind: vdp.SketchQueryPoint, Arg: item})}
	}
	run(t, disp.Handle, []step{
		{name: "query before the release", frame: topK, errHas: "still collecting"},
		{name: "plain submit", frame: &transport.Frame{Kind: "submit"}, errIs: `unexpected frame kind "submit" in sketch mode (a single "submit" frame cannot carry a 2-row contribution; use vdpclient -sketch -item)`},
		{name: "empty batch", frame: batchFrame(pub), errHas: "positive multiple of 2"},
		{name: "ragged batch", frame: batchFrame(pub, c1[0], c1[1], c2[0]), errHas: "positive multiple of 2"},
		{name: "interleaved batch", frame: batchFrame(pub, c1[0], c2[1]), errHas: "row 1 carries client 2, want 1"},
		{name: "unknown kind", frame: &transport.Frame{Kind: "release"}, errHas: `unexpected frame kind "release"`},
		{name: "three contributions", frame: batchFrame(pub, append(append(append([]*vdp.ClientSubmission{}, c1...), c2...), c3...)...),
			kind: "batch-verdicts", payload: vdp.EncodeBatchVerdicts([]vdp.BatchVerdict{
				{ID: 1, Accepted: true}, {ID: 2, Accepted: true},
				{ID: 3, Reason: fmt.Sprintf(forgedRowReason, 3)},
			})},
	})
	if _, err := hs.SubmitBatch(ctx, []*vdp.SketchContribution{{ClientID: 1, Rows: []*vdp.ClientSubmission{c1[0], nil}}}); err == nil || !strings.Contains(err.Error(), "row 1 is empty") {
		t.Errorf("bundle with a nil row: err = %v", err)
	}
	select {
	case <-disp.Done():
	default:
		t.Fatal("two whole contributions did not reach the target of 2")
	}
	// One definition of "accepted": the live count and the session's own agree
	// that client 3 — admitted by row 0 alone — is not a contribution.
	if disp.Accepted() != 2 || hs.Accepted() != 2 {
		t.Fatalf("accepted: dispatch %d, session %d; want 2, 2", disp.Accepted(), hs.Accepted())
	}

	res, err := hs.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	board.Release(res.Sketch)
	est, bound, err := res.Sketch.PointQuery(5)
	if err != nil {
		t.Fatal(err)
	}
	run(t, disp.Handle, []step{
		{name: "top-3", frame: topK, kind: "sketch-estimates", payload: vdp.EncodeItemEstimates(res.Sketch.HeavyHitters(3))},
		{name: "point", frame: point(5), kind: "sketch-estimates",
			payload: vdp.EncodeItemEstimates([]vdp.ItemEstimate{{Item: 5, Estimate: est, Bound: bound}})},
		{name: "point outside the domain", frame: point(99), errHas: "outside domain"},
		{name: "garbage query", frame: &transport.Frame{Kind: "sketch-query", Payload: []byte{9}}, errHas: "version"},
	})
}

// TestSketchRecoveredCount is the regression for the recovered sketch count:
// a contribution row 0 admitted and row 2 refused is not accepted live, and
// must not be after a crash and resume either — seeding the count from row 0
// would let a restarted server finalize one whole contribution early.
func TestSketchRecoveredCount(t *testing.T) {
	layout := sketch.Layout{Rows: 3, Width: 4, Domain: 8}
	pub := setup(t, layout.Width)
	ctx := context.Background()
	dir := t.TempDir()
	seg, err := store.OpenSegmentedLog(dir, layout.Rows)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := vdp.NewSketchSession(pub, layout, vdp.SessionOptions{Segmented: seg})
	if err != nil {
		t.Fatal(err)
	}
	board := server.NewSketch(hs)
	disp := server.New(ctx, pub, board, server.Options{Target: 3, Extra: board.Extra})
	bad := contribution(t, pub, layout, 9, 2)
	bad[2] = forged(t, pub, 9)
	subs := append(append(contribution(t, pub, layout, 7, 1), bad...), contribution(t, pub, layout, 8, 1)...)
	// Rows 0 and 1 admit client 9 and row 2 alone refuses it, so row 0
	// over-counts, live and after the resume.
	run(t, disp.Handle, []step{{name: "forged last row", frame: batchFrame(pub, subs...),
		kind: "batch-verdicts", payload: vdp.EncodeBatchVerdicts([]vdp.BatchVerdict{
			{ID: 7, Accepted: true},
			{ID: 9, Reason: strings.Replace(fmt.Sprintf(forgedRowReason, 9), "sketch row 1", "sketch row 2", 1)},
			{ID: 8, Accepted: true},
		})}})
	if n := disp.Accepted(); n != 2 {
		t.Fatalf("live count = %d, want 2 whole contributions", n)
	}
	if err := seg.Close(); err != nil { // the crash
		t.Fatal(err)
	}

	seg, err = store.OpenSegmentedLog(dir, layout.Rows)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	hs, err = vdp.ResumeSketchSession(ctx, pub, layout, vdp.SessionOptions{Segmented: seg})
	if err != nil {
		t.Fatal(err)
	}
	disp = server.New(ctx, pub, server.NewSketch(hs), server.Options{Accepted: hs.Accepted(), Target: 3})
	if n := disp.Accepted(); n != 2 {
		t.Fatalf("recovered count = %d, want the live count 2", n)
	}
	select {
	case <-disp.Done():
		t.Fatal("recovered server reached its target of 3 with 2 whole contributions")
	default:
	}
}
