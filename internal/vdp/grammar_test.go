package vdp

import (
	"bytes"
	"context"
	"crypto/elliptic"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

// grammarBoard is one board shape the conformance table runs on: an honest
// two-epoch, budgeted, chunk-sealed board (epoch 1 holds a budget refusal)
// of which one log — the victim — is mutated, and a reader that lays the
// mutated victim next to its honest siblings and reads the board three ways.
type grammarBoard struct {
	name    string
	pub     *Public
	victim  []*store.Record
	freshID int    // an ID the victim log may seat that never submitted
	digest1 []byte // TranscriptDigest of the victim log's epoch-1 seal
	read    func(t *testing.T, victim []*store.Record) (resume, audit, tail error)
}

var conformanceBudget = &BudgetConfig{EpochCost: 1, Total: 1}

// shrinkSealChunks makes every seal written during the test span several
// chunk records.
func shrinkSealChunks(t *testing.T) {
	old := sealChunkSize
	sealChunkSize = 700
	t.Cleanup(func() { sealChunkSize = old })
}

func memLogOf(t testing.TB, recs []*store.Record) *store.MemLog {
	t.Helper()
	log := store.NewMemLog()
	for _, rec := range recs {
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return log
}

// withoutVerdicts copies an eagerly written log without its RecordVerdict
// records: a sealed board whose roster carries no verdicts, which every
// reader must still accept (the seal's client section decides the roster).
func withoutVerdicts(recs []*store.Record) []*store.Record {
	var out []*store.Record
	for _, rec := range recs {
		if rec.Kind != RecordVerdict {
			out = append(out, rec)
		}
	}
	return out
}

// segmentedLogOf writes a segmented directory holding segs and the protocol
// records of manifest (the store writes its own bookkeeping).
func segmentedLogOf(t testing.TB, segs [][]*store.Record, manifest []*store.Record) *store.SegmentedLog {
	t.Helper()
	seg, err := store.OpenSegmentedLog(t.TempDir(), len(segs), store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	for i, recs := range segs {
		for _, rec := range recs {
			if err := seg.Segment(i).Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, rec := range manifest {
		if rec.Kind < store.KindSegmentedInit {
			if err := seg.Manifest().Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return seg
}

// feedAll drives a fresh single-log tail over recs, offsets = indices.
func feedAll(a *TailAuditor, recs []*store.Record) error {
	for i, rec := range recs {
		if err := a.Feed(rec, int64(i)); err != nil {
			return err
		}
	}
	return nil
}

// v1Records copies a log with every arrival record cut to the client's
// bytes: the version-1 log a build before point hints would have written.
func v1Records(recs []*store.Record) []*store.Record {
	out := copyRecords(recs)
	for i, rec := range out {
		if rec.Kind == RecordSubmission {
			client, _ := splitArrival(rec.Payload)
			out[i] = &store.Record{Kind: rec.Kind, Epoch: rec.Epoch, Payload: client}
		}
	}
	return out
}

// sealParts cuts a seal after its release: the body — all a version-1 seal
// holds — and the hint section. A seal whose structure does not parse to its
// release comes back whole, with no hints.
func sealParts(seal []byte) (body, hints []byte) {
	r := versioned(seal)
	readSealedClients(&r)
	for section := 0; section < 3; section++ { // coin messages, Morra records, outputs
		for n := r.Count(maxWireDim, 4); n > 0; n-- {
			r.Blob()
		}
	}
	if r.Count(1, 4) == 1 {
		r.Take(8 * r.Count(maxWireDim, 8))
	}
	hints = r.Rest()
	if r.Err() != nil {
		return seal, nil
	}
	return seal[: len(seal)-len(hints) : len(seal)-len(hints)], hints
}

// hintedSeal returns a copy of seal's body and the hint section its prover
// section's points call for, whichever version seal is.
func hintedSeal(t testing.TB, pub *Public, seal []byte) (body, hints []byte) {
	t.Helper()
	_, tr, err := pub.decodeProverSection(seal, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = sealParts(seal)
	return bytes.Clone(body), pub.appendSealHints(nil, tr)
}

// editSeal rewrites the seal recs[first..last] hold — one seal record, or a
// whole chunk sequence — with edit, re-split over as many chunk records as it
// had, so every record keeps its index.
func editSeal(t testing.TB, recs []*store.Record, first, last int, edit func(seal []byte) []byte) {
	t.Helper()
	if recs[first].Kind == RecordSeal {
		recs[first] = &store.Record{Kind: RecordSeal, Epoch: recs[first].Epoch, Payload: edit(bytes.Clone(recs[first].Payload))}
		return
	}
	var seal []byte
	for _, rec := range recs[first : last+1] {
		_, _, piece, err := decodeSealChunk(rec.Payload)
		if err != nil {
			t.Fatal(err)
		}
		seal = append(seal, piece...)
	}
	seal = edit(seal)
	total := last - first + 1
	size := (len(seal) + total - 1) / total
	for k := 0; k < total; k++ {
		piece := seal[min(k*size, len(seal)):min((k+1)*size, len(seal))]
		recs[first+k] = &store.Record{Kind: RecordSealChunk, Epoch: recs[first+k].Epoch, Payload: encodeSealChunk(k, total, piece)}
	}
}

// v1Seals copies an honest log with every seal cut to its body: the
// version-1 seal a build before seal hints wrote, at the same record indices.
func v1Seals(t testing.TB, recs []*store.Record) []*store.Record {
	out := copyRecords(recs)
	for i := 0; i < len(out); i++ {
		last := i
		switch out[i].Kind {
		case RecordSealChunk:
			_, total, _, err := decodeSealChunk(out[i].Payload)
			if err != nil {
				t.Fatal(err)
			}
			last = i + total - 1
		case RecordSeal:
		default:
			continue
		}
		editSeal(t, out, i, last, func(seal []byte) []byte {
			body, _ := sealParts(seal)
			return body
		})
		i = last
	}
	return out
}

// plainV1Board is plainBoard as a version-1 log, what a build before point
// hints wrote: arrival records and seals without hints.
func plainV1Board(t *testing.T) *grammarBoard {
	b := plainBoard(t)
	b.name, b.victim = "plain-v1", v1Seals(t, v1Records(b.victim))
	return b
}

// plainV1SealBoard is plainBoard with version-1 seals behind hinted arrival
// records, what a build before seal hints wrote.
func plainV1SealBoard(t *testing.T) *grammarBoard {
	b := plainBoard(t)
	b.name, b.victim = "plain-v1-seal", v1Seals(t, b.victim)
	return b
}

func plainBoard(t *testing.T) *grammarBoard {
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	log := store.NewMemLog()
	opts := SessionOptions{Rand: testSeed(31), Store: log, Budget: conformanceBudget, Parallelism: 2}
	sess, err := NewSession(pub, opts)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(id int, want error) {
		sub, err := pub.NewClientSubmission(id, 1, testSeed(byte(100+id)))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Submit(ctx, sub); !errors.Is(err, want) {
			t.Fatalf("client %d: %v, want %v", id, err, want)
		}
	}
	for id := 0; id < 4; id++ {
		submit(id, nil)
	}
	if _, err := sess.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sess.Reset(); err != nil {
		t.Fatal(err)
	}
	submit(0, ErrClientReject) // out of budget
	submit(4, nil)
	submit(5, nil)
	res, err := sess.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := log.Snapshot()
	return &grammarBoard{
		name: "plain", pub: pub, victim: recs, freshID: 9, digest1: TranscriptDigest(pub, res.Transcript),
		read: func(t *testing.T, victim []*store.Record) (resume, audit, tail error) {
			sweepReaders(t, sweptLog{pub: pub, recs: victim, opts: opts})
			audit = AuditLog(ctx, pub, memLogOf(t, victim), 1, 2)
			tail = feedAll(NewTailAuditor(pub, TailOptions{Workers: 2, Budget: conformanceBudget}), victim)
			ro := opts
			ro.Store = memLogOf(t, victim)
			_, resume = ResumeSession(ctx, pub, ro)
			return resume, audit, tail
		},
	}
}

// segmentedReader rebuilds a segmented directory from per-segment records
// (segment 0 replaced by the mutated victim) and reads it three ways.
func segmentedReader(t *testing.T, pub *Public, kind segmentKind, segs [][]*store.Record, manifest []*store.Record,
	read func(t *testing.T, seg *store.SegmentedLog) (resume, audit error, tail *SegmentedTail)) func(*testing.T, []*store.Record) (error, error, error) {
	return func(t *testing.T, victim []*store.Record) (resume, audit, tail error) {
		shard, shards := kind.pin(0, len(segs))
		sweepReaders(t, sweptLog{pub: pub, recs: victim, opts: SessionOptions{Budget: kind.budget(0, conformanceBudget)}, shard: shard, shards: shards})
		seg := segmentedLogOf(t, append([][]*store.Record{victim}, segs[1:]...), manifest)
		defer seg.Close()
		resume, audit, st := read(t, seg)
		defer st.Close()
		for n := 1; n > 0 && tail == nil; {
			n, tail = st.Poll()
		}
		if tail == nil {
			_, _, tail = st.VerifyMerged(1)
		}
		return resume, audit, tail
	}
}

func segmentRecords(t *testing.T, seg *store.SegmentedLog) (segs [][]*store.Record, manifest []*store.Record) {
	t.Helper()
	for i := 0; i < seg.Shards(); i++ {
		recs, err := seg.Segment(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, recs)
	}
	manifest, err := seg.Manifest().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return segs, manifest
}

func shardedBoard(t *testing.T) *grammarBoard {
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	seg, err := store.OpenSegmentedLog(t.TempDir(), 2, store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	opts := SessionOptions{Rand: testSeed(32), Shards: 2, Budget: conformanceBudget, Parallelism: 2}
	so := opts
	so.Segmented = seg
	ss, err := NewShardedSession(pub, so)
	if err != nil {
		t.Fatal(err)
	}
	// IDs by home shard: the victim is shard 0's segment.
	var home [2][]int
	for id := 0; len(home[0]) < 6 || len(home[1]) < 3; id++ {
		home[ShardOf(id, 2)] = append(home[ShardOf(id, 2)], id)
	}
	submit := func(id int, want error) {
		sub, err := pub.NewClientSubmission(id, 1, testSeed(byte(100+id)))
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Submit(ctx, sub); !errors.Is(err, want) {
			t.Fatalf("client %d: %v, want %v", id, err, want)
		}
	}
	for _, id := range []int{home[0][0], home[1][0], home[0][1], home[0][2], home[1][1]} {
		submit(id, nil)
	}
	if _, err := ss.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ss.Reset(); err != nil {
		t.Fatal(err)
	}
	submit(home[0][0], ErrClientReject) // out of budget
	submit(home[0][3], nil)
	submit(home[1][2], nil)
	submit(home[0][4], nil)
	if _, err := ss.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	segs, manifest := segmentRecords(t, seg)
	return &grammarBoard{
		name: "shards-2", pub: pub, victim: segs[0], freshID: home[0][5],
		digest1: TranscriptDigest(pub, ss.Shard(0).SealedTranscript()),
		read: segmentedReader(t, pub, shardSegments, segs, manifest, func(t *testing.T, seg *store.SegmentedLog) (resume, audit error, tail *SegmentedTail) {
			audit = AuditSegmentedLog(ctx, pub, seg, 1, 2)
			tail, err := tailSegments(pub, seg, TailOptions{Workers: 2, Budget: conformanceBudget}, shardSegments)
			if err != nil {
				t.Fatal(err)
			}
			ro := opts
			ro.Segmented = seg
			_, resume = ResumeShardedSession(ctx, pub, ro)
			return resume, audit, tail
		}),
	}
}

func sketchBoard(t *testing.T) *grammarBoard {
	ctx := context.Background()
	pub := testPublic(t, 1, 8, 4)
	layout := testLayout()
	seg, err := store.OpenSegmentedLog(t.TempDir(), layout.Rows, store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	opts := SessionOptions{Rand: testSeed(33), Budget: conformanceBudget, Parallelism: 2}
	so := opts
	so.Segmented = seg
	hs, err := NewSketchSession(pub, layout, so)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(id int, want error) {
		c, err := hs.NewContribution(id, id%layout.Domain)
		if err != nil {
			t.Fatal(err)
		}
		if err := hs.Submit(ctx, c); !errors.Is(err, want) {
			t.Fatalf("client %d: %v, want %v", id, err, want)
		}
	}
	for id := 0; id < 3; id++ {
		submit(id, nil)
	}
	if _, err := hs.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := hs.Reset(); err != nil {
		t.Fatal(err)
	}
	submit(0, ErrClientReject) // out of budget
	submit(4, nil)
	submit(5, nil)
	if _, err := hs.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	segs, manifest := segmentRecords(t, seg)
	return &grammarBoard{
		name: "sketch-rows", pub: pub, victim: segs[0], freshID: 9,
		digest1: TranscriptDigest(pub, hs.segs[0].SealedTranscript()),
		read: segmentedReader(t, pub, rowSegments, segs, manifest, func(t *testing.T, seg *store.SegmentedLog) (resume, audit error, tail *SegmentedTail) {
			audit = AuditSketchLog(ctx, pub, layout, seg, 1, 2)
			tail, err := TailSketchLog(pub, layout, seg, TailOptions{Workers: 2, Budget: conformanceBudget})
			if err != nil {
				t.Fatal(err)
			}
			ro := opts
			ro.Segmented = seg
			_, resume = ResumeSketchSession(ctx, pub, layout, ro)
			return resume, audit, tail
		}),
	}
}

// logShape locates the landmarks of a victim log's epoch 1 that the
// mutations aim at.
type logShape struct {
	staleVerdict *store.Record // an epoch-0 verdict record
	subs         []int         // epoch-1 submission records of accepted clients
	verdict      map[int]int   // epoch-1 verdict record index by client
	accepted     []int         // epoch-1 accepted client IDs, board order
	refused      int           // the budget-refused client
	charge       int           // an epoch-1 charge record
	sealFirst    int           // first and last chunk of epoch 1's seal
	sealLast     int
}

func shapeOf(t *testing.T, recs []*store.Record) logShape {
	t.Helper()
	sh := logShape{verdict: map[int]int{}, refused: -1, charge: -1, sealFirst: -1}
	subAt := map[int]int{}
	for i, rec := range recs {
		switch {
		case rec.Epoch == 0 && rec.Kind == RecordVerdict && sh.staleVerdict == nil:
			sh.staleVerdict = rec
		case rec.Epoch != 1:
		case rec.Kind == RecordSubmission:
			id, err := peekClientPublicID(rec.Payload[5:])
			if err != nil {
				t.Fatal(err)
			}
			subAt[id] = i
		case rec.Kind == RecordVerdict:
			id, reject, _, err := decodeVerdict(rec.Payload)
			if err != nil {
				t.Fatal(err)
			}
			sh.verdict[id] = i
			if reject != nil {
				sh.refused = id
			} else {
				sh.accepted = append(sh.accepted, id)
				sh.subs = append(sh.subs, subAt[id])
			}
		case rec.Kind == RecordBudgetCharge:
			sh.charge = i
		case rec.Kind == RecordSealChunk:
			if sh.sealFirst < 0 {
				sh.sealFirst = i
			}
			sh.sealLast = i
		}
	}
	if len(sh.accepted) < 2 || sh.refused < 0 || sh.charge < 0 || sh.sealLast-sh.sealFirst < 2 || sh.sealLast != len(recs)-1 {
		t.Fatalf("victim log lacks the landmarks the table needs: %+v", sh)
	}
	return sh
}

func insertAt(recs []*store.Record, at int, rec *store.Record) []*store.Record {
	out := append(recs[:at:at], rec)
	return append(out, recs[at:]...)
}

// TestBoardGrammarConformance drives every tampering shape the record
// grammar names through recovery, the offline audit and the live tail, on a
// plain board, a Shards: 2 segmented board and a sketch-row board, and
// requires the three readers to agree: all refuse, at the same record.
func TestBoardGrammarConformance(t *testing.T) {
	shrinkTailWindow(t)
	shrinkSealChunks(t)

	type mutation struct {
		name string
		// mutate returns the tampered log and the record index every reader
		// must point at.
		mutate func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int)
		frag   string
		// crypto marks tampering only verification can see (the records stay
		// grammatical): both auditors must refuse, where the flipped byte
		// lands decides at which record, and recovery — which trusts recorded
		// verdicts — is not asked.
		crypto bool
	}
	snapshot := func(b *grammarBoard) *store.Record {
		return &store.Record{Kind: RecordSnapshot, Epoch: 1, Payload: encodeSnapshot(1, b.digest1)}
	}
	cases := []mutation{
		{
			// A verdict naming a client whose submission has not arrived.
			name: "verdict-before-submission",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				s, v := sh.subs[0], sh.verdict[sh.accepted[0]]
				recs[s], recs[v] = recs[v], recs[s]
				return recs, s
			},
			frag: "verdict for unknown client",
		},
		{
			// The second client's submission moved ahead of the first's:
			// every record stays legal (the charge chain too), only the seal
			// no longer lists the clients in the order the log admitted them.
			name: "reordered-clients",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				moved := recs[sh.subs[1]]
				copy(recs[sh.subs[0]+1:sh.subs[1]+1], recs[sh.subs[0]:sh.subs[1]])
				recs[sh.subs[0]] = moved
				return recs, sh.sealLast
			},
			frag: "seal position 0 disagrees",
		},
		{
			// Erasing a decided client via a forged withdrawal record.
			name: "forged-withdrawal",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				forged := &store.Record{Kind: RecordWithdraw, Epoch: 1, Payload: encodeWithdraw(sh.accepted[0])}
				return insertAt(recs, sh.sealFirst, forged), sh.sealFirst
			},
			frag: "withdrawal of decided client",
		},
		{
			// Appending evidence after the seal: the epoch is closed.
			name: "post-seal-append",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				return append(recs, recs[sh.subs[0]]), len(recs)
			},
			frag: "after epoch 1 was sealed",
		},
		{
			// A flipped byte inside a logged submission's public part.
			name: "bit-flipped-submission",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				p := recs[sh.subs[0]].Payload
				p[len(p)/4] ^= 0x40
				return recs, -1
			},
			crypto: true,
		},
		{
			// A flipped byte in the seal's prover section, addressed from the
			// end of the seal's body: the hint section behind it is not hit.
			name: "bit-flipped-seal",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				editSeal(t, recs, sh.sealFirst, sh.sealLast, func(seal []byte) []byte {
					body, _ := sealParts(seal)
					seal[len(body)-40] ^= 0x04
					return seal
				})
				return recs, -1
			},
			crypto: true,
		},
		{
			// The seal's first hint the other root of its point's x: the y of
			// the wrong parity (a version-1 seal gains the hint section it
			// lacked, hints otherwise right).
			name: "wrong-seal-hint",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				editSeal(t, recs, sh.sealFirst, sh.sealLast, func(seal []byte) []byte {
					body, hints := hintedSeal(t, b.pub, seal)
					y := new(big.Int).SetBytes(hints[:32])
					new(big.Int).Sub(elliptic.P256().Params().P, y).FillBytes(hints[:32])
					return append(body, hints...)
				})
				return recs, sh.sealLast
			},
			frag: "seal: pedersen: group: p256: ec: hint is not the y coordinate of the encoded point",
		},
		{
			// The seal's hint section a whole hint short.
			name: "short-seal-hint",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				editSeal(t, recs, sh.sealFirst, sh.sealLast, func(seal []byte) []byte {
					body, hints := hintedSeal(t, b.pub, seal)
					return append(body, hints[:len(hints)-32]...)
				})
				return recs, sh.sealLast
			},
			frag: "seal: pedersen: group: p256: hint section ends at element",
		},
		{
			// The seal's hint section with a hint too many.
			name: "surplus-seal-hint",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				editSeal(t, recs, sh.sealFirst, sh.sealLast, func(seal []byte) []byte {
					body, hints := hintedSeal(t, b.pub, seal)
					return append(append(body, hints...), hints[:32]...)
				})
				return recs, sh.sealLast
			},
			frag: "seal: group: p256: 32 hint bytes left after",
		},
		{
			name: "second-verdict",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				v := sh.verdict[sh.accepted[0]]
				return insertAt(recs, v+1, recs[v]), v + 1
			},
			frag: "second verdict for client",
		},
		{
			// The forgery that matters: flip a public acceptance into a
			// rejection at the next reboot.
			name: "flipped-second-verdict",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				id := sh.accepted[0]
				flip := &store.Record{Kind: RecordVerdict, Epoch: 1, Payload: encodeVerdict(id, ErrClientReject, true)}
				return insertAt(recs, sh.verdict[id]+1, flip), sh.verdict[id] + 1
			},
			frag: "second verdict for client",
		},
		{
			// A legal record spliced between two chunks of the seal: the chunk
			// that tries to continue past it has no sequence left to extend.
			name: "chunk-interleave",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				sub, err := b.pub.NewClientSubmission(b.freshID, 0, testSeed(7))
				if err != nil {
					t.Fatal(err)
				}
				late := &store.Record{Kind: RecordSubmission, Epoch: 1, Payload: b.pub.EncodeClientSubmission(sub)}
				return insertAt(recs, sh.sealFirst+1, late), sh.sealFirst + 2
			},
			frag: "out of sequence",
		},
		{
			// The first point of an arrival record hinted with the other root
			// of its x: the y of the wrong parity (a version-1 record gains the
			// hint section it lacked, hints otherwise right).
			name: "wrong-hint",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				rec := recs[sh.subs[0]]
				sub, err := b.pub.DecodeClientSubmission(rec.Payload)
				if err != nil {
					t.Fatal(err)
				}
				payload := b.pub.EncodeClientSubmission(sub)
				client, hints := splitArrival(payload)
				y := new(big.Int).SetBytes(hints[:32])
				new(big.Int).Sub(elliptic.P256().Params().P, y).FillBytes(payload[len(client) : len(client)+32])
				recs[sh.subs[0]] = &store.Record{Kind: rec.Kind, Epoch: rec.Epoch, Payload: payload}
				return recs, sh.subs[0]
			},
			frag: "hint is not the y coordinate of the encoded point",
		},
		{
			// A record of a closed epoch inside a later epoch's span.
			name: "stale-epoch-record",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				return insertAt(recs, sh.subs[1], sh.staleVerdict), sh.subs[1]
			},
			frag: "belongs to epoch 0, current epoch is 1",
		},
		{
			name: "charge-after-refusal",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				charge := &store.Record{Kind: RecordBudgetCharge, Epoch: 1,
					Payload: encodeBudgetCharge(sh.refused, 1, 1, 2, ledgerGenesis())}
				return insertAt(recs, sh.verdict[sh.refused]+1, charge), sh.verdict[sh.refused] + 1
			},
			frag: "refused over budget",
		},
		{
			name: "double-charge",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				return insertAt(recs, sh.charge+1, recs[sh.charge]), sh.charge + 1
			},
			frag: "does not extend the ledger chain",
		},
		{
			name: "snapshot-before-seal",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				return insertAt(recs, sh.sealFirst, snapshot(b)), sh.sealFirst
			},
			frag: "which is not sealed",
		},
		{
			name: "double-snapshot",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				return append(recs, snapshot(b), snapshot(b)), len(recs) + 1
			},
			frag: "belongs to epoch 1, current epoch is 2",
		},
		{
			name: "unknown-kind",
			mutate: func(b *grammarBoard, sh logShape, recs []*store.Record) ([]*store.Record, int) {
				return insertAt(recs, sh.subs[1], &store.Record{Kind: 99, Epoch: 1}), sh.subs[1]
			},
			frag: "unknown kind 99",
		},
	}

	for _, build := range []func(*testing.T) *grammarBoard{plainBoard, plainV1Board, plainV1SealBoard, shardedBoard, sketchBoard} {
		b := build(t)
		sh := shapeOf(t, b.victim)
		t.Run(b.name+"/honest", func(t *testing.T) {
			resume, audit, tail := b.read(t, copyRecords(b.victim))
			if resume != nil || audit != nil || tail != nil {
				t.Fatalf("honest board refused: resume=%v audit=%v tail=%v", resume, audit, tail)
			}
		})
		for _, tc := range cases {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				recs, wantAt := tc.mutate(b, sh, copyRecords(b.victim))
				resume, audit, tail := b.read(t, recs)
				var reason string // the one every reader gives
				for _, r := range []struct {
					who string
					err error
				}{{"resume", resume}, {"audit", audit}, {"tail", tail}} {
					if tc.crypto && r.who == "resume" {
						continue
					}
					if r.err == nil {
						t.Fatalf("%s accepted the tampered board", r.who)
					}
					if isAudit := errors.Is(r.err, ErrAuditFail); isAudit != (r.who != "resume") {
						t.Fatalf("%s error wraps ErrAuditFail = %v: %v", r.who, isAudit, r.err)
					}
					if tc.crypto {
						continue
					}
					var pos *boardLogError
					if !errors.As(r.err, &pos) {
						t.Fatalf("%s error carries no record position: %v", r.who, r.err)
					}
					if pos.Index != wantAt {
						t.Fatalf("%s flagged record %d, want %d: %v", r.who, pos.Index, wantAt, r.err)
					}
					if !strings.Contains(pos.Reason, tc.frag) {
						t.Fatalf("%s reason %q does not mention %q", r.who, pos.Reason, tc.frag)
					}
					if reason != "" && pos.Reason != reason {
						t.Fatalf("%s reason %q, another reader said %q", r.who, pos.Reason, reason)
					}
					reason = pos.Reason
				}
			})
		}
	}
}

// TestTailErrorsCarryOffsetsAndStick: the tail's positional error names the
// byte offset its tailer reported, and a tail that has flagged its log
// refuses every later record with the same error.
func TestTailErrorsCarryOffsetsAndStick(t *testing.T) {
	pub := testPublic(t, 2, 1, 4)
	base := tailBaseRecords(t, pub)
	a := NewTailAuditor(pub, TailOptions{Workers: 2})
	if err := a.Feed(base[0], 4096); err != nil {
		t.Fatal(err)
	}
	if err := a.Feed(base[0], 8192); err != nil { // retry of an undecided client: legal
		t.Fatalf("superseding retry refused: %v", err)
	}
	if err := a.Feed(base[1], 9000); err != nil {
		t.Fatal(err)
	}
	err := a.Feed(base[1], 9100)
	if err == nil || !strings.Contains(err.Error(), "board log record 3 (offset 9100), epoch 0: second verdict for client 0") {
		t.Fatalf("second verdict error = %v", err)
	}
	if again := a.Feed(base[2], 9200); again != err {
		t.Fatalf("error did not stick: %v", again)
	}
	if a.Err() != err || a.Sealed() {
		t.Fatal("flagged tail reports a clean or sealed state")
	}
}

// fuzzBase is one honest board log the grammar fuzzer mutates.
type fuzzBase struct {
	opts   SessionOptions // the writing session's options, minus Store
	recs   []*store.Record
	digest []byte // TranscriptDigest of the last epoch's seal
}

var (
	fuzzBasesOnce sync.Once
	fuzzBases     []*fuzzBase
	fuzzBasesPub  *Public
)

// grammarFuzzBases builds the honest logs once per process: an eager
// two-epoch board with chunked seals, a one-epoch board without its verdict
// records, and a budgeted two-epoch board whose second epoch refuses an
// exhausted client — all three version-2 logs, as this build writes them.
func grammarFuzzBases(t testing.TB) (*Public, []*fuzzBase) {
	fuzzBasesOnce.Do(func() {
		ctx := context.Background()
		pub, err := Setup(Config{Provers: 2, Bins: 1, Coins: 4})
		if err != nil {
			t.Fatal(err)
		}
		fuzzBasesPub = pub
		old := sealChunkSize
		defer func() { sealChunkSize = old }()
		for i, opts := range []SessionOptions{
			{Rand: testSeed(61)},
			{Rand: testSeed(62)},
			{Rand: testSeed(63), Budget: &BudgetConfig{EpochCost: 1, Total: 1}},
		} {
			sealChunkSize = old
			if i == 0 {
				// Epoch 0's seal spans six chunk records and epoch 1's five,
				// in either seal version: the record indices the corpus in
				// testdata/fuzz/FuzzBoardGrammar names were found on that
				// layout.
				sealChunkSize = 1120
			}
			log := store.NewMemLog()
			so := opts
			so.Store = log
			sess, err := NewSession(pub, so)
			if err != nil {
				t.Fatal(err)
			}
			var res *RunResult
			for epoch, ids := range [][]int{{0, 1, 2}, {0, 3}} {
				if epoch == 1 {
					if i == 1 {
						break
					}
					if err := sess.Reset(); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range ids {
					sub, err := pub.NewClientSubmission(id, 1, testSeed(byte(120+id)))
					if err != nil {
						t.Fatal(err)
					}
					if err := sess.Submit(ctx, sub); err != nil && !errors.Is(err, ErrClientReject) {
						t.Fatal(err)
					}
				}
				if res, err = sess.Finalize(ctx); err != nil {
					t.Fatal(err)
				}
			}
			recs, _ := log.Snapshot()
			if i == 1 {
				recs = withoutVerdicts(recs)
			}
			fuzzBases = append(fuzzBases, &fuzzBase{opts: opts, recs: recs, digest: TranscriptDigest(pub, res.Transcript)})
		}
	})
	return fuzzBasesPub, fuzzBases
}

// fuzzKinds are the kinds a kind-flip may write. Snapshot is left out: a
// stray one moves where recovery starts decoding, so recovery and the tail
// could flag different records of a log both refuse; the conformance table
// covers the snapshot rules.
var fuzzKinds = []uint8{RecordSubmission, RecordVerdict, RecordSeal, RecordReset, RecordWithdraw, RecordSealChunk, RecordBudgetCharge, 99}

// mutateRecords applies up to four fuzz-chosen operations, three bytes each:
// swap, duplicate, drop, kind-flip, epoch-flip.
func mutateRecords(recs []*store.Record, ops []byte) []*store.Record {
	for n := 0; n < 4 && len(ops) >= 3 && len(recs) > 0; n, ops = n+1, ops[3:] {
		i, j := int(ops[1])%len(recs), int(ops[2])
		switch ops[0] % 5 {
		case 0:
			j %= len(recs)
			recs[i], recs[j] = recs[j], recs[i]
		case 1:
			recs = insertAt(recs, j%(len(recs)+1), recs[i])
		case 2:
			recs = append(recs[:i:i], recs[i+1:]...)
		case 3:
			cp := *recs[i]
			cp.Kind = fuzzKinds[j%len(fuzzKinds)]
			recs[i] = &cp
		case 4:
			cp := *recs[i]
			cp.Epoch = uint32(j % 3)
			recs[i] = &cp
		}
	}
	return recs
}

// checkGrammarAgreement reads one log with all three consumers and enforces
// the fuzzer's invariants: readers that know the same things agree on accept
// versus reject and on the offending record, errors stick, and an accepted
// log resumes — and, if its last epoch was open, finalizes — to the digest
// the tail certifies. Recovery knows the budget policy, so it is held to a
// tail that knows it too; AuditLog takes no policy (it can only tell that a
// ledger was in force from the epoch's own records), so it is held to a tail
// that was not told either.
func checkGrammarAgreement(t *testing.T, pub *Public, base *fuzzBase, recs []*store.Record, pristine bool) {
	ctx := context.Background()
	sweepReaders(t, sweptLog{pub: pub, recs: recs, opts: base.opts})
	// sameRecord holds another reader to a tail's refusal: it sticks, and the
	// other reader names the same record.
	sameRecord := func(tail *TailAuditor, tailErr error, who string, otherErr error) *boardLogError {
		if again := tail.Feed(recs[0], 0); again != tailErr {
			t.Fatalf("tail error did not stick: %v then %v", tailErr, again)
		}
		var at, other *boardLogError
		if !errors.As(tailErr, &at) {
			t.Fatalf("tail refused without a position: %v", tailErr)
		}
		// A refusal the tail's own verification raised (the grammar machine
		// itself is still clean — say a kind-flip minted a "seal" whose prover
		// section is garbage) binds the other reader to refuse, not to where.
		if otherErr != nil && tail.g.err != nil && (!errors.As(otherErr, &other) || other.Index != at.Index) {
			t.Fatalf("tail refused record %d (%v) but %s said: %v", at.Index, tailErr, who, otherErr)
		}
		return at
	}

	blind := NewTailAuditor(pub, TailOptions{Workers: 1})
	blindErr := feedAll(blind, recs)
	// The same tail drained by Poll, a window of records decoded ahead on
	// the pool and its verdicts settled when the drain ends, says what the
	// record-by-record Feed said: the same refusal at the same record, and
	// the same certified epochs.
	polled, err := TailAuditLog(pub, memLogOf(t, recs), TailOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer polled.Close()
	if _, pollErr := polled.Poll(); fmt.Sprint(pollErr) != fmt.Sprint(blindErr) {
		t.Fatalf("the polled tail said %v, the fed tail %v", pollErr, blindErr)
	}
	for epoch := 0; epoch <= max(blind.Epoch(), polled.Epoch()); epoch++ {
		fed, _ := blind.VerifiedDigest(epoch)
		got, _ := polled.VerifiedDigest(epoch)
		if !bytes.Equal(fed, got) {
			t.Fatalf("epoch %d: the polled tail certified %x, the fed tail %x", epoch, got, fed)
		}
	}
	if blindErr != nil {
		at := sameRecord(blind, blindErr, "", nil)
		auditErr := AuditLog(ctx, pub, memLogOf(t, recs), at.Epoch, 1)
		if auditErr == nil {
			t.Fatalf("tail refused record %d (%v) but the audit of epoch %d passed", at.Index, blindErr, at.Epoch)
		}
		sameRecord(blind, blindErr, "the audit", auditErr)
	} else {
		for epoch := 0; epoch <= blind.Epoch(); epoch++ {
			_, certified := blind.VerifiedDigest(epoch)
			auditErr := AuditLog(ctx, pub, memLogOf(t, recs), epoch, 1)
			var pos *boardLogError
			if certified != (auditErr == nil) || errors.As(auditErr, &pos) {
				t.Fatalf("tail certified epoch %d = %v, but its audit said: %v", epoch, certified, auditErr)
			}
		}
	}

	tail := blind
	var tailErr error
	if base.opts.Budget != nil {
		tail = NewTailAuditor(pub, TailOptions{Workers: 1, Budget: base.opts.Budget})
		tailErr = feedAll(tail, recs)
	} else {
		tailErr = blind.Err()
	}
	log := memLogOf(t, recs)
	ro := base.opts
	ro.Store = log
	sess, resumeErr := ResumeSession(ctx, pub, ro)
	if tailErr != nil && tail.g.err == nil {
		return // refused on verification, which recovery does not repeat
	}
	if (tailErr == nil) != (resumeErr == nil) {
		t.Fatalf("tail said %v but resume said %v", tailErr, resumeErr)
	}
	if tailErr != nil {
		sameRecord(tail, tailErr, "resume", resumeErr)
		return
	}
	if sess.Epoch() != tail.Epoch() {
		t.Fatalf("resumed at epoch %d, tail follows epoch %d", sess.Epoch(), tail.Epoch())
	}
	if !sess.Finalized() {
		// Finalize the open epoch and let the tail read what was appended.
		// Acceptance of an open epoch is provisional (a decided client whose
		// charge record was dropped is only caught when the epoch seals), so
		// the tail may refuse the continuation — but then recovery must too.
		if _, err := sess.Finalize(ctx); err != nil {
			t.Fatalf("finalizing the resumed epoch: %v", err)
		}
		after, _ := log.Snapshot()
		for i := len(recs); i < len(after); i++ {
			if err := tail.Feed(after[i], int64(i)); err != nil {
				ro.Store = memLogOf(t, after)
				if _, resumeErr = ResumeSession(ctx, pub, ro); resumeErr == nil {
					t.Fatalf("tail refused the continuation (%v) but resume accepted it", err)
				}
				sameRecord(tail, err, "resume", resumeErr)
				return
			}
		}
	}
	got := TranscriptDigest(pub, sess.SealedTranscript())
	if !bytes.Equal(got, tail.Digest()) {
		t.Fatal("resumed session and tail disagree on the sealed digest")
	}
	if pristine && !bytes.Equal(got, base.digest) {
		t.Fatal("the unmutated log did not resume to its pinned digest")
	}
}

// FuzzBoardGrammar mutates honest board logs record by record and holds the
// three readers of the log to one verdict (see checkGrammarAgreement). The
// low seven bits of which pick the base log; its top bit reads that log's
// arrival records as record version 1 (v1Records), so an input below 0x80
// keeps the base it had before hinted records, and its 0x40 bit reads its
// seals as seal version 1 (v1Seals). The seeds are the three pristine logs
// in each version of each; testdata/fuzz/FuzzBoardGrammar holds one input
// per shape the pre-unification interpreters disagreed on.
func FuzzBoardGrammar(f *testing.F) {
	for _, version := range []uint8{0, 0x40, 0x80, 0xc0} {
		for low := uint8(0); low < 3; low++ { // three low values pick the three bases
			f.Add(version|low, []byte{})
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, ops []byte) {
		pub, bases := grammarFuzzBases(t)
		base := bases[int(which&0x7f)%len(bases)]
		recs := copyRecords(base.recs)
		if which&0x80 != 0 {
			recs = v1Records(recs)
		}
		if which&0x40 != 0 {
			recs = v1Seals(t, recs)
		}
		recs = mutateRecords(recs, ops)
		if len(recs) == 0 {
			return
		}
		checkGrammarAgreement(t, pub, base, recs, len(ops) < 3)
	})
}
