package vdp

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/field"
	"repro/internal/store"
)

// Hostile-bytes robustness for the wire decoders: any input either fails to
// parse or round-trips through the canonical encoder. Decoders must never
// panic, hang, or allocate unboundedly — a submission frame arrives straight
// off a socket in cmd/vdpserver, so these are the attack surface of the
// session protocol. CI runs each target as a short -fuzztime smoke pass on
// top of the checked-in seed corpus (which `go test` always executes).

// fuzzPublic is the deployment every fuzz target decodes against: MPC with
// histogram bins so both the bit-proof and one-hot layouts are reachable.
func fuzzPublic(f *testing.F) *Public {
	f.Helper()
	pub, err := Setup(Config{Provers: 2, Bins: 2, Coins: 4})
	if err != nil {
		f.Fatal(err)
	}
	return pub
}

func FuzzDecodeClientPublic(f *testing.F) {
	pub := fuzzPublic(f)
	sub, err := pub.NewClientSubmission(7, 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	valid := pub.EncodeClientPublic(sub.Public)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{WireVersion, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := pub.DecodeClientPublic(b)
		if err != nil {
			return
		}
		enc := pub.EncodeClientPublic(cp)
		back, err := pub.DecodeClientPublic(enc)
		if err != nil {
			t.Fatalf("re-encoding of accepted input fails to decode: %v", err)
		}
		if back.ID != cp.ID || len(back.ShareCommitments) != len(cp.ShareCommitments) {
			t.Fatalf("round trip changed structure: %d/%d vs %d/%d",
				back.ID, len(back.ShareCommitments), cp.ID, len(cp.ShareCommitments))
		}
	})
}

func FuzzDecodeClientPayload(f *testing.F) {
	pub := fuzzPublic(f)
	sub, err := pub.NewClientSubmission(7, 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	valid := pub.EncodeClientPayload(sub.Payloads[1])
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{WireVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		pl, err := pub.DecodeClientPayload(b)
		if err != nil {
			return
		}
		enc := pub.EncodeClientPayload(pl)
		if !bytes.Equal(enc, b) {
			t.Fatalf("accepted payload is not canonical: %x decodes but re-encodes to %x", b, enc)
		}
	})
}

// FuzzDecodeClientSubmission covers the durable-board record body: the
// combined public + per-prover-payload encoding that ResumeSession replays
// straight out of the log file.
func FuzzDecodeClientSubmission(f *testing.F) {
	pub := fuzzPublic(f)
	sub, err := pub.NewClientSubmission(3, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	valid := pub.EncodeClientSubmission(sub)
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add([]byte{WireVersion, 0, 0, 0, 4, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		sub, err := pub.DecodeClientSubmission(b)
		if err != nil {
			return
		}
		enc := pub.EncodeClientSubmission(sub)
		if _, err := pub.DecodeClientSubmission(enc); err != nil {
			t.Fatalf("re-encoding of accepted submission fails to decode: %v", err)
		}
	})
}

// FuzzDecodeSubmissionBatch covers the batch frame body — the submit-batch
// transport payload: a count prefix over length-prefixed full submissions.
// Hostile counts (huge, zero, mismatched with the actual payload), truncated
// inner submissions and bad version bytes must all fail cleanly; anything
// accepted must round-trip through the canonical encoder.
func FuzzDecodeSubmissionBatch(f *testing.F) {
	pub := fuzzPublic(f)
	var subs []*ClientSubmission
	for id := 0; id < 3; id++ {
		sub, err := pub.NewClientSubmission(id, id%2, nil)
		if err != nil {
			f.Fatal(err)
		}
		subs = append(subs, sub)
	}
	valid := pub.EncodeSubmissionBatch(subs)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add(pub.EncodeSubmissionBatch(nil))
	// Count far beyond the payload, count just over MaxBatchClients, and a
	// foreign version byte.
	f.Add([]byte{WireVersion, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{WireVersion, 0, 0, 0x10, 0x01})
	f.Add(append([]byte{WireVersion + 1}, valid[1:]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		subs, err := pub.DecodeSubmissionBatch(b)
		if err != nil {
			return
		}
		if len(subs) > MaxBatchClients {
			t.Fatalf("decoder accepted %d submissions, above the %d limit", len(subs), MaxBatchClients)
		}
		enc := pub.EncodeSubmissionBatch(subs)
		back, err := pub.DecodeSubmissionBatch(enc)
		if err != nil {
			t.Fatalf("re-encoding of accepted batch fails to decode: %v", err)
		}
		if len(back) != len(subs) {
			t.Fatalf("round trip changed batch size: %d vs %d", len(back), len(subs))
		}
	})
}

func FuzzDecodeProverOutput(f *testing.F) {
	pub := fuzzPublic(f)
	fld := pub.Field()
	valid := pub.EncodeProverOutput(&ProverOutput{
		Prover: 1,
		Y:      []*field.Element{fld.FromInt64(3), fld.FromInt64(9)},
		Z:      []*field.Element{fld.FromInt64(11), fld.FromInt64(2)},
	})
	f.Add(valid)
	f.Add(valid[:5])
	f.Add([]byte{WireVersion, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		out, err := pub.DecodeProverOutput(b)
		if err != nil {
			return
		}
		enc := pub.EncodeProverOutput(out)
		if !bytes.Equal(enc, b) {
			t.Fatalf("accepted output is not canonical: %x decodes but re-encodes to %x", b, enc)
		}
	})
}

// sealedTranscript runs a two-client durable session and returns its seal
// as the board log carries it — assembled from its chunk records when
// chunked.
func sealedTranscript(f *testing.F, pub *Public, chunked bool) []byte {
	f.Helper()
	ctx := context.Background()
	old := sealChunkSize
	defer func() { sealChunkSize = old }()
	if chunked {
		sealChunkSize = 512
	}
	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(97), Store: log, Parallelism: 1})
	if err != nil {
		f.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		sub, err := pub.NewClientSubmission(id, id, testSeed(byte(150+id)))
		if err != nil {
			f.Fatal(err)
		}
		if err := sess.Submit(ctx, sub); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := sess.Finalize(ctx); err != nil {
		f.Fatal(err)
	}
	recs, _ := log.Snapshot()
	if last := recs[len(recs)-1].Kind; (last == RecordSealChunk) != chunked {
		f.Fatalf("the seal ends in a kind-%d record, chunked = %v", last, chunked)
	}
	var seal []byte
	if err := scanSeals(log, func(_ int, b []byte) { seal = b }); err != nil {
		f.Fatal(err)
	}
	return seal
}

// FuzzDecodeTranscript holds the one transcript parser to its two readers:
// the full decode (DecodeTranscript) is the prover-section parse the
// board-log readers run plus a decode of every client block, so the two
// refuse exactly the same inputs except one whose client block alone does
// not decode; and an accepted transcript digests the same from its raw
// client section as decoded, and re-encodes byte for byte.
func FuzzDecodeTranscript(f *testing.F) {
	// Bins 1 (a count: bit proofs) and Bins 16 (one-hot proofs); one coin a
	// bin keeps the wide seals small enough to mutate quickly.
	var pubs [2]*Public
	for i, bins := range []int{1, 16} {
		pub, err := Setup(Config{Provers: 2, Bins: bins, Coins: 1})
		if err != nil {
			f.Fatal(err)
		}
		pubs[i] = pub
		for _, chunked := range []bool{false, true} {
			seal := sealedTranscript(f, pub, chunked)
			f.Add(i == 1, seal)
			if !chunked {
				f.Add(i == 1, seal[:len(seal)/2])
				// The release (flag 1, bin count, a u64 per bin) flagged 2 instead.
				cut := len(seal) - 8 - 8*bins
				f.Add(i == 1, append(seal[:cut:cut], 0, 0, 0, 2))
			}
		}
	}
	f.Add(false, []byte{})
	f.Fuzz(func(t *testing.T, wide bool, b []byte) {
		pub := pubs[0]
		if wide {
			pub = pubs[1]
		}
		full, fullErr := pub.DecodeTranscript(b)
		clients, _, sectionErr := pub.decodeProverSection(b)
		if sectionErr != nil {
			if fullErr == nil {
				t.Fatalf("the full decode accepted what the prover-section parse refused: %v", sectionErr)
			}
			return
		}
		if fullErr != nil {
			for _, raw := range clients {
				if _, err := pub.DecodeClientPublic(raw); err != nil {
					return
				}
			}
			t.Fatalf("the full decode refused a transcript whose every section parses: %v", fullErr)
		}
		d, err := transcriptDigestFromBytes(pub, b)
		if err != nil || !bytes.Equal(d, TranscriptDigest(pub, full)) {
			t.Fatalf("the digest from the raw client section (%x, %v) differs from TranscriptDigest", d, err)
		}
		if enc := pub.EncodeTranscript(full); !bytes.Equal(enc, b) {
			t.Fatalf("accepted transcript is not canonical: %x re-encodes to %x", b, enc)
		}
	})
}

// FuzzDecodeSnapshotRecord: the compaction snapshot is the one record a
// fast boot trusts instead of replayed evidence, so its decoder gets the
// same hostile-bytes treatment as the wire surface — any accepted input
// must be exactly what the canonical encoder emits.
func FuzzDecodeSnapshotRecord(f *testing.F) {
	digest := bytes.Repeat([]byte{0xab}, 32)
	f.Add(encodeSnapshot(0, digest))
	f.Add(encodeSnapshot(1<<20, digest))
	f.Add(encodeSnapshot(3, digest)[:7]) // torn tail
	f.Add([]byte{WireVersion, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		epoch, d, err := decodeSnapshot(b)
		if err != nil {
			return
		}
		if len(d) != 32 {
			t.Fatalf("accepted snapshot with a %d-byte digest", len(d))
		}
		if enc := encodeSnapshot(epoch, d); !bytes.Equal(enc, b) {
			t.Fatalf("accepted snapshot is not canonical: %x re-encodes to %x", b, enc)
		}
	})
}

// FuzzDecodeBudgetCharge: a charge record is chain evidence — the resumed
// session, the offline audit, and the live tail all hash the raw payload
// into the ledger head, so the decoder must accept exactly the canonical
// encoding and nothing else.
func FuzzDecodeBudgetCharge(f *testing.F) {
	f.Add(encodeBudgetCharge(7, 2, 1_000_000, 3_000_000, ledgerGenesis()))
	f.Add(encodeBudgetCharge(0, 0, 1, 1, bytes.Repeat([]byte{0xcd}, 32)))
	f.Add(encodeBudgetCharge(1, 1, 2, 2, ledgerGenesis())[:11]) // torn tail
	f.Add([]byte{WireVersion, 0, 0, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		id, epoch, amount, cum, prev, err := decodeBudgetCharge(b)
		if err != nil {
			return
		}
		if len(prev) != 32 {
			t.Fatalf("accepted charge with a %d-byte chain digest", len(prev))
		}
		if enc := encodeBudgetCharge(id, epoch, amount, cum, prev); !bytes.Equal(enc, b) {
			t.Fatalf("accepted charge is not canonical: %x re-encodes to %x", b, enc)
		}
	})
}

// FuzzDecodeSketchQuery: the query frame arrives straight off a socket in
// the vdpserver query endpoint.
func FuzzDecodeSketchQuery(f *testing.F) {
	f.Add(EncodeSketchQuery(&SketchQuery{Kind: SketchQueryPoint, Arg: 7}))
	f.Add(EncodeSketchQuery(&SketchQuery{Kind: SketchQueryTopK, Arg: 0}))
	f.Add([]byte{WireVersion, 0, 0, 0, 5})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := DecodeSketchQuery(b)
		if err != nil {
			return
		}
		if enc := EncodeSketchQuery(q); !bytes.Equal(enc, b) {
			t.Fatalf("accepted query is not canonical: %x re-encodes to %x", b, enc)
		}
	})
}

// FuzzDecodeItemEstimates: the query reply is parsed by vdpclient from
// whatever the far end sent.
func FuzzDecodeItemEstimates(f *testing.F) {
	f.Add(EncodeItemEstimates([]ItemEstimate{{Item: 5, Estimate: 12.5, Bound: 3.25}}))
	f.Add(EncodeItemEstimates(nil))
	f.Add([]byte{WireVersion, 0, 0, 0, 2, 0, 0, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		items, err := DecodeItemEstimates(b)
		if err != nil {
			return
		}
		for _, it := range items {
			// NaN re-encodes bit-exactly (we compare bytes, not values).
			_ = it
		}
		if enc := EncodeItemEstimates(items); !bytes.Equal(enc, b) {
			t.Fatalf("accepted reply is not canonical: %x re-encodes to %x", b, enc)
		}
	})
}
