package vdp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/store"
)

// Hostile-bytes robustness for the wire decoders: any input either fails to
// parse or round-trips byte for byte through the canonical encoder. Decoders
// must never panic, hang, or allocate unboundedly — a submission frame
// arrives straight off a socket in cmd/vdpserver, so these are the attack
// surface of the session protocol. CI runs each target as a short -fuzztime
// smoke pass on top of the seed corpus (which `go test` always executes).

// wireCodec is one message codec as the fuzzer drives it: seed encodings,
// and a round trip that decodes an input and re-encodes what it accepted,
// failing t if the accepted value breaks a bound the decoder enforces beyond
// the layout.
type wireCodec struct {
	name      string
	seeds     [][]byte
	roundTrip func(t testing.TB, b []byte) ([]byte, error)
}

// roundTrip pairs a decoder with the encoder of what it returns.
func roundTrip[T any](decode func([]byte) (T, error), encode func(T) []byte) func(testing.TB, []byte) ([]byte, error) {
	return func(_ testing.TB, b []byte) ([]byte, error) {
		v, err := decode(b)
		if err != nil {
			return nil, err
		}
		return encode(v), nil
	}
}

// digestSized fails t when a record the decoder accepted carries a digest
// that is not SHA-256 sized.
func digestSized(t testing.TB, d []byte, err error) {
	if err == nil && len(d) != sha256.Size {
		t.Fatalf("accepted a %d-byte digest", len(d))
	}
}

// wireCodecs lists every vdp message and record codec except the sealed
// transcript, which FuzzDecodeTranscript drives through its two parsers. pub
// is MPC with histogram bins, so both the bit-proof and one-hot layouts of a
// client are reachable.
func wireCodecs(t testing.TB, pub *Public) []wireCodec {
	t.Helper()
	subs := make([]*ClientSubmission, 3)
	for id := range subs {
		sub, err := pub.NewClientSubmission(id, id%2, testSeed(byte(60+id)))
		if err != nil {
			t.Fatal(err)
		}
		subs[id] = sub
	}
	res, err := Run(pub, []int{0, 1}, &RunOptions{Rand: testSeed(61), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Transcript
	submit, err := pub.EncodeSubmitPayload(subs[1])
	if err != nil {
		t.Fatal(err)
	}
	digest := bytes.Repeat([]byte{0xab}, 32)
	return []wireCodec{
		{"client-public", [][]byte{
			pub.EncodeClientPublic(subs[0].Public), pub.EncodeClientPublic(subs[1].Public),
			{WireVersion, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff},
		}, roundTrip(pub.DecodeClientPublic, pub.EncodeClientPublic)},
		{"client-payload", [][]byte{
			pub.EncodeClientPayload(subs[1].Payloads[1]),
			{WireVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
		}, roundTrip(pub.DecodeClientPayload, pub.EncodeClientPayload)},
		{"prover-output", [][]byte{pub.EncodeProverOutput(tr.Outputs[0])},
			roundTrip(pub.DecodeProverOutput, pub.EncodeProverOutput)},
		{"client-submission", [][]byte{pub.EncodeClientSubmission(subs[2])},
			roundTrip(pub.DecodeClientSubmission, pub.EncodeClientSubmission)},
		// Hostile counts (huge, just over MaxBatchClients), an empty batch and
		// a foreign version byte beside the valid frame.
		{"submission-batch", [][]byte{
			pub.EncodeSubmissionBatch(subs), pub.EncodeSubmissionBatch(nil),
			{WireVersion, 0xff, 0xff, 0xff, 0xff}, {WireVersion, 0, 0, 0x10, 0x01},
			append([]byte{WireVersion + 1}, pub.EncodeSubmissionBatch(subs[:1])[1:]...),
		}, func(t testing.TB, b []byte) ([]byte, error) {
			subs, err := pub.DecodeSubmissionBatch(b)
			if len(subs) > MaxBatchClients {
				t.Fatalf("accepted %d submissions, above the %d limit", len(subs), MaxBatchClients)
			}
			return pub.EncodeSubmissionBatch(subs), err
		}},
		{"submit-payload", [][]byte{submit}, func(_ testing.TB, b []byte) ([]byte, error) {
			sub, err := pub.DecodeSubmitPayload(b)
			if err != nil {
				return nil, err
			}
			return pub.EncodeSubmitPayload(sub)
		}},
		{"coin-commit-msg", [][]byte{pub.EncodeCoinCommitMsg(tr.CoinMsgs[1])},
			roundTrip(pub.DecodeCoinCommitMsg, pub.EncodeCoinCommitMsg)},
		{"morra-record", [][]byte{pub.EncodeMorraRecord(tr.Morra[0])},
			roundTrip(pub.DecodeMorraRecord, pub.EncodeMorraRecord)},
		{"batch-verdicts", [][]byte{
			EncodeBatchVerdicts([]BatchVerdict{{ID: 3, Accepted: true}, {ID: -1, Reason: "duplicate"}}),
		}, roundTrip(DecodeBatchVerdicts, EncodeBatchVerdicts)},
		{"verdict", [][]byte{
			encodeVerdict(4, nil, true), encodeVerdict(5, fmt.Errorf("%w: bad proof", ErrClientReject), false),
			encodeVerdict(6, ErrClientReject, true),
		}, func(_ testing.TB, b []byte) ([]byte, error) {
			id, reject, onBoard, err := decodeVerdict(b)
			return encodeVerdict(id, reject, onBoard), err
		}},
		{"withdraw", [][]byte{encodeWithdraw(77)}, func(_ testing.TB, b []byte) ([]byte, error) {
			id, err := decodeWithdraw(b)
			return encodeWithdraw(id), err
		}},
		{"seal-chunk", [][]byte{encodeSealChunk(1, 3, []byte("piece"))}, func(_ testing.TB, b []byte) ([]byte, error) {
			index, total, piece, err := decodeSealChunk(b)
			return encodeSealChunk(index, total, piece), err
		}},
		// Each digest-carrying record is also seeded with a 31-byte digest.
		{"snapshot", [][]byte{
			encodeSnapshot(0, digest), encodeSnapshot(1<<20, digest), encodeSnapshot(3, digest)[:7],
			encodeSnapshot(2, digest[:31]),
		}, func(t testing.TB, b []byte) ([]byte, error) {
			epoch, d, err := decodeSnapshot(b)
			digestSized(t, d, err)
			return encodeSnapshot(epoch, d), err
		}},
		{"merged-seal", [][]byte{
			encodeMergedSeal(4, digest), encodeMergedSeal(4, digest[:31]),
		}, func(t testing.TB, b []byte) ([]byte, error) {
			shards, d, err := decodeMergedSeal(b)
			digestSized(t, d, err)
			return encodeMergedSeal(shards, d), err
		}},
		{"budget-charge", [][]byte{
			encodeBudgetCharge(7, 2, 1_000_000, 3_000_000, ledgerGenesis()),
			encodeBudgetCharge(1, 1, 2, 2, ledgerGenesis())[:11],
			encodeBudgetCharge(1, 1, 2, 2, digest[:31]),
		}, func(t testing.TB, b []byte) ([]byte, error) {
			id, epoch, amount, cum, prev, err := decodeBudgetCharge(b)
			digestSized(t, prev, err)
			return encodeBudgetCharge(id, epoch, amount, cum, prev), err
		}},
		{"sketch-query", [][]byte{
			EncodeSketchQuery(&SketchQuery{Kind: SketchQueryPoint, Arg: 7}),
			EncodeSketchQuery(&SketchQuery{Kind: SketchQueryTopK, Arg: 0}),
		}, roundTrip(DecodeSketchQuery, EncodeSketchQuery)},
		// NaN estimates re-encode bit-exactly: the round trip compares bytes.
		{"item-estimates", [][]byte{
			EncodeItemEstimates([]ItemEstimate{{Item: 5, Estimate: 12.5, Bound: 3.25}}),
			{WireVersion, 0, 0, 0, 2, 0, 0, 0, 1},
		}, roundTrip(DecodeItemEstimates, EncodeItemEstimates)},
	}
}

// FuzzWire drives every message codec from one target: the first byte picks
// the codec, the rest is its input. Whatever a decoder accepts must re-encode
// to exactly the input bytes — the encodings are canonical, so an accepted
// non-canonical input (a flag byte of 2, a stray bit, a reason on an
// acceptance) is a decoder bug — and keep the decoder's bounds: SHA-256 sized
// digests, at most MaxBatchClients submissions a batch.
func FuzzWire(f *testing.F) {
	pub, err := Setup(Config{Provers: 2, Bins: 2, Coins: 4})
	if err != nil {
		f.Fatal(err)
	}
	codecs := wireCodecs(f, pub)
	for i, c := range codecs {
		for _, seed := range c.seeds {
			f.Add(append([]byte{byte(i)}, seed...))
			f.Add(append([]byte{byte(i)}, seed[:len(seed)/2]...))
		}
		f.Add([]byte{byte(i)})
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		c := codecs[int(b[0])%len(codecs)]
		again, err := c.roundTrip(t, b[1:])
		if err == nil && !bytes.Equal(again, b[1:]) {
			t.Fatalf("%s: accepted input is not canonical: %x re-encodes to %x", c.name, b[1:], again)
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
