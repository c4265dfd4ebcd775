package vdp

import (
	"bytes"
	"context"
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/group"
	"repro/internal/sigma"
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
	digest := bytes.Repeat([]byte{0xab}, 32)
	var arrivals, badMembers [][]byte
	damaged := make(map[string]bool) // records with a broken hint section
	for _, sub := range subs[:2] {
		rows := arrivalSeeds(pub, sub)
		arrivals = append(arrivals, rows...)
		for _, row := range rows[2:] {
			damaged[string(row)] = true
			// A frame whose second member is the damaged record.
			badMembers = append(badMembers, EncodeRawSubmissionBatch([][]byte{rows[0], row}))
		}
	}
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
		// A record is also a "submit" frame body and the board's arrival
		// record: seeded are its hinted and v1 forms, the hinted form with a
		// damaged hint section (which must be refused outright), the retired
		// prover-0-only body and a short one.
		{"client-submission", append(arrivals, oldSubmitBody(pub, subs[1]), []byte{0, 0}),
			func(t testing.TB, b []byte) ([]byte, error) {
				sub, err := pub.DecodeClientSubmission(b)
				if err != nil {
					return nil, err
				}
				if damaged[string(b)] {
					t.Fatalf("client-submission: damaged hint section accepted: %x", b)
				}
				return sameVersion(pub, b, sub), nil
			}},
		// Hostile counts (huge, just over MaxBatchClients), an empty batch, a
		// foreign version byte and members with a damaged hint section beside
		// the valid frame.
		{"submission-batch", append([][]byte{
			pub.EncodeSubmissionBatch(subs), pub.EncodeSubmissionBatch(nil),
			{WireVersion, 0xff, 0xff, 0xff, 0xff}, {WireVersion, 0, 0, 0x10, 0x01},
			append([]byte{WireVersion + 1}, pub.EncodeSubmissionBatch(subs[:1])[1:]...),
		}, badMembers...), func(t testing.TB, b []byte) ([]byte, error) {
			subs, err := pub.DecodeSubmissionBatch(b)
			if len(subs) > MaxBatchClients {
				t.Fatalf("accepted %d submissions, above the %d limit", len(subs), MaxBatchClients)
			}
			if err != nil {
				return nil, err
			}
			recs, err := SplitSubmissionBatch(b)
			if err != nil {
				t.Fatalf("submission-batch: accepted a frame the router cannot split: %v", err)
			}
			for i, rec := range recs {
				if damaged[string(rec)] {
					t.Fatalf("submission-batch: member %d's damaged hint section accepted: %x", i, rec)
				}
				recs[i] = sameVersion(pub, rec, subs[i])
			}
			return EncodeRawSubmissionBatch(recs), nil
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

// sameVersion re-encodes sub, decoded from b, in b's own version: the
// client's bytes alone (v1), or with the hint section.
func sameVersion(pub *Public, b []byte, sub *ClientSubmission) []byte {
	if _, hints := splitArrival(b); len(hints) == 0 {
		return encodeV1(pub, sub)
	}
	return pub.EncodeClientSubmission(sub)
}

// arrivalSeeds are sub's arrival records, v2 and v1, and the v2 record with
// its hint section damaged: the first hint ≥ p (p itself and 2²⁵⁶ − 1), the
// first hint the other root of its x (wrong parity), the section cut by a
// byte and by a whole hint, a trailing byte and a trailing hint, and the
// first two hints swapped.
func arrivalSeeds(pub *Public, sub *ClientSubmission) [][]byte {
	rec := pub.EncodeClientSubmission(sub)
	client, hints := splitArrival(rec)
	first := func(y *big.Int) []byte {
		out := bytes.Clone(rec)
		y.FillBytes(out[len(client) : len(client)+32])
		return out
	}
	p := elliptic.P256().Params().P
	y := new(big.Int).SetBytes(hints[:32])
	swapped := bytes.Clone(rec)
	copy(swapped[len(client):], hints[32:64])
	copy(swapped[len(client)+32:], hints[:32])
	return [][]byte{
		rec, client,
		first(p), first(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))),
		first(new(big.Int).Sub(p, y)),
		rec[:len(rec)-1], rec[:len(rec)-32],
		append(bytes.Clone(rec), 0), append(bytes.Clone(rec), hints[:32]...),
		swapped,
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
func sealedTranscript(f testing.TB, pub *Public, chunked bool) []byte {
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

// sectionTamper is a seal whose prover section holds an undecodable group
// element, with the error every parse of it must return.
type sectionTamper struct {
	name string
	seal []byte
	want string
}

// proverSectionTampers derives from an honest version-2 seal: an off-curve
// commitment in the last coin of bin 0; an off-curve Morra commitment; and,
// with more than one bin, the first again with the last bin's count claiming
// a coin more than the message carries — a structural error later in the
// stream, which must not win over the earlier point. Each comes as a
// version-1 seal (the body alone), which must fail with the point's own
// decode error, and as the version-2 seal ("hinted-"), which must fail with
// its hint's refusal — except the one whose structure fails, which has no
// hint section a reader could find and fails as version 1 does.
func proverSectionTampers(t testing.TB, pub *Public, seal []byte) []sectionTamper {
	t.Helper()
	tr, err := pub.DecodeTranscript(seal)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := sealParts(seal)
	elemLen := pub.pp.Group().ElementLen()
	var offCurve []byte // the smallest x with no point on the curve
	var pointErr error
	for x := byte(1); pointErr == nil; x++ {
		offCurve = make([]byte, elemLen)
		offCurve[0], offCurve[elemLen-1] = 2, x
		_, pointErr = pub.pp.DecodeCommitmentWith(pub.pp.Group(), offCurve)
	}
	// An off-curve x has no y, so whatever hint the seal holds for it is
	// refused the same way.
	_, hintErr := pub.pp.DecodeCommitmentWith(&group.Hinted{G: pub.pp.Group(), Hints: make([]byte, 32)}, offCurve)
	patched := func(at int, b []byte) []byte {
		out := bytes.Clone(seal)
		copy(out[at:], b)
		return out
	}
	// A coin message is a version byte, a u32 prover and a u32 bin count,
	// then per bin a u32 coin count and the coins; a Morra record a version
	// byte, a u32 prover, a u32 commit count, then per commit a u32 party, a
	// u32 count and the commitments.
	msg := tr.CoinMsgs[0]
	coins := bytes.Index(seal, pub.EncodeCoinCommitMsg(msg))
	morraAt := bytes.Index(seal, pub.EncodeMorraRecord(tr.Morra[0]))
	if coins < 0 || morraAt < 0 {
		t.Fatal("the seal does not carry its first coin message and Morra record verbatim")
	}
	nb, bins := len(msg.Commitments[0]), len(msg.Commitments)
	binLen := 4 + nb*(elemLen+sigma.BitProofLen(pub.pp))
	lastCoin := coins + 9 + 4 + (nb-1)*(elemLen+sigma.BitProofLen(pub.pp))
	hinted := []sectionTamper{
		{"off-curve-coin", patched(lastCoin, offCurve), hintErr.Error()},
		{"off-curve-morra", patched(morraAt+17, offCurve), hintErr.Error()},
	}
	if bins > 1 {
		short := patched(lastCoin, offCurve)
		binary.BigEndian.PutUint32(short[coins+9+(bins-1)*binLen:], uint32(nb+1))
		hinted = append(hinted, sectionTamper{"off-curve-coin-then-short-bin", short, pointErr.Error()})
	}
	var out []sectionTamper
	for _, c := range hinted {
		out = append(out, sectionTamper{c.name, c.seal[:len(body)], pointErr.Error()})
	}
	for _, c := range hinted {
		out = append(out, sectionTamper{"hinted-" + c.name, c.seal, c.want})
	}
	return out
}

// sealHintSeeds are a version-2 seal with its hint section damaged, each of
// which every parse must refuse: the first hint the other root of its x (the
// y of the wrong parity) and p itself, the section cut by a byte and by a
// whole hint, a hint too many, and the first two hints swapped.
func sealHintSeeds(seal []byte) [][]byte {
	body, hints := sealParts(seal)
	first := func(y *big.Int) []byte {
		out := bytes.Clone(seal)
		y.FillBytes(out[len(body) : len(body)+32])
		return out
	}
	p := elliptic.P256().Params().P
	y := new(big.Int).SetBytes(hints[:32])
	swapped := bytes.Clone(seal)
	copy(swapped[len(body):], hints[32:64])
	copy(swapped[len(body)+32:], hints[:32])
	return [][]byte{
		first(new(big.Int).Sub(p, y)), first(p),
		seal[:len(seal)-1], seal[:len(seal)-32], append(bytes.Clone(seal), hints[:32]...),
		swapped,
	}
}

// TestProverSectionErrorInStreamOrder: decoding the prover section's group
// elements on a pool reports the first failure in stream order — the error
// a one-pass decoder meets — at every width, even when a structural error
// follows it.
func TestProverSectionErrorInStreamOrder(t *testing.T) {
	for _, bins := range []int{1, 16} {
		pub, err := Setup(Config{Provers: 2, Bins: bins, Coins: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range proverSectionTampers(t, pub, sealedTranscript(t, pub, false)) {
			for _, workers := range []int{1, 4} {
				if _, _, err := pub.decodeProverSection(c.seal, workers); err == nil || err.Error() != c.want {
					t.Errorf("bins %d, %s, %d workers: got %v, want %q", bins, c.name, workers, err, c.want)
				}
			}
			if _, err := pub.DecodeTranscript(c.seal); err == nil || err.Error() != c.want {
				t.Errorf("bins %d, %s: DecodeTranscript got %v, want %q", bins, c.name, err, c.want)
			}
		}
	}
}

// FuzzDecodeTranscript holds the one transcript parser to its readers: the
// full decode (DecodeTranscript) is the prover-section parse the board-log
// readers run plus a decode of every client block, so the two refuse
// exactly the same inputs except one whose client block alone does not
// decode; the prover-section parse returns the same transcript, or the same
// error, on one goroutine and on four; a seal with a damaged hint section is
// refused; and an accepted transcript digests the same from its raw client
// section as decoded, and re-encodes byte for byte in its own seal version.
func FuzzDecodeTranscript(f *testing.F) {
	// Bins 1 (a count: bit proofs) and Bins 16 (one-hot proofs); one coin a
	// bin keeps the wide seals small enough to mutate quickly.
	var pubs [2]*Public
	damaged := make(map[string]bool) // seals with a broken hint section
	for i, bins := range []int{1, 16} {
		pub, err := Setup(Config{Provers: 2, Bins: bins, Coins: 1})
		if err != nil {
			f.Fatal(err)
		}
		pubs[i] = pub
		for _, chunked := range []bool{false, true} {
			seal := sealedTranscript(f, pub, chunked)
			body, _ := sealParts(seal)
			f.Add(i == 1, seal)
			f.Add(i == 1, body)
			if !chunked {
				f.Add(i == 1, seal[:len(seal)/2])
				// The release (flag 1, bin count, a u64 per bin) flagged 2
				// instead, cut back from the body's end.
				cut := len(body) - 8 - 8*bins
				f.Add(i == 1, append(body[:cut:cut], 0, 0, 0, 2))
				for _, c := range proverSectionTampers(f, pub, seal) {
					f.Add(i == 1, c.seal)
				}
				for _, bad := range sealHintSeeds(seal) {
					damaged[string(bad)] = true
					f.Add(i == 1, bad)
				}
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
		clients, section, sectionErr := pub.decodeProverSection(b, 1)
		pooledClients, pooled, pooledErr := pub.decodeProverSection(b, 4)
		if fmt.Sprint(sectionErr) != fmt.Sprint(pooledErr) {
			t.Fatalf("the prover-section parse refuses differently on 1 goroutine (%v) and on 4 (%v)", sectionErr, pooledErr)
		}
		if sectionErr != nil {
			if fullErr == nil {
				t.Fatalf("the full decode accepted what the prover-section parse refused: %v", sectionErr)
			}
			return
		}
		if damaged[string(b)] {
			t.Fatalf("damaged hint section accepted: %x", b)
		}
		if !bytes.Equal(sealDigest(pub, clients, section), sealDigest(pub, pooledClients, pooled)) {
			t.Fatal("the prover-section parse decodes differently on 1 goroutine and on 4")
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
		enc := pub.EncodeTranscript(full)
		if _, hints := sealParts(b); len(hints) == 0 {
			enc, _ = sealParts(enc)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("accepted transcript is not canonical: %x re-encodes to %x", b, enc)
		}
	})
}

// FuzzFoldBisection: a window of 1–130 board submissions, at one bin and at
// three, each member honest or corrupted one way — a forged Z0 + 1 or a
// challenge split shifted by one from e1 to e0 (both pass the fold's scalar
// checks and fail only the equation), a split that no longer sums to e, a
// missing proof — is judged by filterValidClientsBatch, whose failed product
// is bisected (sigma.BitBatch.Narrow). Every member's verdict must be
// per-member VerifyClient's, text for text, at one worker and at two.
func FuzzFoldBisection(f *testing.F) {
	type board struct {
		pub  *Public
		pool []*ClientPublic
	}
	var boards []board
	for _, bins := range []int{1, 3} {
		pub, err := Setup(Config{Provers: 1, Bins: bins, Coins: 8})
		if err != nil {
			f.Fatal(err)
		}
		pool := make([]*ClientPublic, 130)
		for i := range pool {
			sub, err := pub.NewClientSubmission(i, i%max(bins, 2), testSeed(byte(i)))
			if err != nil {
				f.Fatal(err)
			}
			pool[i] = sub.Public
		}
		boards = append(boards, board{pub, pool})
	}
	honest := bytes.Repeat([]byte{0xf0}, 64)
	oneBad := func(at int, kind byte) []byte {
		kinds := bytes.Clone(honest)
		kinds[at] = kind
		return kinds
	}
	f.Add(byte(0), []byte{0})
	f.Add(byte(1), oneBad(37, 0x10))
	f.Add(byte(2), oneBad(0, 1))
	f.Add(byte(3), oneBad(63, 0x21))
	f.Add(byte(0), append(oneBad(5, 2), oneBad(60, 3)...))
	f.Add(byte(1), bytes.Repeat([]byte{0xf0, 0, 0xf0, 1}, 32)) // half forged: past a quarter
	// Every window member is one of a few fixed values (board, pool index,
	// corruption, bin), so each one's VerifyClient verdict is computed once
	// per process, not once per input.
	type member struct {
		board, i int
		kind     byte
		j        int
	}
	reference := make(map[member]error)
	f.Fuzz(func(t *testing.T, shape byte, kinds []byte) {
		n := min(len(kinds), 130)
		if n == 0 {
			return
		}
		b := boards[shape&1]
		workers := 1 + int(shape>>1&1)
		one := b.pub.Field().One()
		window := make([]*ClientPublic, n)
		for i := range window {
			c := *b.pool[i]
			kind, j := kinds[i]&15, int(kinds[i]>>4)%b.pub.cfg.Bins
			forge := func(p *sigma.BitProof) *sigma.BitProof {
				q := *p
				switch kind {
				case 0:
					q.Z0 = q.Z0.Add(one)
				case 1:
					q.E0, q.E1 = q.E0.Add(one), q.E1.Sub(one)
				case 2:
					q.E0 = q.E0.Add(one)
				}
				return &q
			}
			switch {
			case kind == 3:
				c.BitProof, c.OneHotProof = nil, nil
			case kind > 3:
			case c.BitProof != nil:
				c.BitProof = forge(c.BitProof)
			default:
				oh := *c.OneHotProof
				oh.Bits = append([]*sigma.BitProof{}, oh.Bits...)
				oh.Bits[j] = forge(oh.Bits[j])
				c.OneHotProof = &oh
			}
			window[i] = &c
		}
		valid, rejected, err := b.pub.filterValidClientsBatch(context.Background(), window, workers)
		if err != nil {
			t.Fatal(err)
		}
		var want []*ClientPublic
		for i, c := range window {
			key := member{int(shape & 1), i, min(kinds[i]&15, 4), int(kinds[i]>>4) % b.pub.cfg.Bins}
			v, ok := reference[key]
			if !ok {
				v = b.pub.VerifyClient(c)
				reference[key] = v
			}
			if v == nil {
				want = append(want, c)
			}
			if got := rejected[c.ID]; (got == nil) != (v == nil) || (v != nil && got.Error() != v.Error()) {
				t.Fatalf("member %d (kind %d): bisected verdict %v, VerifyClient %v", i, kinds[i]&15, got, v)
			}
		}
		if len(valid) != len(want) || len(valid)+len(rejected) != n {
			t.Fatalf("%d valid and %d rejected of %d; VerifyClient passes %d", len(valid), len(rejected), n, len(want))
		}
		for i := range valid {
			if valid[i] != want[i] {
				t.Fatalf("valid member %d is client %d, want client %d", i, valid[i].ID, want[i].ID)
			}
		}
	})
}
