package vdp

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// wirelogFixture produces one real protocol run's worth of material for the
// board-log encoders: a full submission and a complete sealed transcript
// (clients, coin messages with Σ-OR proofs, Morra records, outputs,
// release) from the MPC histogram deployment.
func wirelogFixture(t *testing.T) (*Public, *ClientSubmission, *Transcript) {
	t.Helper()
	pub := testPublic(t, 2, 2, 4)
	sub, err := pub.NewClientSubmission(9, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(pub, []int{0, 1, 1, 0}, &RunOptions{Rand: testSeed(3), Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	return pub, sub, res.Transcript
}

// TestWirelogRoundTripByteIdentical is the encoder-stability property for
// every wirelog.go encoding: encode → decode → encode must reproduce the
// exact bytes. Byte identity (not mere semantic equality) is what the
// durability layer leans on — recovered sessions and offline auditors
// compare encodings, so a lossy or re-orderable codec would make honest
// logs fail their own cross-checks.
func TestWirelogRoundTripByteIdentical(t *testing.T) {
	pub, sub, tr := wirelogFixture(t)

	roundTrips := []struct {
		name  string
		first []byte
		again func(b []byte) ([]byte, error)
	}{
		{"client-submission", pub.EncodeClientSubmission(sub), func(b []byte) ([]byte, error) {
			dec, err := pub.DecodeClientSubmission(b)
			if err != nil {
				return nil, err
			}
			return pub.EncodeClientSubmission(dec), nil
		}},
		{"coin-commit-msg", pub.EncodeCoinCommitMsg(tr.CoinMsgs[1]), func(b []byte) ([]byte, error) {
			dec, err := pub.DecodeCoinCommitMsg(b)
			if err != nil {
				return nil, err
			}
			return pub.EncodeCoinCommitMsg(dec), nil
		}},
		{"morra-record", pub.EncodeMorraRecord(tr.Morra[0]), func(b []byte) ([]byte, error) {
			dec, err := pub.DecodeMorraRecord(b)
			if err != nil {
				return nil, err
			}
			return pub.EncodeMorraRecord(dec), nil
		}},
		{"transcript", pub.EncodeTranscript(tr), func(b []byte) ([]byte, error) {
			dec, err := pub.DecodeTranscript(b)
			if err != nil {
				return nil, err
			}
			return pub.EncodeTranscript(dec), nil
		}},
	}
	for _, rt := range roundTrips {
		again, err := rt.again(rt.first)
		if err != nil {
			t.Errorf("%s: decode of own encoding failed: %v", rt.name, err)
			continue
		}
		if !bytes.Equal(rt.first, again) {
			t.Errorf("%s: encode→decode→encode is not byte-identical (%d vs %d bytes)",
				rt.name, len(rt.first), len(again))
		}
	}

	// A decoded transcript must also still digest identically — the digest
	// is how recovered epochs prove they reproduced the board exactly.
	dec, err := pub.DecodeTranscript(pub.EncodeTranscript(tr))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(TranscriptDigest(pub, tr), TranscriptDigest(pub, dec)) {
		t.Error("transcript digest changed across an encode/decode round trip")
	}
}

// TestRecordBodyRoundTrips covers the board-log record bodies that ride
// inside store records: verdicts, withdrawals, seal chunks, and the
// manifest's merged seal.
func TestRecordBodyRoundTrips(t *testing.T) {
	rejectErr := fmt.Errorf("%w: client 7 equivocated", ErrClientReject)
	verdicts := []struct {
		id      int
		reject  error
		onBoard bool
	}{
		{7, rejectErr, true},
		{8, nil, true},
		{9, rejectErr, false},
	}
	for _, v := range verdicts {
		enc := encodeVerdict(v.id, v.reject, v.onBoard)
		id, reject, onBoard, err := decodeVerdict(enc)
		if err != nil {
			t.Fatalf("verdict decode: %v", err)
		}
		if id != v.id || onBoard != v.onBoard || (reject == nil) != (v.reject == nil) {
			t.Errorf("verdict round trip: got (%d, %v, %v), want (%d, %v, %v)",
				id, reject, onBoard, v.id, v.reject, v.onBoard)
		}
		if reject != nil && !errors.Is(reject, ErrClientReject) {
			t.Errorf("rehydrated verdict lost its sentinel: %v", reject)
		}
		if again := encodeVerdict(id, reject, onBoard); !bytes.Equal(enc, again) {
			t.Errorf("verdict encode→decode→encode not byte-identical")
		}
	}

	wEnc := encodeWithdraw(123)
	id, err := decodeWithdraw(wEnc)
	if err != nil || id != 123 {
		t.Errorf("withdraw round trip: (%d, %v)", id, err)
	}
	if again := encodeWithdraw(id); !bytes.Equal(wEnc, again) {
		t.Error("withdraw encode→decode→encode not byte-identical")
	}

	cEnc := encodeSealChunk(2, 5, []byte("piece"))
	index, total, piece, err := decodeSealChunk(cEnc)
	if err != nil || index != 2 || total != 5 || string(piece) != "piece" {
		t.Errorf("seal chunk round trip: (%d, %d, %q, %v)", index, total, piece, err)
	}
	if again := encodeSealChunk(index, total, piece); !bytes.Equal(cEnc, again) {
		t.Error("seal chunk encode→decode→encode not byte-identical")
	}

	digest := bytes.Repeat([]byte{0xab}, 32)
	mEnc := encodeMergedSeal(4, digest)
	shards, got, err := decodeMergedSeal(mEnc)
	if err != nil || shards != 4 || !bytes.Equal(got, digest) {
		t.Errorf("merged seal round trip: (%d, %x, %v)", shards, got, err)
	}
	if again := encodeMergedSeal(shards, got); !bytes.Equal(mEnc, again) {
		t.Error("merged seal encode→decode→encode not byte-identical")
	}
	if _, _, err := decodeMergedSeal(encodeMergedSeal(4, []byte("short"))); err == nil {
		t.Error("merged seal with a truncated digest accepted")
	}
}

// TestWireVersionRejectionMessages pins the exact message every decoder in
// the board-log family emits for an unknown format version. Operators and
// tests match on this string when diagnosing mixed-version deployments, so
// it is part of the compatibility contract: changing it is an API break
// this regression test makes deliberate.
func TestWireVersionRejectionMessages(t *testing.T) {
	pub, sub, tr := wirelogFixture(t)
	const wantVersion = WireVersion + 8
	want := fmt.Sprintf("vdp: unsupported wire format version %d (this build speaks %d)", wantVersion, WireVersion)

	decoders := []struct {
		name   string
		enc    []byte
		decode func(b []byte) error
	}{
		{"client-submission", pub.EncodeClientSubmission(sub), func(b []byte) error {
			_, err := pub.DecodeClientSubmission(b)
			return err
		}},
		{"coin-commit-msg", pub.EncodeCoinCommitMsg(tr.CoinMsgs[0]), func(b []byte) error {
			_, err := pub.DecodeCoinCommitMsg(b)
			return err
		}},
		{"morra-record", pub.EncodeMorraRecord(tr.Morra[0]), func(b []byte) error {
			_, err := pub.DecodeMorraRecord(b)
			return err
		}},
		{"transcript", pub.EncodeTranscript(tr), func(b []byte) error {
			_, err := pub.DecodeTranscript(b)
			return err
		}},
		{"client-public", pub.EncodeClientPublic(sub.Public), func(b []byte) error {
			_, err := pub.DecodeClientPublic(b)
			return err
		}},
		{"client-payload", pub.EncodeClientPayload(sub.Payloads[0]), func(b []byte) error {
			_, err := pub.DecodeClientPayload(b)
			return err
		}},
		{"prover-output", pub.EncodeProverOutput(tr.Outputs[0]), func(b []byte) error {
			_, err := pub.DecodeProverOutput(b)
			return err
		}},
		{"verdict", encodeVerdict(1, nil, true), func(b []byte) error {
			_, _, _, err := decodeVerdict(b)
			return err
		}},
		{"withdraw", encodeWithdraw(1), func(b []byte) error {
			_, err := decodeWithdraw(b)
			return err
		}},
		{"seal-chunk", encodeSealChunk(0, 1, []byte("p")), func(b []byte) error {
			_, _, _, err := decodeSealChunk(b)
			return err
		}},
		{"merged-seal", encodeMergedSeal(2, make([]byte, 32)), func(b []byte) error {
			_, _, err := decodeMergedSeal(b)
			return err
		}},
	}
	for _, d := range decoders {
		if d.enc[0] != WireVersion {
			t.Errorf("%s: leading byte %d, want current version %d", d.name, d.enc[0], WireVersion)
			continue
		}
		bumped := append([]byte{wantVersion}, d.enc[1:]...)
		err := d.decode(bumped)
		if err == nil {
			t.Errorf("%s: future version %d accepted", d.name, wantVersion)
			continue
		}
		if err.Error() != want {
			t.Errorf("%s: version rejection message drifted:\n  got:  %q\n  want: %q", d.name, err, want)
		}
	}
}

// TestHostileCountsAllocateWithTheInput: a count the bytes behind it cannot
// carry, at the encoded width of each element it counts, is refused before it
// sizes a slice, and a Morra decode stops at its first bad entry. Each input
// is 64 KiB of 0xff behind a count claiming one element per byte (or, for the
// Morra rows, one entry per 8 bytes, which fits but fails at the first
// entry); at one byte an element these cost 0.5 to 3 MiB.
func TestHostileCountsAllocateWithTheInput(t *testing.T) {
	pub := testPublic(t, 2, 2, 4)
	const n = 1 << 16
	hostile := func(counts ...uint32) []byte {
		b := []byte{WireVersion, 0, 0, 0, 0} // version | u32 prover
		for _, c := range counts {
			b = append(b, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
		}
		return append(b, bytes.Repeat([]byte{0xff}, n)...)
	}
	coin := func(b []byte) error { _, err := pub.DecodeCoinCommitMsg(b); return err }
	morra := func(b []byte) error { _, err := pub.DecodeMorraRecord(b); return err }
	for _, tc := range []struct {
		name   string
		in     []byte
		decode func([]byte) error
	}{
		{"coin bins", hostile(n), coin},
		{"coins in a bin", hostile(1, n), coin},
		{"morra commits", hostile(n / 8), morra},
		{"morra reveals", hostile(0, n/8), morra},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(tc.in)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if a := after.TotalAlloc - before.TotalAlloc; a > 2*uint64(len(tc.in)) {
			t.Errorf("%s: a %d-byte input allocated %d bytes", tc.name, len(tc.in), a)
		}
	}
}
