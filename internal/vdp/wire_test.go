package vdp

import (
	"fmt"
	"testing"

	"repro/internal/field"
)

func wireTestPublic(t *testing.T, k, m int) *Public {
	t.Helper()
	pub, err := Setup(Config{Provers: k, Bins: m, Coins: 8})
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

func TestClientPublicWireRoundTrip(t *testing.T) {
	for _, tc := range []struct{ k, m, choice int }{
		{1, 1, 1}, {2, 1, 0}, {2, 3, 2}, {3, 4, 0},
	} {
		pub := wireTestPublic(t, tc.k, tc.m)
		sub, err := pub.NewClientSubmission(9, tc.choice, nil)
		if err != nil {
			t.Fatal(err)
		}
		enc := pub.EncodeClientPublic(sub.Public)
		back, err := pub.DecodeClientPublic(enc)
		if err != nil {
			t.Fatalf("K=%d M=%d: %v", tc.k, tc.m, err)
		}
		// The decoded submission must still pass the legality check — the
		// strongest possible round-trip assertion.
		if err := pub.VerifyClient(back); err != nil {
			t.Errorf("K=%d M=%d: decoded submission fails verification: %v", tc.k, tc.m, err)
		}
		if back.ID != 9 {
			t.Errorf("ID round trip: %d", back.ID)
		}
	}
}

func TestClientPublicWireRejectsGarbage(t *testing.T) {
	pub := wireTestPublic(t, 2, 1)
	sub, err := pub.NewClientSubmission(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := pub.EncodeClientPublic(sub.Public)
	if _, err := pub.DecodeClientPublic(enc[:len(enc)/2]); err == nil {
		t.Error("truncated encoding accepted")
	}
	if _, err := pub.DecodeClientPublic(append(enc, 0xff)); err == nil {
		t.Error("padded encoding accepted")
	}
	// Corrupt a commitment byte: must fail group decoding or verification.
	bad := append([]byte{}, enc...)
	bad[12] ^= 0xff
	if back, err := pub.DecodeClientPublic(bad); err == nil {
		if err := pub.VerifyClient(back); err == nil {
			t.Error("corrupted submission decoded AND verified")
		}
	}
	// Absurd dimension claims are bounded.
	huge := []byte{WireVersion, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}
	if _, err := pub.DecodeClientPublic(huge); err == nil {
		t.Error("absurd bin count accepted")
	}
}

// TestWireVersionNegotiation: every encoding leads with the format version;
// decoders reject unknown versions instead of misparsing, and the error
// names both versions so operators can diagnose mixed deployments.
func TestWireVersionNegotiation(t *testing.T) {
	pub := wireTestPublic(t, 2, 1)
	sub, err := pub.NewClientSubmission(3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := &ProverOutput{Prover: 0, Y: []*field.Element{pub.Field().FromInt64(4)}, Z: []*field.Element{pub.Field().FromInt64(5)}}
	encodings := map[string][]byte{
		"client-public":  pub.EncodeClientPublic(sub.Public),
		"client-payload": pub.EncodeClientPayload(sub.Payloads[0]),
		"prover-output":  pub.EncodeProverOutput(out),
	}
	decode := map[string]func([]byte) error{
		"client-public":  func(b []byte) error { _, err := pub.DecodeClientPublic(b); return err },
		"client-payload": func(b []byte) error { _, err := pub.DecodeClientPayload(b); return err },
		"prover-output":  func(b []byte) error { _, err := pub.DecodeProverOutput(b); return err },
	}
	for name, enc := range encodings {
		if enc[0] != WireVersion {
			t.Errorf("%s: leading byte %d, want version %d", name, enc[0], WireVersion)
		}
		if err := decode[name](enc); err != nil {
			t.Errorf("%s: current version rejected: %v", name, err)
		}
		for _, v := range []byte{0, WireVersion + 1, 0xff} {
			bad := append([]byte{v}, enc[1:]...)
			if err := decode[name](bad); err == nil {
				t.Errorf("%s: unknown version %d accepted", name, v)
			}
		}
		if err := decode[name](nil); err == nil {
			t.Errorf("%s: empty encoding accepted", name)
		}
	}
}

// TestDecodersRefuseNonCanonicalFlags: every flag on the wire is 0 or 1 and
// nothing else, and agrees with the field it governs. Each row rewrites one
// byte of a valid encoding so that a lax decoder would still read it — so the
// input would decode yet not re-encode to itself — and the decoder must
// refuse it.
func TestDecodersRefuseNonCanonicalFlags(t *testing.T) {
	pub := wireTestPublic(t, 2, 3) // one-hot: the bit-proof section is absent
	sub, err := pub.NewClientSubmission(5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	public := pub.EncodeClientPublic(sub.Public)
	// ... | u32 bit-proof count | u32 one-hot length | one-hot proof
	bitProofFlag := len(public) - len(sub.Public.OneHotProof.Encode(pub.pp)) - 5
	// version | u32 id | accepted | on-board | u32 reason length | reason
	verdict := encodeVerdict(4, nil, true)
	rejectErr := fmt.Errorf("%w: bad proof", ErrClientReject)
	rejection := encodeVerdict(4, rejectErr, false)
	reason := len(rejection) - len(rejectErr.Error())
	verdicts := EncodeBatchVerdicts([]BatchVerdict{{ID: 3, Accepted: true}})
	decodeVerdictErr := func(b []byte) error {
		_, _, _, err := decodeVerdict(b)
		return err
	}
	for _, tc := range []struct {
		name   string
		enc    []byte
		at     int
		to     byte
		decode func([]byte) error
	}{
		{"client public: bit-proof flag 2", public, bitProofFlag, 2, func(b []byte) error {
			_, err := pub.DecodeClientPublic(b)
			return err
		}},
		{"batch verdict: accepted 2", verdicts, 9, 2, func(b []byte) error {
			_, err := DecodeBatchVerdicts(b)
			return err
		}},
		{"verdict record: accepted 7", verdict, 5, 7, decodeVerdictErr},
		{"verdict record: on-board 9", verdict, 6, 9, decodeVerdictErr},
		// A rejection encodeVerdict writes always carries a reason ...
		{"verdict record: rejection with no reason", verdict, 5, 0, decodeVerdictErr},
		// ... an acceptance never does ...
		{"verdict record: acceptance with a reason", rejection, 5, 1, decodeVerdictErr},
		// ... and the reason is ErrClientReject's text ("vdp: ...").
		{"verdict record: reason without the rejection prefix", rejection, reason, 'V', decodeVerdictErr},
	} {
		if err := tc.decode(tc.enc); err != nil {
			t.Fatalf("%s: the valid encoding fails: %v", tc.name, err)
		}
		bad := append([]byte(nil), tc.enc...)
		if bad[tc.at] == tc.to {
			t.Fatalf("%s: byte %d is already %d", tc.name, tc.at, tc.to)
		}
		bad[tc.at] = tc.to
		if err := tc.decode(bad); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestClientPayloadWireRoundTrip(t *testing.T) {
	pub := wireTestPublic(t, 2, 3)
	sub, err := pub.NewClientSubmission(4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range sub.Payloads {
		enc := pub.EncodeClientPayload(pl)
		back, err := pub.DecodeClientPayload(enc)
		if err != nil {
			t.Fatal(err)
		}
		if back.ClientID != pl.ClientID || back.Prover != pl.Prover || len(back.Openings) != len(pl.Openings) {
			t.Errorf("payload metadata mismatch")
		}
		for j := range pl.Openings {
			if !back.Openings[j].X.Equal(pl.Openings[j].X) || !back.Openings[j].R.Equal(pl.Openings[j].R) {
				t.Errorf("opening %d mismatch", j)
			}
		}
		// Decoded payload must be accepted by the target prover.
		pr, err := NewProver(pub, pl.Prover)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.AcceptClient(sub.Public, back); err != nil {
			t.Errorf("prover %d rejected decoded payload: %v", pl.Prover, err)
		}
	}
}

func TestClientPayloadWireRejectsGarbage(t *testing.T) {
	pub := wireTestPublic(t, 1, 1)
	sub, err := pub.NewClientSubmission(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := pub.EncodeClientPayload(sub.Payloads[0])
	if _, err := pub.DecodeClientPayload(enc[:len(enc)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := pub.DecodeClientPayload([]byte{WireVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("absurd opening count accepted")
	}
}

func TestProverOutputWireRoundTrip(t *testing.T) {
	pub := wireTestPublic(t, 2, 2)
	f := pub.Field()
	out := &ProverOutput{
		Prover: 1,
		Y:      []*field.Element{f.FromInt64(10), f.FromInt64(20)},
		Z:      []*field.Element{f.MustRand(nil), f.MustRand(nil)},
	}
	enc := pub.EncodeProverOutput(out)
	back, err := pub.DecodeProverOutput(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Prover != 1 || len(back.Y) != 2 {
		t.Fatalf("metadata mismatch: %+v", back)
	}
	for j := range out.Y {
		if !back.Y[j].Equal(out.Y[j]) || !back.Z[j].Equal(out.Z[j]) {
			t.Errorf("bin %d mismatch", j)
		}
	}
	if _, err := pub.DecodeProverOutput(enc[:5]); err == nil {
		t.Error("truncated output accepted")
	}
}
