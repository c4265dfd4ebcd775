package vdp

import (
	"crypto/sha256"
	"hash"

	"repro/internal/wire"
)

// TranscriptDigest returns a SHA-256 digest of the complete public
// transcript under canonical encodings: client submissions, coin commitment
// messages with their Σ-OR proofs, Morra commit/reveal records, prover
// outputs, and the release. Two transcripts digest equal iff every
// bulletin-board byte matches, which is how the determinism guarantee of
// the execution engine — same seed ⇒ identical transcript at any worker
// count — is stated and tested.
func TranscriptDigest(pub *Public, t *Transcript) []byte {
	h := sha256.New()
	if t == nil {
		return h.Sum(nil)
	}
	writeU32(h, uint32(len(t.Clients)))
	for _, cp := range t.Clients {
		chunk(h, pub.EncodeClientPublic(cp))
	}
	return digestProverSection(h, pub, t)
}

// sealDigest is TranscriptDigest over decodeProverSection's output: the
// client section is hashed from its raw blocks, each exactly what
// EncodeClientPublic writes for its decode (the encodings are canonical).
func sealDigest(pub *Public, clients [][]byte, t *Transcript) []byte {
	h := sha256.New()
	writeU32(h, uint32(len(clients)))
	for _, raw := range clients {
		chunk(h, raw)
	}
	return digestProverSection(h, pub, t)
}

// transcriptDigestFromBytes is TranscriptDigest of an encoded transcript,
// decoding no client. Snapshot validation uses it so pinning an epoch's
// digest never costs a client decode.
func transcriptDigestFromBytes(pub *Public, seal []byte) ([]byte, error) {
	clients, t, err := pub.decodeProverSection(seal)
	if err != nil {
		return nil, err
	}
	return sealDigest(pub, clients, t), nil
}

// digestProverSection finishes a transcript digest whose client section h
// has already taken. Coin messages and Morra records are hashed as their
// codec writes them, minus the version byte; prover outputs whole and
// length-prefixed; the release as the transcript encoding carries it, when
// there is one.
func digestProverSection(h hash.Hash, pub *Public, t *Transcript) []byte {
	var w wire.Writer // one scratch buffer for every message's encoding
	writeU32(h, uint32(len(t.CoinMsgs)))
	for _, msg := range t.CoinMsgs {
		w = wire.NewWriter(w.Bytes()[:0])
		pub.putCoinCommitMsg(&w, msg)
		h.Write(w.Bytes()[1:])
	}
	writeU32(h, uint32(len(t.Morra)))
	for _, rec := range t.Morra {
		w = wire.NewWriter(w.Bytes()[:0])
		pub.putMorraRecord(&w, rec)
		h.Write(w.Bytes()[1:])
	}
	writeU32(h, uint32(len(t.Outputs)))
	for _, out := range t.Outputs {
		chunk(h, pub.EncodeProverOutput(out))
	}
	if t.Release != nil {
		w = wire.NewWriter(w.Bytes()[:0])
		putRelease(&w, t.Release)
		h.Write(w.Bytes())
	}
	return h.Sum(nil)
}

// chunk writes a length-prefixed byte string, keeping the digest injective
// over variable-width encodings.
func chunk(h hash.Hash, b []byte) {
	writeU32(h, uint32(len(b)))
	h.Write(b)
}

func writeU32(h hash.Hash, v uint32) {
	var w wire.Writer
	w.U32(v)
	h.Write(w.Bytes())
}
