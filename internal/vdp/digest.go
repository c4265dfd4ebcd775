package vdp

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
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
// has already taken.
func digestProverSection(h hash.Hash, pub *Public, t *Transcript) []byte {
	writeU32(h, uint32(len(t.CoinMsgs)))
	for _, msg := range t.CoinMsgs {
		digestCoinMsg(h, pub, msg)
	}
	writeU32(h, uint32(len(t.Morra)))
	for _, rec := range t.Morra {
		digestMorra(h, pub, rec)
	}
	writeU32(h, uint32(len(t.Outputs)))
	for _, out := range t.Outputs {
		chunk(h, pub.EncodeProverOutput(out))
	}
	if t.Release != nil {
		writeU32(h, uint32(len(t.Release.Raw)))
		for _, raw := range t.Release.Raw {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(raw))
			h.Write(b[:])
		}
	}
	return h.Sum(nil)
}

func digestCoinMsg(h hash.Hash, pub *Public, msg *CoinCommitMsg) {
	writeU32(h, uint32(msg.Prover))
	writeU32(h, uint32(len(msg.Commitments)))
	for j := range msg.Commitments {
		writeU32(h, uint32(len(msg.Commitments[j])))
		for l := range msg.Commitments[j] {
			h.Write(msg.Commitments[j][l].Bytes())
			h.Write(msg.Proofs[j][l].Encode(pub.pp))
		}
	}
}

func digestMorra(h hash.Hash, pub *Public, rec *MorraRecord) {
	writeU32(h, uint32(rec.Prover))
	writeU32(h, uint32(len(rec.Commits)))
	for _, cm := range rec.Commits {
		writeU32(h, uint32(cm.Party))
		writeU32(h, uint32(len(cm.Commitments)))
		for _, c := range cm.Commitments {
			h.Write(c.Bytes())
		}
	}
	writeU32(h, uint32(len(rec.Reveals)))
	for _, rv := range rec.Reveals {
		writeU32(h, uint32(rv.Party))
		writeU32(h, uint32(len(rv.Openings)))
		for _, o := range rv.Openings {
			h.Write(o.X.Bytes())
			h.Write(o.R.Bytes())
		}
	}
}

// chunk writes a length-prefixed byte string, keeping the digest injective
// over variable-width encodings.
func chunk(h hash.Hash, b []byte) {
	writeU32(h, uint32(len(b)))
	h.Write(b)
}

func writeU32(h hash.Hash, v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	h.Write(b[:])
}
