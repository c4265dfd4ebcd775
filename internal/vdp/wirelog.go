package vdp

import (
	"fmt"
	"sync"

	"repro/internal/morra"
	"repro/internal/pedersen"
	"repro/internal/sigma"
)

// Wire encodings for the durable bulletin board (internal/store): whole
// client submissions and whole epoch transcripts, built from the same
// versioned primitives as the per-message encodings in wire.go. These are
// what the board log persists at Submit time and seals at Finalize time, and
// what ResumeSession and AuditLog decode back; like every encoding in this
// package they validate all components on decode, so a corrupted or hostile
// log fails to parse instead of corrupting a recovered session.

// lpBytes writes a length-prefixed byte string.
func (w *wireWriter) lpBytes(b []byte) {
	w.u32(uint32(len(b)))
	w.bytes(b)
}

// lpBytes reads a length-prefixed byte string. take bounds the read by the
// bytes actually present (and subslices rather than allocating), so a
// hostile length prefix yields a truncation error, never an allocation —
// and a legitimately large segment (a seal for a high-nb deployment) is not
// rejected by an artificial cap the encoder never enforced.
func (r *wireReader) lpBytes() []byte {
	n := r.u32()
	return r.take(int(n))
}

// wireBufPool recycles encode scratch buffers on the batch admission path,
// where one frame carries hundreds of submissions and a fresh buffer per
// record would dominate the allocation profile. Both BoardLog
// implementations copy (or re-frame) the payload inside Append, so a pooled
// buffer may be reused as soon as the append returns.
var wireBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}

// maxPooledWireBuf caps what goes back in the pool so one giant submission
// does not pin megabytes of scratch forever.
const maxPooledWireBuf = 1 << 20

func getWireBuf() *[]byte { return wireBufPool.Get().(*[]byte) }

func putWireBuf(p *[]byte) {
	if cap(*p) > maxPooledWireBuf {
		return
	}
	*p = (*p)[:0]
	wireBufPool.Put(p)
}

// EncodeClientSubmission serializes a full submission — the bulletin-board
// public part plus all K private per-prover payloads — as one record.
func (p *Public) EncodeClientSubmission(sub *ClientSubmission) []byte {
	var w wireWriter
	p.encodeClientSubmissionInto(&w, sub)
	return w.b
}

// encodeClientSubmissionInto writes the submission record encoding to an
// existing writer. The sub-encodings are emitted in place (lpMark/lpPatch
// backfill their length prefixes), so a batch of N submissions costs one
// buffer, not 3N.
func (p *Public) encodeClientSubmissionInto(w *wireWriter, sub *ClientSubmission) {
	w.version()
	mark := w.lpMark()
	p.encodeClientPublicInto(w, sub.Public)
	w.lpPatch(mark)
	w.u32(uint32(len(sub.Payloads)))
	for _, pl := range sub.Payloads {
		mark := w.lpMark()
		p.encodeClientPayloadInto(w, pl)
		w.lpPatch(mark)
	}
}

// DecodeClientSubmission parses and validates a full submission record.
func (p *Public) DecodeClientSubmission(b []byte) (*ClientSubmission, error) {
	r := wireReader{b: b}
	r.version()
	pubRaw := r.lpBytes()
	if r.err != nil {
		return nil, r.err
	}
	cp, err := p.DecodeClientPublic(pubRaw)
	if err != nil {
		return nil, err
	}
	n := r.u32()
	if r.err == nil && n > maxWireDim {
		return nil, fmt.Errorf("vdp: submission claims %d payloads", n)
	}
	sub := &ClientSubmission{Public: cp}
	for i := uint32(0); i < n && r.err == nil; i++ {
		plRaw := r.lpBytes()
		if r.err != nil {
			break
		}
		pl, err := p.DecodeClientPayload(plRaw)
		if err != nil {
			return nil, err
		}
		sub.Payloads = append(sub.Payloads, pl)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return sub, nil
}

// EncodeCoinCommitMsg serializes one prover's Lines 4-6 message: the noise
// coin commitments with their Σ-OR proofs.
func (p *Public) EncodeCoinCommitMsg(msg *CoinCommitMsg) []byte {
	var w wireWriter
	w.version()
	w.u32(uint32(msg.Prover))
	w.u32(uint32(len(msg.Commitments)))
	for j := range msg.Commitments {
		w.u32(uint32(len(msg.Commitments[j])))
		for l := range msg.Commitments[j] {
			w.bytes(msg.Commitments[j][l].Bytes())
			w.bytes(msg.Proofs[j][l].Encode(p.pp))
		}
	}
	return w.b
}

// DecodeCoinCommitMsg parses and validates a coin-commitment message.
func (p *Public) DecodeCoinCommitMsg(b []byte) (*CoinCommitMsg, error) {
	r := wireReader{b: b}
	r.version()
	msg := &CoinCommitMsg{Prover: int(r.u32())}
	bins := r.u32()
	if r.err == nil && bins > maxWireDim {
		return nil, fmt.Errorf("vdp: coin message claims %d bins", bins)
	}
	elemLen := p.pp.Group().ElementLen()
	proofLen := sigma.BitProofLen(p.pp)
	for j := uint32(0); j < bins && r.err == nil; j++ {
		nb := r.u32()
		if r.err == nil && nb > maxWireDim {
			return nil, fmt.Errorf("vdp: coin message claims %d coins", nb)
		}
		// The claimed count is hostile input: size by the bytes present.
		n := min(int(nb), len(r.b)/(elemLen+proofLen))
		comms := make([]*pedersen.Commitment, 0, n)
		proofs := make([]*sigma.BitProof, 0, n)
		for l := uint32(0); l < nb && r.err == nil; l++ {
			cRaw := r.take(elemLen)
			pRaw := r.take(proofLen)
			if r.err != nil {
				break
			}
			c, err := p.pp.DecodeCommitment(cRaw)
			if err != nil {
				return nil, fmt.Errorf("vdp: coin commitment (%d,%d): %w", j, l, err)
			}
			bp, err := sigma.DecodeBitProof(p.pp, pRaw)
			if err != nil {
				return nil, fmt.Errorf("vdp: coin proof (%d,%d): %w", j, l, err)
			}
			comms = append(comms, c)
			proofs = append(proofs, bp)
		}
		msg.Commitments = append(msg.Commitments, comms)
		msg.Proofs = append(msg.Proofs, proofs)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return msg, nil
}

// EncodeMorraRecord serializes the public commit/reveal record of one
// prover's Πmorra instance.
func (p *Public) EncodeMorraRecord(rec *MorraRecord) []byte {
	var w wireWriter
	w.version()
	w.u32(uint32(rec.Prover))
	w.u32(uint32(len(rec.Commits)))
	for _, cm := range rec.Commits {
		w.u32(uint32(cm.Party))
		w.u32(uint32(len(cm.Commitments)))
		for _, c := range cm.Commitments {
			w.bytes(c.Bytes())
		}
	}
	w.u32(uint32(len(rec.Reveals)))
	for _, rv := range rec.Reveals {
		w.u32(uint32(rv.Party))
		w.u32(uint32(len(rv.Openings)))
		for _, o := range rv.Openings {
			w.bytes(o.X.Bytes())
			w.bytes(o.R.Bytes())
		}
	}
	return w.b
}

// DecodeMorraRecord parses and validates a Morra record.
func (p *Public) DecodeMorraRecord(b []byte) (*MorraRecord, error) {
	r := wireReader{b: b}
	r.version()
	rec := &MorraRecord{Prover: int(r.u32())}
	elemLen := p.pp.Group().ElementLen()
	f := p.Field()
	fw := f.ByteLen()

	nCommits := r.u32()
	if r.err == nil && nCommits > maxWireDim {
		return nil, fmt.Errorf("vdp: morra record claims %d commit messages", nCommits)
	}
	for i := uint32(0); i < nCommits && r.err == nil; i++ {
		cm := &morra.CommitMsg{Party: int(r.u32())}
		n := r.u32()
		if r.err == nil && n > maxWireDim {
			return nil, fmt.Errorf("vdp: morra commit claims %d commitments", n)
		}
		for l := uint32(0); l < n && r.err == nil; l++ {
			raw := r.take(elemLen)
			if r.err != nil {
				break
			}
			c, err := p.pp.DecodeCommitment(raw)
			if err != nil {
				return nil, fmt.Errorf("vdp: morra commitment: %w", err)
			}
			cm.Commitments = append(cm.Commitments, c)
		}
		rec.Commits = append(rec.Commits, cm)
	}

	nReveals := r.u32()
	if r.err == nil && nReveals > maxWireDim {
		return nil, fmt.Errorf("vdp: morra record claims %d reveal messages", nReveals)
	}
	for i := uint32(0); i < nReveals && r.err == nil; i++ {
		rv := &morra.RevealMsg{Party: int(r.u32())}
		n := r.u32()
		if r.err == nil && n > maxWireDim {
			return nil, fmt.Errorf("vdp: morra reveal claims %d openings", n)
		}
		for l := uint32(0); l < n && r.err == nil; l++ {
			xRaw := r.take(fw)
			rRaw := r.take(fw)
			if r.err != nil {
				break
			}
			x, err := f.FromBytes(xRaw)
			if err != nil {
				return nil, fmt.Errorf("vdp: morra opening: %w", err)
			}
			rr, err := f.FromBytes(rRaw)
			if err != nil {
				return nil, fmt.Errorf("vdp: morra opening: %w", err)
			}
			rv.Openings = append(rv.Openings, &pedersen.Opening{X: x, R: rr})
		}
		rec.Reveals = append(rec.Reveals, rv)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return rec, nil
}

// EncodeTranscript serializes the complete public transcript of one epoch —
// the entire bulletin board — as one record: clients, coin commitments with
// proofs, Morra records, prover outputs and the release. This is the seal a
// durable session appends at Finalize, and it is sufficient input for
// offline auditing: DecodeTranscript followed by Audit re-derives every
// verifier verdict (the debiased Estimate/Stddev fields are recomputed from
// Raw, so the encoding stays canonical).
func (p *Public) EncodeTranscript(t *Transcript) []byte {
	var w wireWriter
	w.version()
	w.u32(uint32(len(t.Clients)))
	for _, cp := range t.Clients {
		w.lpBytes(p.EncodeClientPublic(cp))
	}
	w.u32(uint32(len(t.CoinMsgs)))
	for _, msg := range t.CoinMsgs {
		w.lpBytes(p.EncodeCoinCommitMsg(msg))
	}
	w.u32(uint32(len(t.Morra)))
	for _, rec := range t.Morra {
		w.lpBytes(p.EncodeMorraRecord(rec))
	}
	w.u32(uint32(len(t.Outputs)))
	for _, out := range t.Outputs {
		w.lpBytes(p.EncodeProverOutput(out))
	}
	if t.Release == nil {
		w.u32(0)
		return w.b
	}
	w.u32(1)
	w.u32(uint32(len(t.Release.Raw)))
	for _, raw := range t.Release.Raw {
		w.u32(uint32(uint64(raw) >> 32))
		w.u32(uint32(uint64(raw)))
	}
	return w.b
}

// DecodeTranscript parses and validates a sealed epoch transcript: the
// prover section, then every client block.
func (p *Public) DecodeTranscript(b []byte) (*Transcript, error) {
	clients, t, err := p.decodeProverSection(b)
	if err != nil {
		return nil, err
	}
	for _, raw := range clients {
		cp, err := p.DecodeClientPublic(raw)
		if err != nil {
			return nil, err
		}
		t.Clients = append(t.Clients, cp)
	}
	return t, nil
}

// decodeProverSection is the one transcript parser. The client section comes
// back as the raw blocks the encoding carries, with no group element decoded;
// everything after it — coin messages, Morra records, prover outputs and the
// release — is decoded and validated into a Transcript without Clients. The
// board-log readers stop here: the grammar has compared every sealed client
// block with its logged arrival record byte for byte, so the seal is checked
// and digested without decoding a client twice.
func (p *Public) decodeProverSection(b []byte) (clients [][]byte, t *Transcript, err error) {
	r := wireReader{b: b}
	clients = readSealedClients(&r)
	t = &Transcript{}

	nCoin := r.u32()
	if r.err == nil && nCoin > maxWireDim {
		return nil, nil, fmt.Errorf("vdp: transcript claims %d coin messages", nCoin)
	}
	for i := uint32(0); i < nCoin && r.err == nil; i++ {
		raw := r.lpBytes()
		if r.err != nil {
			break
		}
		msg, err := p.DecodeCoinCommitMsg(raw)
		if err != nil {
			return nil, nil, err
		}
		t.CoinMsgs = append(t.CoinMsgs, msg)
	}

	nMorra := r.u32()
	if r.err == nil && nMorra > maxWireDim {
		return nil, nil, fmt.Errorf("vdp: transcript claims %d morra records", nMorra)
	}
	for i := uint32(0); i < nMorra && r.err == nil; i++ {
		raw := r.lpBytes()
		if r.err != nil {
			break
		}
		rec, err := p.DecodeMorraRecord(raw)
		if err != nil {
			return nil, nil, err
		}
		t.Morra = append(t.Morra, rec)
	}

	nOut := r.u32()
	if r.err == nil && nOut > maxWireDim {
		return nil, nil, fmt.Errorf("vdp: transcript claims %d prover outputs", nOut)
	}
	for i := uint32(0); i < nOut && r.err == nil; i++ {
		raw := r.lpBytes()
		if r.err != nil {
			break
		}
		out, err := p.DecodeProverOutput(raw)
		if err != nil {
			return nil, nil, err
		}
		t.Outputs = append(t.Outputs, out)
	}

	hasRelease := r.u32()
	if hasRelease > 1 {
		return nil, nil, fmt.Errorf("vdp: transcript release flag is %d", hasRelease)
	}
	if hasRelease == 1 {
		m := r.u32()
		if r.err == nil && m > maxWireDim {
			return nil, nil, fmt.Errorf("vdp: release claims %d bins", m)
		}
		rel := &Release{Stddev: stddev(p.cfg.Provers, p.nb)}
		mean := p.NoiseMean()
		for j := uint32(0); j < m && r.err == nil; j++ {
			hi := r.u32()
			lo := r.u32()
			if r.err != nil {
				break
			}
			raw := int64(uint64(hi)<<32 | uint64(lo))
			rel.Raw = append(rel.Raw, raw)
			rel.Estimate = append(rel.Estimate, float64(raw)-mean)
		}
		t.Release = rel
	}
	if err := r.finish(); err != nil {
		return nil, nil, err
	}
	return clients, t, nil
}
