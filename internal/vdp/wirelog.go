package vdp

import (
	"sync"

	"repro/internal/morra"
	"repro/internal/pedersen"
	"repro/internal/sigma"
	"repro/internal/wire"
)

// Wire encodings for the durable bulletin board (internal/store): whole
// client submissions and whole epoch transcripts, built from the same
// versioned codec as the per-message encodings in wire.go. These are what
// the board log persists at Submit time and seals at Finalize time, and what
// ResumeSession and AuditLog decode back; like every encoding in this
// package they validate all components on decode, so a corrupted or hostile
// log fails to parse instead of corrupting a recovered session.

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
	var w wire.Writer
	p.putClientSubmission(&w, sub)
	return w.Bytes()
}

// putClientSubmission writes the submission record encoding to an existing
// writer. The sub-encodings are emitted in place (Mark/Patch backfill their
// length prefixes), so a batch of N submissions costs one buffer, not 3N.
func (p *Public) putClientSubmission(w *wire.Writer, sub *ClientSubmission) {
	w.U8(WireVersion)
	mark := w.Mark()
	p.putClientPublic(w, sub.Public)
	w.Patch(mark)
	w.U32(uint32(len(sub.Payloads)))
	for _, pl := range sub.Payloads {
		mark := w.Mark()
		p.putClientPayload(w, pl)
		w.Patch(mark)
	}
}

// DecodeClientSubmission parses and validates a full submission record.
func (p *Public) DecodeClientSubmission(b []byte) (*ClientSubmission, error) {
	r := versioned(b)
	sub := &ClientSubmission{
		Public:   wire.Parse(&r, r.Blob(), p.DecodeClientPublic),
		Payloads: blobs(&r, maxWireDim, p.DecodeClientPayload),
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return sub, nil
}

// EncodeCoinCommitMsg serializes one prover's Lines 4-6 message: the noise
// coin commitments with their Σ-OR proofs.
func (p *Public) EncodeCoinCommitMsg(msg *CoinCommitMsg) []byte {
	var w wire.Writer
	p.putCoinCommitMsg(&w, msg)
	return w.Bytes()
}

// putCoinCommitMsg is EncodeCoinCommitMsg writing to an existing writer.
func (p *Public) putCoinCommitMsg(w *wire.Writer, msg *CoinCommitMsg) {
	w.U8(WireVersion)
	w.U32(uint32(msg.Prover))
	w.U32(uint32(len(msg.Commitments)))
	for j := range msg.Commitments {
		w.U32(uint32(len(msg.Commitments[j])))
		for l := range msg.Commitments[j] {
			w.Raw(msg.Commitments[j][l].Bytes())
			w.Raw(msg.Proofs[j][l].Encode(p.pp))
		}
	}
}

// DecodeCoinCommitMsg parses and validates a coin-commitment message.
func (p *Public) DecodeCoinCommitMsg(b []byte) (*CoinCommitMsg, error) {
	r := versioned(b)
	msg := &CoinCommitMsg{Prover: int(r.U32())}
	bins := r.Count(maxWireDim, 4)
	msg.Commitments = make([][]*pedersen.Commitment, bins)
	msg.Proofs = make([][]*sigma.BitProof, bins)
	coinLen := p.pp.Group().ElementLen() + sigma.BitProofLen(p.pp)
	for j := range msg.Commitments {
		nb := r.Count(maxWireDim, coinLen)
		comms, proofs := make([]*pedersen.Commitment, nb), make([]*sigma.BitProof, nb)
		for l := range comms {
			comms[l], proofs[l] = p.commitment(&r), p.bitProof(&r)
		}
		msg.Commitments[j], msg.Proofs[j] = comms, proofs
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return msg, nil
}

// EncodeMorraRecord serializes the public commit/reveal record of one
// prover's Πmorra instance.
func (p *Public) EncodeMorraRecord(rec *MorraRecord) []byte {
	var w wire.Writer
	p.putMorraRecord(&w, rec)
	return w.Bytes()
}

// putMorraRecord is EncodeMorraRecord writing to an existing writer.
func (p *Public) putMorraRecord(w *wire.Writer, rec *MorraRecord) {
	w.U8(WireVersion)
	w.U32(uint32(rec.Prover))
	w.U32(uint32(len(rec.Commits)))
	for _, cm := range rec.Commits {
		w.U32(uint32(cm.Party))
		w.U32(uint32(len(cm.Commitments)))
		for _, c := range cm.Commitments {
			w.Raw(c.Bytes())
		}
	}
	w.U32(uint32(len(rec.Reveals)))
	for _, rv := range rec.Reveals {
		w.U32(uint32(rv.Party))
		w.U32(uint32(len(rv.Openings)))
		for _, o := range rv.Openings {
			putOpening(w, o)
		}
	}
}

// DecodeMorraRecord parses and validates a Morra record.
func (p *Public) DecodeMorraRecord(b []byte) (*MorraRecord, error) {
	r := versioned(b)
	rec := &MorraRecord{Prover: int(r.U32())}
	// Each entry is a u32 party and a u32 count; the loops stop at the first
	// error, so a claimed entry the input does not carry allocates nothing.
	rec.Commits = make([]*morra.CommitMsg, r.Count(maxWireDim, 8))
	for i := 0; i < len(rec.Commits) && r.Err() == nil; i++ {
		cm := &morra.CommitMsg{Party: int(r.U32())}
		cm.Commitments = make([]*pedersen.Commitment, r.Count(maxWireDim, p.pp.Group().ElementLen()))
		for l := range cm.Commitments {
			cm.Commitments[l] = p.commitment(&r)
		}
		rec.Commits[i] = cm
	}
	rec.Reveals = make([]*morra.RevealMsg, r.Count(maxWireDim, 8))
	for i := 0; i < len(rec.Reveals) && r.Err() == nil; i++ {
		rv := &morra.RevealMsg{Party: int(r.U32())}
		rv.Openings = make([]*pedersen.Opening, r.Count(maxWireDim, 2*p.Field().ByteLen()))
		for l := range rv.Openings {
			rv.Openings[l] = p.opening(&r)
		}
		rec.Reveals[i] = rv
	}
	if err := r.Finish(); err != nil {
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
	var w wire.Writer
	w.U8(WireVersion)
	w.U32(uint32(len(t.Clients)))
	for _, cp := range t.Clients {
		mark := w.Mark()
		p.putClientPublic(&w, cp)
		w.Patch(mark)
	}
	w.U32(uint32(len(t.CoinMsgs)))
	for _, msg := range t.CoinMsgs {
		mark := w.Mark()
		p.putCoinCommitMsg(&w, msg)
		w.Patch(mark)
	}
	w.U32(uint32(len(t.Morra)))
	for _, rec := range t.Morra {
		mark := w.Mark()
		p.putMorraRecord(&w, rec)
		w.Patch(mark)
	}
	w.U32(uint32(len(t.Outputs)))
	for _, out := range t.Outputs {
		w.Blob(p.EncodeProverOutput(out))
	}
	// The release is an optional section: a u32 count of zero or one.
	if t.Release == nil {
		w.U32(0)
	} else {
		w.U32(1)
		putRelease(&w, t.Release)
	}
	return w.Bytes()
}

// putRelease writes a release's bin count and raw counts, the part of the
// transcript encoding TranscriptDigest also hashes.
func putRelease(w *wire.Writer, rel *Release) {
	w.U32(uint32(len(rel.Raw)))
	for _, raw := range rel.Raw {
		w.U64(uint64(raw))
	}
}

// DecodeTranscript parses and validates a sealed epoch transcript: the
// prover section, then every client block.
func (p *Public) DecodeTranscript(b []byte) (*Transcript, error) {
	clients, t, err := p.decodeProverSection(b)
	if err != nil {
		return nil, err
	}
	t.Clients = make([]*ClientPublic, len(clients))
	for i, raw := range clients {
		if t.Clients[i], err = p.DecodeClientPublic(raw); err != nil {
			return nil, err
		}
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
	r := versioned(b)
	clients = readSealedClients(&r)
	t = &Transcript{
		CoinMsgs: blobs(&r, maxWireDim, p.DecodeCoinCommitMsg),
		Morra:    blobs(&r, maxWireDim, p.DecodeMorraRecord),
		Outputs:  blobs(&r, maxWireDim, p.DecodeProverOutput),
	}
	if r.Count(1, 4) == 1 {
		rel := &Release{Raw: make([]int64, r.Count(maxWireDim, 8)), Stddev: stddev(p.cfg.Provers, p.nb)}
		rel.Estimate = make([]float64, len(rel.Raw))
		for j := range rel.Raw {
			rel.Raw[j] = int64(r.U64())
			rel.Estimate[j] = float64(rel.Raw[j]) - p.NoiseMean()
		}
		t.Release = rel
	}
	if err := r.Finish(); err != nil {
		return nil, nil, err
	}
	return clients, t, nil
}
