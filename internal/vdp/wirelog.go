package vdp

import (
	"sync"

	"repro/internal/group"
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
// public part plus all K private per-prover payloads, then the hint section
// of its points — as one record. It is the one byte string a submission has:
// a "submit" frame body, each member of a "submit-batch" frame, and the
// board log's arrival record.
func (p *Public) EncodeClientSubmission(sub *ClientSubmission) []byte {
	return p.appendClientSubmission(nil, sub)
}

// Arrival records. A submission's encoding is the client's bytes (version |
// blob(public) | payload count | payloads) followed, from record version 2
// on, by a hint section: the decode hint (Group.AppendHint — a P-256 point's
// y coordinate, 32 bytes; nothing on schnorr2048) of every group element of
// the public part, in encoding order. The client writes it off the points it
// just computed, the server's admission decode and every reader of the board
// check each hint with a few multiplications instead of taking a square
// root, and a wrong hint is refused at its record and can never change a
// point. A record without a hint section is version 1, what every client
// sent and every log was written with before, and decodes by taking the
// roots. Only the decode reads hints: digests, the seal's client section and
// its cross-check all cover the client's bytes (splitArrival).

// appendClientSubmission appends sub's encoding to dst: the client's bytes,
// then the hint section. The sub-encodings are emitted in place (Mark/Patch
// backfill their length prefixes), so a batch of N submissions costs one
// buffer, not 3N.
func (p *Public) appendClientSubmission(dst []byte, sub *ClientSubmission) []byte {
	w := wire.NewWriter(dst)
	w.U8(WireVersion)
	mark := w.Mark()
	p.putClientPublic(&w, sub.Public)
	w.Patch(mark)
	w.U32(uint32(len(sub.Payloads)))
	for _, pl := range sub.Payloads {
		mark := w.Mark()
		p.putClientPayload(&w, pl)
		w.Patch(mark)
	}
	return p.appendHints(w.Bytes(), sub.Public)
}

// appendHints appends the hint of every group element of cp in the order
// putClientPublic encodes them.
func (p *Public) appendHints(dst []byte, cp *ClientPublic) []byte {
	g := p.pp.Group()
	for _, row := range cp.ShareCommitments {
		for _, c := range row {
			dst = g.AppendHint(dst, c.Element())
		}
	}
	if cp.BitProof != nil {
		dst = g.AppendHint(g.AppendHint(dst, cp.BitProof.A0), cp.BitProof.A1)
	}
	if cp.OneHotProof != nil {
		for _, bp := range cp.OneHotProof.Bits {
			dst = g.AppendHint(g.AppendHint(dst, bp.A0), bp.A1)
		}
	}
	return dst
}

// DecodeClientSubmission parses and validates a submission of either
// version: a hinted point is checked against its hint, a v1 one decoded by
// its square root.
func (p *Public) DecodeClientSubmission(b []byte) (*ClientSubmission, error) {
	client, hints := splitArrival(b)
	var d group.Decoder = p.pp.Group()
	h := &group.Hinted{G: p.pp.Group(), Hints: hints}
	if len(hints) != 0 {
		d = h
	}
	r := versioned(client)
	sub := &ClientSubmission{
		Public: wire.Parse(&r, r.Blob(), func(b []byte) (*ClientPublic, error) {
			return p.decodeClientPublic(d, b)
		}),
		Payloads: blobs(&r, maxWireDim, p.DecodeClientPayload),
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if err := h.Finish(); err != nil {
		return nil, err
	}
	return sub, nil
}

// splitArrival cuts an encoded submission after the client's bytes, which
// are self-delimiting; the rest is the hint section. A record whose client
// bytes cannot be followed to their end is returned whole, for
// DecodeClientSubmission to refuse.
func splitArrival(b []byte) (client, hints []byte) {
	r := versioned(b)
	r.Blob()
	for n := r.Count(maxWireDim, 4); n > 0; n-- {
		r.Blob()
	}
	hints = r.Rest()
	if r.Err() != nil {
		return b, nil
	}
	return b[:len(b)-len(hints)], hints
}

// EncodeSubmitPayload is EncodeClientSubmission, kept for bench/.
func (p *Public) EncodeSubmitPayload(sub *ClientSubmission) ([]byte, error) {
	return p.EncodeClientSubmission(sub), nil
}

// DecodeSubmitPayload is DecodeClientSubmission, kept for bench/.
func (p *Public) DecodeSubmitPayload(b []byte) (*ClientSubmission, error) {
	return p.DecodeClientSubmission(b)
}

// putCoinCommitMsg writes one prover's Lines 4-6 message: the noise coin
// commitments with their Σ-OR proofs.
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

// coinCommitMsg is a coin-commitment message's structural pass: it queues
// each coin's commitment and bit-proof decode — three points — on q.
func (p *Public) coinCommitMsg(b []byte, q *pointDecodes) (*CoinCommitMsg, error) {
	r := versioned(b)
	msg := &CoinCommitMsg{Prover: int(r.U32())}
	bins := r.Count(maxWireDim, 4)
	msg.Commitments = make([][]*pedersen.Commitment, bins)
	msg.Proofs = make([][]*sigma.BitProof, bins)
	elemLen, proofLen := p.pp.Group().ElementLen(), sigma.BitProofLen(p.pp)
	for j := range msg.Commitments {
		// Count has checked that the bin's coins fit, so no Take below fails.
		nb := r.Count(maxWireDim, elemLen+proofLen)
		comms, proofs := make([]*pedersen.Commitment, nb), make([]*sigma.BitProof, nb)
		for l := range comms {
			c, proof := r.Take(elemLen), r.Take(proofLen)
			q.add(3, func(d group.Decoder) (err error) {
				if comms[l], err = p.pp.DecodeCommitmentWith(d, c); err == nil {
					proofs[l], err = sigma.DecodeBitProofWith(p.pp, d, proof)
				}
				return err
			})
		}
		msg.Commitments[j], msg.Proofs[j] = comms, proofs
	}
	return msg, r.Finish()
}

// putMorraRecord writes the public commit/reveal record of one prover's
// Πmorra instance.
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

// morraRecord is a Morra record's structural pass: it queues each
// commitment's decode on q and reads the reveals' scalars in place.
func (p *Public) morraRecord(b []byte, q *pointDecodes) (*MorraRecord, error) {
	r := versioned(b)
	rec := &MorraRecord{Prover: int(r.U32())}
	elemLen := p.pp.Group().ElementLen()
	// Each entry is a u32 party and a u32 count; the loops stop at the first
	// error, so a claimed entry the input does not carry allocates nothing.
	rec.Commits = make([]*morra.CommitMsg, r.Count(maxWireDim, 8))
	for i := 0; i < len(rec.Commits) && r.Err() == nil; i++ {
		cm := &morra.CommitMsg{Party: int(r.U32())}
		// Count has checked that the commitments fit, so no Take below fails.
		cm.Commitments = make([]*pedersen.Commitment, r.Count(maxWireDim, elemLen))
		for l := range cm.Commitments {
			c := r.Take(elemLen)
			q.add(1, func(d group.Decoder) (err error) {
				cm.Commitments[l], err = p.pp.DecodeCommitmentWith(d, c)
				return err
			})
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
	return rec, r.Finish()
}

// pointDecodes is the deferred half of a coin-message or Morra-record
// decode. The structural pass — counts, lengths, version bytes, scalars —
// walks the stream and queues the decode of every group-element span, in
// stream order, with the slot it fills and the index of its first point;
// run then decodes the queue, on a pool when there is one. The structural
// pass stops at its first error, so every queued span precedes that error in
// the stream.
type pointDecodes struct {
	spans  []pointSpan
	points int // points queued
}

// pointSpan is one queued decode: the points from index at on, read
// through the decoder it is handed.
type pointSpan struct {
	at     int
	decode func(group.Decoder) error
	// hints is the span's hint cursor when the section has hints, kept in
	// the queue so that handing it over allocates nothing.
	hints group.Hinted
}

// add queues a span of points points.
func (q *pointDecodes) add(points int, decode func(group.Decoder) error) {
	q.spans = append(q.spans, pointSpan{at: q.points, decode: decode})
	q.points += points
}

// run decodes the queued spans on up to workers goroutines and returns the
// first failure in stream order, else structural (the error the structural
// pass stopped at, or nil), else a surplus in hints: exactly the error a
// one-pass decoder meets first. With no hints every point is decoded by its
// square root; otherwise each span reads the hints at its own points'
// indices, HintLen bytes a point, so a hint section that ends early fails at
// the first point it does not cover. A failure does not stop the pool, so
// no earlier span goes undecoded.
func (q *pointDecodes) run(g group.Group, hints []byte, workers int, structural error) error {
	cursor := func(at int) group.Hinted {
		return group.Hinted{G: g, Hints: hints[min(at*g.HintLen(), len(hints)):], N: at}
	}
	errs := make([]error, len(q.spans))
	_ = forEach(nil, workers, len(q.spans), func(i int) error {
		s := &q.spans[i]
		if len(hints) == 0 {
			errs[i] = s.decode(g)
		} else {
			s.hints = cursor(s.at)
			errs[i] = s.decode(&s.hints)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if structural != nil || len(hints) == 0 {
		return structural
	}
	rest := cursor(q.points)
	return rest.Finish()
}

// EncodeTranscript serializes the complete public transcript of one epoch —
// the entire bulletin board — as one record: clients, coin commitments with
// proofs, Morra records, prover outputs and the release, then the hint
// section of the prover section's points (appendSealHints). This is the seal
// a durable session appends at Finalize and a cluster node's "node-seal"
// reply, and it is sufficient input for offline auditing: DecodeTranscript
// followed by Audit re-derives every verifier verdict (the debiased
// Estimate/Stddev fields are recomputed from Raw, so the encoding stays
// canonical).
//
// Seal versions. From version 2 on the seal ends in a hint section, one
// decode hint (Group.AppendHint: a P-256 point's y, 32 bytes; nothing on
// schnorr2048) per point of the prover section, so its readers check each
// point with a few multiplications instead of taking a square root, exactly
// as arrival records carry theirs. A seal without one is version 1 and
// decodes by taking the roots. A wrong, short or surplus hint refuses the
// seal; no digest covers the hints (TranscriptDigest hashes the points'
// encodings), so both versions of one epoch digest the same.
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
	return p.appendSealHints(w.Bytes(), t)
}

// appendSealHints appends the hint of every point of t's prover section in
// the order the section encodes them — each coin's commitment, its bit
// proof's A0 and A1, then every Morra commitment — which is the order
// decodeProverSection queues them in. Each point has just been encoded, so
// its hint is read off the affine form the encoding computed.
func (p *Public) appendSealHints(dst []byte, t *Transcript) []byte {
	g := p.pp.Group()
	for _, msg := range t.CoinMsgs {
		for j, comms := range msg.Commitments {
			for l, c := range comms {
				proof := msg.Proofs[j][l]
				dst = g.AppendHint(g.AppendHint(g.AppendHint(dst, c.Element()), proof.A0), proof.A1)
			}
		}
	}
	for _, rec := range t.Morra {
		for _, cm := range rec.Commits {
			for _, c := range cm.Commitments {
				dst = g.AppendHint(dst, c.Element())
			}
		}
	}
	return dst
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
	clients, t, err := p.decodeProverSection(b, 1)
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
// board-log readers (AuditLog, TailAuditor, ResumeSession, the snapshot
// check) stop here: the grammar has compared every sealed client block with
// its logged arrival record byte for byte, so the seal is checked, digested
// and — on resume — given the clients the replay decoded, without decoding a
// client twice.
//
// The coins' and Morra commitments' group elements, most of the section's
// cost, are decoded on up to workers goroutines once the structure has been
// read (pointDecodes); the error, when there is one, is the one a one-pass
// decoder meets first, at every width. Whatever follows the release is the
// hint section (EncodeTranscript): a version-2 seal's points are checked
// against their hints, a version-1 seal's — one whose release ends it —
// decoded by their square roots. A seal whose structure does not parse to
// the release has no hint section to read, and reports its first error as a
// version-1 seal would.
func (p *Public) decodeProverSection(b []byte, workers int) (clients [][]byte, t *Transcript, err error) {
	var q pointDecodes
	r := versioned(b)
	clients = readSealedClients(&r)
	t = &Transcript{
		CoinMsgs: blobs(&r, maxWireDim, func(b []byte) (*CoinCommitMsg, error) { return p.coinCommitMsg(b, &q) }),
		Morra:    blobs(&r, maxWireDim, func(b []byte) (*MorraRecord, error) { return p.morraRecord(b, &q) }),
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
	hints := r.Rest()
	if err := q.run(p.pp.Group(), hints, workers, r.Err()); err != nil {
		return nil, nil, err
	}
	return clients, t, nil
}
