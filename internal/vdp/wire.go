package vdp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/field"
	"repro/internal/pedersen"
	"repro/internal/sigma"
)

// Wire encodings for the client-facing messages, so submissions can cross a
// real network (cmd/vdpserver, cmd/vdpclient) and be archived verbatim on a
// bulletin board. Encodings are fixed-width concatenations of canonical
// group-element and scalar encodings with explicit counts; decoding
// validates every component (group membership, canonical scalars), so a
// malformed submission fails to parse rather than corrupting the verifier.
//
// Every encoding starts with a one-byte format version. Decoders reject
// unknown versions outright, so the session protocol can evolve its message
// layout without old and new peers silently misparsing each other's bytes.

// WireVersion is the current wire-format version, the leading byte of every
// encoding produced by this package.
const WireVersion = 1

type wireWriter struct{ b []byte }

// version emits the leading format-version byte.
func (w *wireWriter) version() { w.b = append(w.b, WireVersion) }

func (w *wireWriter) u32(v uint32) {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	w.b = append(w.b, tmp[:]...)
}

func (w *wireWriter) bytes(b []byte) { w.b = append(w.b, b...) }

// lpMark reserves a u32 length prefix and returns a patch mark; lpPatch
// backfills it with the number of bytes written since. Together they let a
// composite encoder emit a length-prefixed sub-encoding directly into the
// enclosing buffer instead of building it separately and copying — the
// allocation the batch submission path (SubmitBatch, EncodeSubmissionBatch)
// cannot afford once per client per frame.
func (w *wireWriter) lpMark() int {
	w.u32(0)
	return len(w.b)
}

func (w *wireWriter) lpPatch(mark int) {
	binary.BigEndian.PutUint32(w.b[mark-4:mark], uint32(len(w.b)-mark))
}

type wireReader struct {
	b   []byte
	err error
}

// version consumes and checks the leading format-version byte.
func (r *wireReader) version() {
	if r.err != nil {
		return
	}
	if len(r.b) < 1 {
		r.err = errors.New("vdp: truncated encoding")
		return
	}
	v := r.b[0]
	r.b = r.b[1:]
	if v != WireVersion {
		r.err = fmt.Errorf("vdp: unsupported wire format version %d (this build speaks %d)", v, WireVersion)
	}
}

func (r *wireReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.err = errors.New("vdp: truncated encoding")
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[:4])
	r.b = r.b[4:]
	return v
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	// n < 0 guards 32-bit builds, where a hostile uint32 length prefix
	// converted to int can go negative and would otherwise panic the slice.
	if n < 0 || len(r.b) < n {
		r.err = errors.New("vdp: truncated encoding")
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("vdp: %d trailing bytes in encoding", len(r.b))
	}
	return nil
}

// maxWireDim bounds decoded counts to keep a hostile encoding from
// allocating unbounded memory.
const maxWireDim = 1 << 20

// EncodeClientPublic serializes a bulletin-board submission.
func (p *Public) EncodeClientPublic(cp *ClientPublic) []byte {
	var w wireWriter
	p.encodeClientPublicInto(&w, cp)
	return w.b
}

// encodeClientPublicInto writes the EncodeClientPublic encoding to an
// existing writer, so composite encoders (submission records, batch frames)
// emit it in place instead of allocating one intermediate buffer per client.
func (p *Public) encodeClientPublicInto(w *wireWriter, cp *ClientPublic) {
	w.version()
	w.u32(uint32(cp.ID))
	w.u32(uint32(len(cp.ShareCommitments)))
	for _, row := range cp.ShareCommitments {
		w.u32(uint32(len(row)))
		for _, c := range row {
			w.bytes(c.Bytes())
		}
	}
	if cp.BitProof != nil {
		w.u32(1)
		w.bytes(cp.BitProof.Encode(p.pp))
	} else {
		w.u32(0)
	}
	if cp.OneHotProof != nil {
		enc := cp.OneHotProof.Encode(p.pp)
		w.u32(uint32(len(enc)))
		w.bytes(enc)
	} else {
		w.u32(0)
	}
}

// DecodeClientPublic parses and validates a bulletin-board submission.
func (p *Public) DecodeClientPublic(b []byte) (*ClientPublic, error) {
	r := wireReader{b: b}
	r.version()
	cp := &ClientPublic{ID: int(r.u32())}
	rows := r.u32()
	if r.err == nil && rows > maxWireDim {
		return nil, fmt.Errorf("vdp: submission claims %d bins", rows)
	}
	elemLen := p.pp.Group().ElementLen()
	for j := uint32(0); j < rows && r.err == nil; j++ {
		cols := r.u32()
		if r.err == nil && cols > maxWireDim {
			return nil, fmt.Errorf("vdp: submission claims %d provers", cols)
		}
		row := make([]*pedersen.Commitment, 0, min(int(cols), len(r.b)/elemLen)) // cols is hostile input
		for k := uint32(0); k < cols && r.err == nil; k++ {
			raw := r.take(elemLen)
			if r.err != nil {
				break
			}
			c, err := p.pp.DecodeCommitment(raw)
			if err != nil {
				return nil, fmt.Errorf("vdp: client %d commitment: %w", cp.ID, err)
			}
			row = append(row, c)
		}
		cp.ShareCommitments = append(cp.ShareCommitments, row)
	}
	if r.u32() == 1 && r.err == nil {
		raw := r.take(sigma.BitProofLen(p.pp))
		if r.err == nil {
			bp, err := sigma.DecodeBitProof(p.pp, raw)
			if err != nil {
				return nil, err
			}
			cp.BitProof = bp
		}
	}
	ohLen := r.u32()
	if ohLen > 0 && r.err == nil {
		if ohLen > maxWireDim*8 {
			return nil, fmt.Errorf("vdp: one-hot proof claims %d bytes", ohLen)
		}
		raw := r.take(int(ohLen))
		if r.err == nil {
			ohp, err := sigma.DecodeOneHotProof(p.pp, raw)
			if err != nil {
				return nil, err
			}
			cp.OneHotProof = ohp
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return cp, nil
}

// EncodeClientPayload serializes a private per-prover payload.
func (p *Public) EncodeClientPayload(pl *ClientPayload) []byte {
	var w wireWriter
	p.encodeClientPayloadInto(&w, pl)
	return w.b
}

// encodeClientPayloadInto is EncodeClientPayload writing to an existing
// writer; see encodeClientPublicInto.
func (p *Public) encodeClientPayloadInto(w *wireWriter, pl *ClientPayload) {
	w.version()
	w.u32(uint32(pl.ClientID))
	w.u32(uint32(pl.Prover))
	w.u32(uint32(len(pl.Openings)))
	for _, o := range pl.Openings {
		w.bytes(o.X.Bytes())
		w.bytes(o.R.Bytes())
	}
}

// DecodeClientPayload parses a private payload.
func (p *Public) DecodeClientPayload(b []byte) (*ClientPayload, error) {
	r := wireReader{b: b}
	r.version()
	pl := &ClientPayload{ClientID: int(r.u32()), Prover: int(r.u32())}
	n := r.u32()
	if r.err == nil && n > maxWireDim {
		return nil, fmt.Errorf("vdp: payload claims %d openings", n)
	}
	f := p.Field()
	w := f.ByteLen()
	for i := uint32(0); i < n && r.err == nil; i++ {
		xRaw := r.take(w)
		rRaw := r.take(w)
		if r.err != nil {
			break
		}
		x, err := f.FromBytes(xRaw)
		if err != nil {
			return nil, fmt.Errorf("vdp: payload opening %d: %w", i, err)
		}
		rr, err := f.FromBytes(rRaw)
		if err != nil {
			return nil, fmt.Errorf("vdp: payload opening %d: %w", i, err)
		}
		pl.Openings = append(pl.Openings, &pedersen.Opening{X: x, R: rr})
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return pl, nil
}

// EncodeProverOutput serializes a prover's (y, z) message.
func (p *Public) EncodeProverOutput(out *ProverOutput) []byte {
	var w wireWriter
	w.version()
	w.u32(uint32(out.Prover))
	w.u32(uint32(len(out.Y)))
	for j := range out.Y {
		w.bytes(out.Y[j].Bytes())
		w.bytes(out.Z[j].Bytes())
	}
	return w.b
}

// DecodeProverOutput parses a prover output message.
func (p *Public) DecodeProverOutput(b []byte) (*ProverOutput, error) {
	r := wireReader{b: b}
	r.version()
	out := &ProverOutput{Prover: int(r.u32())}
	n := r.u32()
	if r.err == nil && n > maxWireDim {
		return nil, fmt.Errorf("vdp: output claims %d bins", n)
	}
	f := p.Field()
	w := f.ByteLen()
	var yz []*field.Element
	for i := uint32(0); i < 2*n && r.err == nil; i++ {
		raw := r.take(w)
		if r.err != nil {
			break
		}
		e, err := f.FromBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("vdp: output element %d: %w", i, err)
		}
		yz = append(yz, e)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	for i := 0; i < int(n); i++ {
		out.Y = append(out.Y, yz[2*i])
		out.Z = append(out.Z, yz[2*i+1])
	}
	return out, nil
}
