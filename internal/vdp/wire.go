package vdp

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/pedersen"
	"repro/internal/sigma"
	"repro/internal/wire"
)

// Wire encodings for the client-facing messages, so submissions can cross a
// real network (cmd/vdpserver, cmd/vdpclient) and be archived verbatim on a
// bulletin board. Encodings are fixed-width concatenations of canonical
// group-element and scalar encodings with explicit counts; decoding
// validates every component (group membership, canonical scalars), so a
// malformed submission fails to parse rather than corrupting the verifier.
// Every codec in this package is written on internal/wire, whose Reader
// states the version, count, flag and length rules once.
//
// Every encoding starts with a one-byte format version. Decoders reject
// unknown versions outright, so the session protocol can evolve its message
// layout without old and new peers silently misparsing each other's bytes.

// WireVersion is the current wire-format version, the leading byte of every
// encoding produced by this package.
const WireVersion = 1

// maxWireDim bounds decoded counts to keep a hostile encoding from
// allocating unbounded memory.
const maxWireDim = 1 << 20

// versioned opens a read cursor on b past its WireVersion byte.
func versioned(b []byte) wire.Reader {
	r := wire.NewReader("vdp", b)
	r.Version(WireVersion)
	return r
}

// commitment reads one group element as a Pedersen commitment.
func (p *Public) commitment(r *wire.Reader) *pedersen.Commitment {
	return wire.Parse(r, r.Take(p.pp.Group().ElementLen()), p.pp.DecodeCommitment)
}

// scalar reads one canonical scalar.
func (p *Public) scalar(r *wire.Reader) *field.Element {
	f := p.Field()
	return wire.Parse(r, r.Take(f.ByteLen()), f.FromBytes)
}

// opening reads an (x, r) scalar pair.
func (p *Public) opening(r *wire.Reader) *pedersen.Opening {
	return &pedersen.Opening{X: p.scalar(r), R: p.scalar(r)}
}

// bitProof reads one fixed-width Σ-OR bit proof.
func (p *Public) bitProof(r *wire.Reader) *sigma.BitProof {
	return wire.Parse(r, r.Take(sigma.BitProofLen(p.pp)), func(b []byte) (*sigma.BitProof, error) {
		return sigma.DecodeBitProof(p.pp, b)
	})
}

// blobs reads a counted list of length-prefixed encodings, each parsed by
// parse.
func blobs[T any](r *wire.Reader, max int, parse func([]byte) (T, error)) []T {
	out := make([]T, r.Count(max, 4))
	for i := range out {
		out[i] = wire.Parse(r, r.Blob(), parse)
	}
	return out
}

// putOpening writes the pair opening reads.
func putOpening(w *wire.Writer, o *pedersen.Opening) {
	w.Raw(o.X.Bytes())
	w.Raw(o.R.Bytes())
}

// EncodeClientPublic serializes a bulletin-board submission.
func (p *Public) EncodeClientPublic(cp *ClientPublic) []byte {
	var w wire.Writer
	p.putClientPublic(&w, cp)
	return w.Bytes()
}

// putClientPublic writes the EncodeClientPublic encoding to an existing
// writer, so composite encoders (submission records, batch frames) emit it
// in place instead of allocating one intermediate buffer per client.
func (p *Public) putClientPublic(w *wire.Writer, cp *ClientPublic) {
	w.U8(WireVersion)
	w.U32(uint32(cp.ID))
	w.U32(uint32(len(cp.ShareCommitments)))
	for _, row := range cp.ShareCommitments {
		w.U32(uint32(len(row)))
		for _, c := range row {
			w.Raw(c.Bytes())
		}
	}
	// The bit proof is an optional section: a u32 count of zero or one.
	if cp.BitProof != nil {
		w.U32(1)
		w.Raw(cp.BitProof.Encode(p.pp))
	} else {
		w.U32(0)
	}
	var oneHot []byte // an empty blob is "no one-hot proof"
	if cp.OneHotProof != nil {
		oneHot = cp.OneHotProof.Encode(p.pp)
	}
	w.Blob(oneHot)
}

// DecodeClientPublic parses and validates a bulletin-board submission.
func (p *Public) DecodeClientPublic(b []byte) (*ClientPublic, error) {
	r := versioned(b)
	cp := &ClientPublic{ID: int(r.U32())}
	cp.ShareCommitments = make([][]*pedersen.Commitment, r.Count(maxWireDim, 4))
	for j := range cp.ShareCommitments {
		row := make([]*pedersen.Commitment, r.Count(maxWireDim, p.pp.Group().ElementLen()))
		for k := range row {
			row[k] = p.commitment(&r)
		}
		cp.ShareCommitments[j] = row
	}
	if r.Count(1, sigma.BitProofLen(p.pp)) == 1 {
		cp.BitProof = p.bitProof(&r)
	}
	if oneHot := r.Blob(); len(oneHot) > 0 {
		if len(oneHot) > maxWireDim*8 {
			return nil, fmt.Errorf("vdp: one-hot proof claims %d bytes", len(oneHot))
		}
		cp.OneHotProof = wire.Parse(&r, oneHot, func(b []byte) (*sigma.OneHotProof, error) {
			return sigma.DecodeOneHotProof(p.pp, b)
		})
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return cp, nil
}

// EncodeClientPayload serializes a private per-prover payload.
func (p *Public) EncodeClientPayload(pl *ClientPayload) []byte {
	var w wire.Writer
	p.putClientPayload(&w, pl)
	return w.Bytes()
}

// putClientPayload is EncodeClientPayload writing to an existing writer;
// see putClientPublic.
func (p *Public) putClientPayload(w *wire.Writer, pl *ClientPayload) {
	w.U8(WireVersion)
	w.U32(uint32(pl.ClientID))
	w.U32(uint32(pl.Prover))
	w.U32(uint32(len(pl.Openings)))
	for _, o := range pl.Openings {
		putOpening(w, o)
	}
}

// DecodeClientPayload parses a private payload.
func (p *Public) DecodeClientPayload(b []byte) (*ClientPayload, error) {
	r := versioned(b)
	pl := &ClientPayload{ClientID: int(r.U32()), Prover: int(r.U32())}
	pl.Openings = make([]*pedersen.Opening, r.Count(maxWireDim, 2*p.Field().ByteLen()))
	for i := range pl.Openings {
		pl.Openings[i] = p.opening(&r)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return pl, nil
}

// EncodeProverOutput serializes a prover's (y, z) message.
func (p *Public) EncodeProverOutput(out *ProverOutput) []byte {
	var w wire.Writer
	w.U8(WireVersion)
	w.U32(uint32(out.Prover))
	w.U32(uint32(len(out.Y)))
	for j := range out.Y {
		w.Raw(out.Y[j].Bytes())
		w.Raw(out.Z[j].Bytes())
	}
	return w.Bytes()
}

// DecodeProverOutput parses a prover output message.
func (p *Public) DecodeProverOutput(b []byte) (*ProverOutput, error) {
	r := versioned(b)
	out := &ProverOutput{Prover: int(r.U32())}
	n := r.Count(maxWireDim, 2*p.Field().ByteLen())
	out.Y, out.Z = make([]*field.Element, n), make([]*field.Element, n)
	for j := range out.Y {
		out.Y[j], out.Z[j] = p.scalar(&r), p.scalar(&r)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}
