package sigma

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/group"
	"repro/internal/pedersen"
	"repro/internal/wire"
)

// Wire encodings: proofs are fixed-width concatenations of canonical group
// element and scalar encodings so they can cross the transport layer and be
// recorded verbatim on the public bulletin board. Decoding validates group
// membership of every element (a malformed proof must fail to parse, not
// crash the verifier).

// elem reads one group element of g through d.
func elem(r *wire.Reader, g group.Group, d group.Decoder) group.Element {
	return wire.Parse(r, r.Take(g.ElementLen()), d.Decode)
}

// scalar reads one canonical scalar.
func scalar(r *wire.Reader, f *field.Field) *field.Element {
	return wire.Parse(r, r.Take(f.ByteLen()), f.FromBytes)
}

// Encode serializes a bit proof.
func (p *BitProof) Encode(pp *pedersen.Params) []byte {
	g := pp.Group()
	w := wire.NewWriter(make([]byte, 0, BitProofLen(pp)))
	w.Raw(g.Encode(p.A0))
	w.Raw(g.Encode(p.A1))
	w.Raw(p.E0.Bytes())
	w.Raw(p.E1.Bytes())
	w.Raw(p.Z0.Bytes())
	w.Raw(p.Z1.Bytes())
	return w.Bytes()
}

// BitProofLen returns the wire size of a bit proof under pp.
func BitProofLen(pp *pedersen.Params) int {
	return 2*pp.Group().ElementLen() + 4*pp.ScalarField().ByteLen()
}

// DecodeBitProofWith parses a bit proof, validating all components, reading
// its group elements through d: the group itself, or a group.Hinted run.
func DecodeBitProofWith(pp *pedersen.Params, d group.Decoder, b []byte) (*BitProof, error) {
	g := pp.Group()
	f := pp.ScalarField()
	r := wire.NewReader("sigma", b)
	p := &BitProof{
		A0: elem(&r, g, d), A1: elem(&r, g, d),
		E0: scalar(&r, f), E1: scalar(&r, f),
		Z0: scalar(&r, f), Z1: scalar(&r, f),
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("sigma: decoding bit proof: %w", err)
	}
	return p, nil
}

// Encode serializes a one-hot proof.
func (p *OneHotProof) Encode(pp *pedersen.Params) []byte {
	var w wire.Writer
	w.U32(uint32(len(p.Bits)))
	for _, bp := range p.Bits {
		w.Raw(bp.Encode(pp))
	}
	w.Raw(p.R.Bytes())
	return w.Bytes()
}

// maxOneHotCoords bounds a one-hot proof's coordinate count.
const maxOneHotCoords = 1 << 20

// DecodeOneHotProofWith parses a one-hot proof, reading its group
// elements through d.
func DecodeOneHotProofWith(pp *pedersen.Params, d group.Decoder, b []byte) (*OneHotProof, error) {
	bpLen := BitProofLen(pp)
	r := wire.NewReader("sigma", b)
	p := &OneHotProof{Bits: make([]*BitProof, r.Count(maxOneHotCoords, bpLen))}
	if r.Err() == nil && len(p.Bits) == 0 {
		return nil, fmt.Errorf("sigma: one-hot proof has no coordinates")
	}
	bit := func(b []byte) (*BitProof, error) { return DecodeBitProofWith(pp, d, b) }
	for i := range p.Bits {
		p.Bits[i] = wire.Parse(&r, r.Take(bpLen), bit)
	}
	p.R = scalar(&r, pp.ScalarField())
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("sigma: decoding one-hot proof: %w", err)
	}
	return p, nil
}
