package vdp

import (
	"fmt"
	"math"

	"repro/internal/wire"
)

// Sketch query framing: the vdpclient -query / vdpserver query-serving wire
// format. Queries and replies ride the same versioned codec as every other
// vdp message — one leading version byte, u32 fields, length checks on
// decode — so the fuzz harness covers them like the rest of the surface.
// Floats cross the wire as IEEE-754 bit patterns (math.Float64bits) in a
// big-endian u64, the convention the budget ledger uses.

// Query kinds.
const (
	// SketchQueryPoint asks for one item's estimate; Arg is the item.
	SketchQueryPoint uint32 = 0
	// SketchQueryTopK asks for the k heaviest items; Arg is k (0 = the
	// whole ranked domain).
	SketchQueryTopK uint32 = 1
)

// SketchQuery is a decoded query frame.
type SketchQuery struct {
	Kind uint32
	Arg  int
}

// EncodeSketchQuery serializes a query frame.
func EncodeSketchQuery(q *SketchQuery) []byte {
	var w wire.Writer
	w.U8(WireVersion)
	w.U32(q.Kind)
	w.U32(uint32(q.Arg))
	return w.Bytes()
}

// DecodeSketchQuery parses a query frame.
func DecodeSketchQuery(b []byte) (*SketchQuery, error) {
	r := versioned(b)
	kind := r.U32()
	arg := r.U32()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if kind != SketchQueryPoint && kind != SketchQueryTopK {
		return nil, fmt.Errorf("vdp: sketch query has unknown kind %d", kind)
	}
	if arg > maxWireDim {
		return nil, fmt.Errorf("vdp: sketch query argument %d exceeds the %d cap", arg, maxWireDim)
	}
	return &SketchQuery{Kind: kind, Arg: int(arg)}, nil
}

// EncodeItemEstimates serializes a query reply: the ranked item estimates
// with their shared error bound.
func EncodeItemEstimates(items []ItemEstimate) []byte {
	var w wire.Writer
	w.U8(WireVersion)
	w.U32(uint32(len(items)))
	for _, it := range items {
		w.U32(uint32(it.Item))
		w.U64(math.Float64bits(it.Estimate))
		w.U64(math.Float64bits(it.Bound))
	}
	return w.Bytes()
}

// DecodeItemEstimates parses a query reply.
func DecodeItemEstimates(b []byte) ([]ItemEstimate, error) {
	r := versioned(b)
	items := make([]ItemEstimate, r.Count(maxWireDim, 4+8+8))
	for i := range items {
		items[i] = ItemEstimate{
			Item:     int(r.U32()),
			Estimate: math.Float64frombits(r.U64()),
			Bound:    math.Float64frombits(r.U64()),
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return items, nil
}
