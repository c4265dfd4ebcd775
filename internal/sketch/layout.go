package sketch

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// Layout maps items of a bounded integer domain onto the cells of a
// Rows×Width count-min sketch. Each row carries an independent hash of the
// item (FNV-1a salted with the row index), so a client reporting item x
// contributes a one-hot vector per row — bucket Cell(r, x) in row r — and a
// point query reads back the minimum across rows, which bounds the
// count-min overcount. The layout is pure arithmetic shared verbatim by
// clients, the curator, and auditors: all parties must agree on every cell
// or the released sketch answers the wrong queries.
type Layout struct {
	// Rows is the number of independent hash rows (count-min depth d).
	Rows int
	// Width is the number of buckets per row (count-min width w). It equals
	// the ΠBin bin count M of each row's one-hot protocol instance.
	Width int
	// Domain bounds the item universe: items are integers in [0, Domain).
	// HeavyHitters enumerates it, so it must be modest (telemetry enums,
	// error codes, ports — not raw strings; hash those to a domain first).
	Domain int
}

// Validate checks the layout's ranges.
func (l Layout) Validate() error {
	if l.Rows < 1 {
		return fmt.Errorf("sketch: layout needs at least 1 row, got %d", l.Rows)
	}
	if l.Width < 2 {
		return fmt.Errorf("sketch: layout needs at least 2 buckets per row, got %d", l.Width)
	}
	if l.Domain < 1 {
		return fmt.Errorf("sketch: layout needs a positive item domain, got %d", l.Domain)
	}
	return nil
}

// ParseLayout parses the "RxWxD" (rows x width x domain) flag form shared
// by vdpserver -sketch and vdpclient -sketch, e.g. "4x16x1024". Client and
// curator must pass the same spec: the layout is part of the deployment.
func ParseLayout(s string) (Layout, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return Layout{}, fmt.Errorf("sketch: layout %q is not of the form rowsxwidthxdomain (e.g. 4x16x1024)", s)
	}
	var n [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return Layout{}, fmt.Errorf("sketch: layout %q: %q is not an integer", s, p)
		}
		n[i] = v
	}
	l := Layout{Rows: n[0], Width: n[1], Domain: n[2]}
	if err := l.Validate(); err != nil {
		return Layout{}, err
	}
	return l, nil
}

// Cell returns the bucket item hashes to in the given row: FNV-1a over the
// row index and the item, finalized and reduced mod Width. Deterministic
// across processes and platforms — the salt is data, not seed state.
//
// The finalizer matters: FNV-1a's last per-byte step is a multiply, so two
// inputs whose final bytes differ by 2^b produce hashes differing by
// ±2^b·prime — congruent mod 2^b. Without mixing, any power-of-two Width
// ≤ 2^b would put items item and item+2^b in the same cell of EVERY row,
// and the count-min minimum could never separate them. The 64-bit
// avalanche (MurmurHash3's fmix64) spreads that difference across all
// bits before the reduction.
func (l Layout) Cell(row, item int) int {
	h := fnv.New64a()
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(row))
	binary.BigEndian.PutUint64(b[8:], uint64(item))
	h.Write(b[:])
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(l.Width))
}
