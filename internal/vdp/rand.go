package vdp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// Deterministic randomness substreams for a session's worker pool.
//
// The sequential protocol threaded one io.Reader through every sampling
// site, which makes the transcript a function of the *schedule*: two
// interleavings of the same reader draw different values. A session instead
// derives an independent deterministic substream per logical task — client i,
// prover k's coin (j, l), Morra party p of prover k — keyed by the task's
// index, never by execution order. The same root seed therefore yields a
// byte-identical transcript at any worker count, which is what makes
// parallel runs reproducible and auditable against sequential ones.
//
// When RunOptions.Rand is nil there is nothing to reproduce: substreams
// resolve to nil and every sampling site uses crypto/rand directly (which is
// safe for concurrent use).

// seedLen is the root seed width: 256 bits, matching the security level of
// the commitment groups.
const seedLen = 32

// randSource derives per-task substreams from a root seed. A nil seed means
// "no determinism requested": stream returns nil readers and downstream
// samplers fall through to crypto/rand.
type randSource struct {
	seed []byte
}

// newRandSource captures the run's randomness policy. When rnd is non-nil it
// reads a seedLen-byte root seed — the only read ever issued against the
// caller's reader, so the derivation is independent of scheduling.
func newRandSource(rnd io.Reader) (*randSource, error) {
	if rnd == nil {
		return &randSource{}, nil
	}
	seed := make([]byte, seedLen)
	if _, err := io.ReadFull(rnd, seed); err != nil {
		return nil, fmt.Errorf("vdp: reading root seed: %w", err)
	}
	return &randSource{seed: seed}, nil
}

// stream returns the deterministic substream for (label, index), or nil when
// no root seed was provided. Distinct (label, index) pairs yield
// computationally independent streams: the key is
// SHA-256(seed ‖ "vdp/substream/1" ‖ len(label) ‖ label ‖ index), so the
// encoding is injective.
func (rs *randSource) stream(label string, index int) io.Reader {
	if rs.seed == nil {
		return nil
	}
	h := sha256.New()
	h.Write(rs.seed)
	h.Write([]byte("vdp/substream/1"))
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(label)))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(index))
	h.Write(hdr[0:4])
	h.Write([]byte(label))
	h.Write(hdr[4:8])
	s := &hashStream{}
	h.Sum(s.key[:0])
	return s
}

// hashStream is a SHA-256 counter-mode generator: block t = H(key ‖ t).
// It implements io.Reader, never fails, and is NOT safe for concurrent use —
// each task owns its stream exclusively.
type hashStream struct {
	key [sha256.Size]byte
	ctr uint64
	buf []byte
}

func (s *hashStream) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(s.buf) == 0 {
			var blk [sha256.Size + 8]byte
			copy(blk[:], s.key[:])
			binary.BigEndian.PutUint64(blk[sha256.Size:], s.ctr)
			s.ctr++
			sum := sha256.Sum256(blk[:])
			s.buf = sum[:]
		}
		c := copy(p[n:], s.buf)
		s.buf = s.buf[c:]
		n += c
	}
	return n, nil
}

// fork derives the randSource for a later session epoch: epoch 0 is the
// root itself (so a session's first epoch reproduces the Run transcript
// bit for bit), while each later epoch reads an independent child seed from
// the root's epoch substream. Distinct epochs therefore never share noise
// substreams, yet the whole multi-epoch schedule remains a pure function of
// the root seed. An unseeded source forks to itself (still crypto/rand).
func (rs *randSource) fork(epoch int) *randSource {
	if rs.seed == nil || epoch == 0 {
		return rs
	}
	child := make([]byte, seedLen)
	if _, err := io.ReadFull(rs.stream(labelEpoch, epoch), child); err != nil {
		// hashStream.Read never fails; keep the compiler honest.
		panic(fmt.Sprintf("vdp: epoch fork: %v", err))
	}
	return &randSource{seed: child}
}

// forkShard derives the randSource for one shard of a sharded session. A
// single-shard session keeps the root itself, so ShardedSession with
// Shards = 1 reproduces a plain Session's transcript bit for bit; with more
// shards each reads an independent child seed from the root's shard
// substream, so shards never share noise substreams while the whole sharded
// schedule stays a pure function of the root seed. An unseeded source forks
// to itself (still crypto/rand).
func (rs *randSource) forkShard(shard, shards int) *randSource {
	if rs.seed == nil || shards <= 1 {
		return rs
	}
	child := make([]byte, seedLen)
	if _, err := io.ReadFull(rs.stream(labelShard, shard), child); err != nil {
		// hashStream.Read never fails; keep the compiler honest.
		panic(fmt.Sprintf("vdp: shard fork: %v", err))
	}
	return &randSource{seed: child}
}

// Substream labels. Each logical sampling site in the protocol gets its own
// namespace; indices flatten multi-dimensional task coordinates.
const (
	labelClient = "client" // index = client position in choices
	labelCoin   = "coin"   // index = (prover·M + bin)·nb + coin
	labelMorra  = "morra"  // index = prover·2 + party
	labelEpoch  = "epoch"  // index = session epoch (child-seed fork)
	labelShard  = "shard"  // index = shard (child-seed fork, ShardedSession)
)
