package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"repro/internal/store"
	"repro/internal/transport"
)

// The cluster RPC: a small versioned request/reply vocabulary carried over
// the same frame transport the client protocol uses, so a backend serves
// both on one listener. Every request payload leads with rpcVersion and a
// peer speaking a different version is refused outright, exactly like the
// vdp wire encodings. RPC-level failures travel as KindError reply frames —
// never as transport-level handler errors — so a failed call does not drop
// the router's persistent backend connection.

// rpcVersion is the cluster RPC format version, the leading byte of every
// RPC payload this package encodes. Version 2 added the replication RPCs
// (replicate-append, node-promote) and the status reply's standby flag and
// log length.
const rpcVersion = 2

// Frame kinds of the cluster RPC. Requests flow router → node; each reply
// reuses the request kind with an "-ok" suffix, or KindError on failure.
const (
	// KindStatus reports a node's identity and epoch position; it doubles as
	// the health probe.
	KindStatus = "node-status"
	// KindSeal asks the node to finalize (seal) its local epoch and return
	// its sealed transcript. Idempotent: an already-sealed epoch returns the
	// kept transcript.
	KindSeal = "node-seal"
	// KindTranscript fetches a sealed epoch's transcript without sealing
	// anything.
	KindTranscript = "node-transcript"
	// KindLog fetches the node's entire board log, record by record, for a
	// cross-node log-grade audit.
	KindLog = "node-log"
	// KindMergedSeal records the router's merged seal (epoch, shard count,
	// merged digest) durably on the node. Replicated to every node, so the
	// router itself stays stateless.
	KindMergedSeal = "node-merged-seal"
	// KindMergedGet fetches a recorded merged seal.
	KindMergedGet = "node-merged-get"
	// KindReset opens the node's next epoch after a merged seal.
	KindReset = "node-reset"
	// KindPromote asks a standby to take over its shard: it fences further
	// replication first, resumes a session from the mirrored log, and only
	// then validates the router's epoch and log-length expectations — so a
	// promotion attempt that fails validation still leaves the stale primary
	// unable to ack anything (no split brain, only an operator decision).
	KindPromote = "node-promote"
	// KindReplicate streams board-log records from a shard primary to its
	// standby, before the primary acknowledges the covered verdicts.
	KindReplicate = "replicate-append"
	// KindReplicateGap is the standby's "I am behind start" reply to
	// KindReplicate, carrying its actual record count so the primary can
	// re-ship from there.
	KindReplicateGap = "replicate-gap"
	// KindError is the RPC-level failure reply; the payload is the message.
	KindError = "node-error"

	replySuffix = "-ok"
)

// IsRPC reports whether a frame kind belongs to the cluster RPC, so a
// backend's frame handler can split cluster traffic from client traffic.
func IsRPC(kind string) bool {
	return strings.HasPrefix(kind, "node-") || strings.HasPrefix(kind, "replicate-")
}

// Demux adapts an RPC endpoint (Node.Handle, Standby.Handle) to the frame
// dispatch's first-look hook (server.Options.Extra): cluster RPC kinds are
// served, every other kind is passed on to admission with a nil, nil return.
func Demux(handle func(*transport.Frame) []*transport.Frame) transport.Handler {
	return func(f *transport.Frame) ([]*transport.Frame, error) {
		if !IsRPC(f.Kind) {
			return nil, nil
		}
		return handle(f), nil
	}
}

// okKind is the success-reply kind for a request kind.
func okKind(req string) string { return req + replySuffix }

// errFrame builds an RPC failure reply.
func errFrame(format string, args ...any) *transport.Frame {
	return &transport.Frame{Kind: KindError, Payload: []byte(fmt.Sprintf(format, args...))}
}

// replyErr converts an RPC reply frame into an error when it is a failure
// reply (either the cluster's own KindError or the transport layer's
// terminal "error" frame) or not the expected success kind.
func replyErr(reply *transport.Frame, wantReq string) error {
	switch reply.Kind {
	case okKind(wantReq):
		return nil
	case KindError, "error":
		return fmt.Errorf("cluster: %s: %s", wantReq, reply.Payload)
	default:
		return fmt.Errorf("cluster: %s: unexpected reply kind %q", wantReq, reply.Kind)
	}
}

// rpcWriter/rpcReader are the minimal codec primitives for RPC payloads.
type rpcWriter struct{ b []byte }

func (w *rpcWriter) version() { w.b = append(w.b, rpcVersion) }

func (w *rpcWriter) u8(v byte) { w.b = append(w.b, v) }

func (w *rpcWriter) u32(v uint32) {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	w.b = append(w.b, tmp[:]...)
}

func (w *rpcWriter) lp(b []byte) {
	w.u32(uint32(len(b)))
	w.b = append(w.b, b...)
}

type rpcReader struct {
	b   []byte
	err error
}

func (r *rpcReader) version() {
	if r.err != nil {
		return
	}
	if len(r.b) < 1 {
		r.err = errors.New("cluster: truncated rpc payload")
		return
	}
	v := r.b[0]
	r.b = r.b[1:]
	if v != rpcVersion {
		r.err = fmt.Errorf("cluster: unsupported rpc version %d (this build speaks %d)", v, rpcVersion)
	}
}

func (r *rpcReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.err = errors.New("cluster: truncated rpc payload")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *rpcReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.err = errors.New("cluster: truncated rpc payload")
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[:4])
	r.b = r.b[4:]
	return v
}

func (r *rpcReader) lp() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b) < n {
		r.err = errors.New("cluster: truncated rpc payload")
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *rpcReader) rest() []byte {
	if r.err != nil {
		return nil
	}
	out := r.b
	r.b = nil
	return out
}

func (r *rpcReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("cluster: %d trailing bytes in rpc payload", len(r.b))
	}
	return nil
}

// NodeStatus is a node's reply to KindStatus.
type NodeStatus struct {
	// Shard and Shards are the node's position in the cluster topology.
	Shard, Shards int
	// Epoch is the node session's current epoch.
	Epoch int
	// Submitted and Accepted count the current epoch's admissions.
	Submitted, Accepted int
	// Finalized reports whether the current epoch is sealed locally.
	Finalized bool
	// MergedSealed reports whether the current epoch's merged seal has been
	// recorded on this node.
	MergedSealed bool
	// Durable reports whether the node persists a board log (and can
	// therefore serve KindLog for a log-grade cross-node audit).
	Durable bool
	// Standby reports an unpromoted standby replica: it mirrors its
	// primary's log but serves no admissions until promoted.
	Standby bool
	// LogLen is the node's board-log record count (the mirrored count on a
	// standby) — the "last offset" the promotion handshake fences on.
	LogLen int
}

const (
	statusFlagFinalized = 1 << iota
	statusFlagMergedSealed
	statusFlagDurable
	statusFlagStandby
)

func encodeStatus(st *NodeStatus) []byte {
	var w rpcWriter
	w.version()
	w.u32(uint32(st.Shard))
	w.u32(uint32(st.Shards))
	w.u32(uint32(st.Epoch))
	w.u32(uint32(st.Submitted))
	w.u32(uint32(st.Accepted))
	w.u32(uint32(st.LogLen))
	var flags byte
	if st.Finalized {
		flags |= statusFlagFinalized
	}
	if st.MergedSealed {
		flags |= statusFlagMergedSealed
	}
	if st.Durable {
		flags |= statusFlagDurable
	}
	if st.Standby {
		flags |= statusFlagStandby
	}
	w.u8(flags)
	return w.b
}

func decodeStatus(b []byte) (*NodeStatus, error) {
	r := rpcReader{b: b}
	r.version()
	st := &NodeStatus{
		Shard:     int(r.u32()),
		Shards:    int(r.u32()),
		Epoch:     int(r.u32()),
		Submitted: int(r.u32()),
		Accepted:  int(r.u32()),
		LogLen:    int(r.u32()),
	}
	flags := r.u8()
	if err := r.finish(); err != nil {
		return nil, err
	}
	st.Finalized = flags&statusFlagFinalized != 0
	st.MergedSealed = flags&statusFlagMergedSealed != 0
	st.Durable = flags&statusFlagDurable != 0
	st.Standby = flags&statusFlagStandby != 0
	return st, nil
}

// encodeEpochReq serializes the one-field request body shared by KindSeal,
// KindTranscript and KindReset: the epoch the caller believes is current.
func encodeEpochReq(epoch int) []byte {
	var w rpcWriter
	w.version()
	w.u32(uint32(epoch))
	return w.b
}

func decodeEpochReq(b []byte) (int, error) {
	r := rpcReader{b: b}
	r.version()
	epoch := int(r.u32())
	if err := r.finish(); err != nil {
		return 0, err
	}
	return epoch, nil
}

// encodeTranscriptReply serializes a seal/transcript success reply: the
// epoch plus the transcript's vdp wire encoding.
func encodeTranscriptReply(epoch int, transcript []byte) []byte {
	var w rpcWriter
	w.version()
	w.u32(uint32(epoch))
	w.b = append(w.b, transcript...)
	return w.b
}

func decodeTranscriptReply(b []byte) (epoch int, transcript []byte, err error) {
	r := rpcReader{b: b}
	r.version()
	epoch = int(r.u32())
	transcript = r.rest()
	if r.err != nil {
		return 0, nil, r.err
	}
	return epoch, transcript, nil
}

// mergedGetLatest is the KindMergedGet epoch sentinel for "latest recorded".
const mergedGetLatest = ^uint32(0)

// encodeMergedSeal serializes the KindMergedSeal request and the
// KindMergedGet success reply: epoch, shard count, merged digest.
func encodeMergedSeal(epoch, shards int, digest []byte) []byte {
	var w rpcWriter
	w.version()
	w.u32(uint32(epoch))
	w.u32(uint32(shards))
	w.lp(digest)
	return w.b
}

func decodeMergedSeal(b []byte) (epoch, shards int, digest []byte, err error) {
	r := rpcReader{b: b}
	r.version()
	epoch = int(r.u32())
	shards = int(r.u32())
	digest = r.lp()
	if err := r.finish(); err != nil {
		return 0, 0, nil, err
	}
	return epoch, shards, digest, nil
}

// encodeMergedGetReq serializes a KindMergedGet request; epoch < 0 asks for
// the latest recorded merged seal.
func encodeMergedGetReq(epoch int) []byte {
	var w rpcWriter
	w.version()
	if epoch < 0 {
		w.u32(mergedGetLatest)
	} else {
		w.u32(uint32(epoch))
	}
	return w.b
}

func decodeMergedGetReq(b []byte) (epoch int, latest bool, err error) {
	r := rpcReader{b: b}
	r.version()
	raw := r.u32()
	if err := r.finish(); err != nil {
		return 0, false, err
	}
	if raw == mergedGetLatest {
		return 0, true, nil
	}
	return int(raw), false, nil
}

// encodeLogReply serializes a KindLog success reply: the record count
// followed by each record in store.EncodeRecord framing (self-delimiting,
// CRC-checked), in append order.
func encodeLogReply(recs []*store.Record) ([]byte, error) {
	var w rpcWriter
	w.version()
	w.u32(uint32(len(recs)))
	for _, rec := range recs {
		w.b = append(w.b, store.EncodeRecord(rec)...)
	}
	if len(w.b) > transport.MaxFrameSize {
		return nil, fmt.Errorf("cluster: board log encoding is %d bytes, exceeding the %d-byte frame limit",
			len(w.b), transport.MaxFrameSize)
	}
	return w.b, nil
}

// Replication log IDs: one replicate-append stream carries both of a node's
// durable logs, tagged per frame.
const (
	// ReplLogBoard tags the shard's board log.
	ReplLogBoard uint8 = 0
	// ReplLogSeal tags the merged-seal sidecar.
	ReplLogSeal uint8 = 1
)

// encodeReplicate serializes a KindReplicate request: the sender's shard
// coordinates (so a standby refuses a misdirected stream), the log being
// mirrored, the 0-based index of the first record, and the records in
// store.EncodeRecord framing.
func encodeReplicate(shard, shards int, logID uint8, start int, recs []*store.Record) ([]byte, error) {
	var w rpcWriter
	w.version()
	w.u32(uint32(shard))
	w.u32(uint32(shards))
	w.u8(logID)
	w.u32(uint32(start))
	w.u32(uint32(len(recs)))
	for _, rec := range recs {
		w.b = append(w.b, store.EncodeRecord(rec)...)
	}
	if len(w.b) > transport.MaxFrameSize {
		return nil, fmt.Errorf("cluster: replicate batch of %d records is %d bytes, exceeding the %d-byte frame limit",
			len(recs), len(w.b), transport.MaxFrameSize)
	}
	return w.b, nil
}

func decodeReplicate(b []byte) (shard, shards int, logID uint8, start int, recs []*store.Record, err error) {
	r := rpcReader{b: b}
	r.version()
	shard = int(r.u32())
	shards = int(r.u32())
	logID = r.u8()
	start = int(r.u32())
	n := int(r.u32())
	if r.err != nil {
		return 0, 0, 0, 0, nil, r.err
	}
	rest := r.rest()
	recs = make([]*store.Record, 0, n)
	for i := 0; i < n; i++ {
		rec, used, derr := store.DecodeRecord(rest)
		if derr != nil {
			return 0, 0, 0, 0, nil, fmt.Errorf("cluster: replicate record %d: %w", i, derr)
		}
		recs = append(recs, rec)
		rest = rest[used:]
	}
	if len(rest) != 0 {
		return 0, 0, 0, 0, nil, fmt.Errorf("cluster: %d trailing bytes after %d replicate records", len(rest), n)
	}
	return shard, shards, logID, start, recs, nil
}

// encodeReplicateOK serializes the standby's success reply: the mirrored
// log's new record count.
func encodeReplicateOK(logID uint8, newLen int) []byte {
	var w rpcWriter
	w.version()
	w.u8(logID)
	w.u32(uint32(newLen))
	return w.b
}

func decodeReplicateOK(b []byte) (logID uint8, newLen int, err error) {
	r := rpcReader{b: b}
	r.version()
	logID = r.u8()
	newLen = int(r.u32())
	if err := r.finish(); err != nil {
		return 0, 0, err
	}
	return logID, newLen, nil
}

// encodeReplicateGap serializes the standby's "behind start" reply: its
// actual record count, so the primary rewinds its mirror point.
func encodeReplicateGap(logID uint8, have int) []byte {
	return encodeReplicateOK(logID, have)
}

func decodeReplicateGap(b []byte) (logID uint8, have int, err error) {
	return decodeReplicateOK(b)
}

// promoteAnyEpoch is the KindPromote epoch sentinel for "no expectation".
const promoteAnyEpoch = ^uint32(0)

// encodePromoteReq serializes a KindPromote request: the epoch the router
// last observed on the shard (-1 = no expectation) and the minimum board-log
// record count the promoted standby must hold — the last-offset fence that
// keeps a lagging mirror from rewriting acknowledged history.
func encodePromoteReq(expectedEpoch, minLogLen int) []byte {
	var w rpcWriter
	w.version()
	if expectedEpoch < 0 {
		w.u32(promoteAnyEpoch)
	} else {
		w.u32(uint32(expectedEpoch))
	}
	w.u32(uint32(minLogLen))
	return w.b
}

func decodePromoteReq(b []byte) (expectedEpoch, minLogLen int, err error) {
	r := rpcReader{b: b}
	r.version()
	raw := r.u32()
	minLogLen = int(r.u32())
	if err := r.finish(); err != nil {
		return 0, 0, err
	}
	if raw == promoteAnyEpoch {
		return -1, minLogLen, nil
	}
	return int(raw), minLogLen, nil
}

// decodeLogReply rebuilds a fetched board log as an in-memory BoardLog,
// ready for vdp.AuditMergedLogs.
func decodeLogReply(b []byte) (*store.MemLog, error) {
	r := rpcReader{b: b}
	r.version()
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	rest := r.rest()
	log := store.NewMemLog()
	for i := 0; i < n; i++ {
		rec, used, err := store.DecodeRecord(rest)
		if err != nil {
			return nil, fmt.Errorf("cluster: log record %d: %w", i, err)
		}
		if err := log.Append(rec); err != nil {
			return nil, err
		}
		rest = rest[used:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after %d log records", len(rest), n)
	}
	return log, nil
}
