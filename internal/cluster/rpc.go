package cluster

import (
	"fmt"
	"strings"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
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
// log length; version 3 made node-log a ranged read.
const rpcVersion = 3

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
	// KindLog reads a range of the node's board log: the request names the
	// index of the first record wanted, and the reply carries the node's
	// committed record count and at most one chunk of the records from that
	// index on. The live follower and the cross-node audit read every remote
	// board this way.
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

// rpcOut opens a writer past the rpcVersion byte.
func rpcOut() wire.Writer {
	var w wire.Writer
	w.U8(rpcVersion)
	return w
}

// rpcIn opens a read cursor on b past its rpcVersion byte.
func rpcIn(b []byte) wire.Reader {
	r := wire.NewReader("cluster", b)
	r.Version(rpcVersion)
	return r
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
	_ // retired: the durable flag, from before every node kept a board log
	statusFlagStandby
	statusFlagsKnown = statusFlagFinalized | statusFlagMergedSealed | statusFlagStandby
)

func encodeStatus(st *NodeStatus) []byte {
	w := rpcOut()
	w.U32(uint32(st.Shard))
	w.U32(uint32(st.Shards))
	w.U32(uint32(st.Epoch))
	w.U32(uint32(st.Submitted))
	w.U32(uint32(st.Accepted))
	w.U32(uint32(st.LogLen))
	var flags byte
	if st.Finalized {
		flags |= statusFlagFinalized
	}
	if st.MergedSealed {
		flags |= statusFlagMergedSealed
	}
	if st.Standby {
		flags |= statusFlagStandby
	}
	w.U8(flags)
	return w.Bytes()
}

func decodeStatus(b []byte) (*NodeStatus, error) {
	r := rpcIn(b)
	st := &NodeStatus{
		Shard:     int(r.U32()),
		Shards:    int(r.U32()),
		Epoch:     int(r.U32()),
		Submitted: int(r.U32()),
		Accepted:  int(r.U32()),
		LogLen:    int(r.U32()),
	}
	flags := r.U8()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	// Each flag bit follows the one bool rule: an unknown bit is refused,
	// not read as false.
	if flags&^statusFlagsKnown != 0 {
		return nil, fmt.Errorf("cluster: status flags %#x carry unknown bits", flags)
	}
	st.Finalized = flags&statusFlagFinalized != 0
	st.MergedSealed = flags&statusFlagMergedSealed != 0
	st.Standby = flags&statusFlagStandby != 0
	return st, nil
}

// encodeIndexReq serializes the one-field request body shared by KindSeal
// and KindReset — the epoch the caller believes is current —
// and KindLog — the index of the first record wanted.
func encodeIndexReq(index int) []byte {
	w := rpcOut()
	w.U32(uint32(index))
	return w.Bytes()
}

func decodeIndexReq(b []byte) (int, error) {
	r := rpcIn(b)
	index := int(r.U32())
	return index, r.Finish()
}

// encodeTranscriptReply serializes a KindSeal success reply: the
// epoch plus the transcript's vdp wire encoding.
func encodeTranscriptReply(epoch int, transcript []byte) []byte {
	w := rpcOut()
	w.U32(uint32(epoch))
	w.Raw(transcript)
	return w.Bytes()
}

func decodeTranscriptReply(b []byte) (epoch int, transcript []byte, err error) {
	r := rpcIn(b)
	epoch = int(r.U32())
	transcript = r.Rest()
	return epoch, transcript, r.Err()
}

// mergedGetLatest is the KindMergedGet epoch sentinel for "latest recorded".
const mergedGetLatest = ^uint32(0)

// encodeMergedSeal serializes the KindMergedSeal request and the
// KindMergedGet success reply: epoch, shard count, merged digest.
func encodeMergedSeal(epoch, shards int, digest []byte) []byte {
	w := rpcOut()
	w.U32(uint32(epoch))
	w.U32(uint32(shards))
	w.Blob(digest)
	return w.Bytes()
}

func decodeMergedSeal(b []byte) (epoch, shards int, digest []byte, err error) {
	r := rpcIn(b)
	epoch = int(r.U32())
	shards = int(r.U32())
	digest = r.Blob()
	return epoch, shards, digest, r.Finish()
}

// encodeMergedGetReq serializes a KindMergedGet request; epoch < 0 asks for
// the latest recorded merged seal.
func encodeMergedGetReq(epoch int) []byte {
	w := rpcOut()
	if epoch < 0 {
		w.U32(mergedGetLatest)
	} else {
		w.U32(uint32(epoch))
	}
	return w.Bytes()
}

// decodeMergedGetReq parses a KindMergedGet request; -1 asks for the latest.
func decodeMergedGetReq(b []byte) (epoch int, err error) {
	r := rpcIn(b)
	raw := r.U32()
	if err := r.Finish(); err != nil {
		return 0, err
	}
	if raw == mergedGetLatest {
		return -1, nil
	}
	return int(raw), nil
}

// chunkBytes bounds the record bytes one replicate-append or node-log frame
// carries, well under the transport's hard frame limit, so a long mirror
// catch-up or log read splits cleanly.
const chunkBytes = 4 << 20

// chunkLen returns how many records from the front of recs make the next
// frame: at least one, then more until chunkBytes is reached.
func chunkLen(recs []*store.Record) int {
	n, size := 0, 0
	for n < len(recs) && chunkHasRoom(n, size) {
		size += recordCost(recs[n])
		n++
	}
	return n
}

// chunkHasRoom reports whether a chunk of n records and size bytes takes
// one more record: the first always fits, the rest until chunkBytes.
func chunkHasRoom(n, size int) bool { return n == 0 || size < chunkBytes }

// recordCost is a record's charge against chunkBytes.
func recordCost(rec *store.Record) int { return len(rec.Payload) + 32 }

// encodeRecords appends a record count and the records in store.EncodeRecord
// framing (self-delimiting, CRC-checked), in append order, refusing an
// encoding the transport cannot carry in one frame.
func encodeRecords(w *wire.Writer, recs []*store.Record) ([]byte, error) {
	w.U32(uint32(len(recs)))
	for _, rec := range recs {
		w.Raw(store.EncodeRecord(rec))
	}
	if n := len(w.Bytes()); n > transport.MaxFrameSize {
		return nil, fmt.Errorf("cluster: %d records encode to %d bytes, exceeding the %d-byte frame limit",
			len(recs), n, transport.MaxFrameSize)
	}
	return w.Bytes(), nil
}

// decodeRecords reads what encodeRecords wrote, up to the end of the
// encoding. The count is hostile input: it is checked against the bytes
// present and sizes nothing.
func decodeRecords(r *wire.Reader) ([]*store.Record, error) {
	n := r.Count(transport.MaxFrameSize, 1)
	rest := r.Rest()
	if err := r.Err(); err != nil {
		return nil, err
	}
	var recs []*store.Record
	for i := 0; i < n; i++ {
		rec, used, err := store.DecodeRecord(rest)
		if err != nil {
			return nil, fmt.Errorf("cluster: record %d: %w", i, err)
		}
		recs = append(recs, rec)
		rest = rest[used:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after %d records", len(rest), n)
	}
	return recs, nil
}

// encodeLogRange serializes a KindLog success reply: the node's committed
// record count, the index of the first record shipped (the request's, so a
// stale reply cannot pass for a fresh one) and the records.
func encodeLogRange(committed, from int, recs []*store.Record) ([]byte, error) {
	w := rpcOut()
	w.U32(uint32(committed))
	w.U32(uint32(from))
	return encodeRecords(&w, recs)
}

func decodeLogRange(b []byte) (committed, from int, recs []*store.Record, err error) {
	r := rpcIn(b)
	committed = int(r.U32())
	from = int(r.U32())
	recs, err = decodeRecords(&r)
	return committed, from, recs, err
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
// mirrored, the 0-based index of the first record, and the records.
func encodeReplicate(shard, shards int, logID uint8, start int, recs []*store.Record) ([]byte, error) {
	w := rpcOut()
	w.U32(uint32(shard))
	w.U32(uint32(shards))
	w.U8(logID)
	w.U32(uint32(start))
	return encodeRecords(&w, recs)
}

func decodeReplicate(b []byte) (shard, shards int, logID uint8, start int, recs []*store.Record, err error) {
	r := rpcIn(b)
	shard = int(r.U32())
	shards = int(r.U32())
	logID = r.U8()
	start = int(r.U32())
	if recs, err = decodeRecords(&r); err != nil {
		return 0, 0, 0, 0, nil, err
	}
	return shard, shards, logID, start, recs, nil
}

// encodeReplicateOK serializes the standby's reply to KindReplicate, for
// success and KindReplicateGap alike: the mirrored log's record count — on a
// gap, the count the primary rewinds its mirror point to.
func encodeReplicateOK(logID uint8, newLen int) []byte {
	w := rpcOut()
	w.U8(logID)
	w.U32(uint32(newLen))
	return w.Bytes()
}

func decodeReplicateOK(b []byte) (logID uint8, newLen int, err error) {
	r := rpcIn(b)
	logID = r.U8()
	newLen = int(r.U32())
	if err := r.Finish(); err != nil {
		return 0, 0, err
	}
	return logID, newLen, nil
}

// promoteAnyEpoch is the KindPromote epoch sentinel for "no expectation".
const promoteAnyEpoch = ^uint32(0)

// encodePromoteReq serializes a KindPromote request: the epoch the router
// last observed on the shard (-1 = no expectation) and the minimum board-log
// record count the promoted standby must hold — the last-offset fence that
// keeps a lagging mirror from rewriting acknowledged history.
func encodePromoteReq(expectedEpoch, minLogLen int) []byte {
	w := rpcOut()
	if expectedEpoch < 0 {
		w.U32(promoteAnyEpoch)
	} else {
		w.U32(uint32(expectedEpoch))
	}
	w.U32(uint32(minLogLen))
	return w.Bytes()
}

func decodePromoteReq(b []byte) (expectedEpoch, minLogLen int, err error) {
	r := rpcIn(b)
	raw := r.U32()
	minLogLen = int(r.U32())
	if err := r.Finish(); err != nil {
		return 0, 0, err
	}
	if raw == promoteAnyEpoch {
		return -1, minLogLen, nil
	}
	return int(raw), minLogLen, nil
}
