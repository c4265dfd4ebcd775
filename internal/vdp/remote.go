package vdp

import (
	"context"
	"fmt"

	"repro/internal/store"
	"repro/internal/wire"
)

// Remote sharding: the entry points a multi-node deployment needs.
//
// internal/cluster runs one Session per node behind a thin router, with the
// shard boundary promoted from a goroutine boundary (ShardedSession) to a
// network boundary. Digest parity is the contract that makes the promotion
// safe: NewShardSession seeds node i of K with exactly the forkShard(i, K)
// substream a single-process ShardedSession would hand its sub-session i, so
// K nodes fed the same submissions produce per-shard transcripts — and
// therefore a MergedTranscriptDigest — byte-identical to the single-process
// run under the same root seed. Each node's board log speaks the ordinary
// single-session record grammar, so ResumeSession-style recovery and AuditLog
// work per node unchanged; the helpers here add the cross-node merge and
// audit on top, plus the zero-crypto byte-level peeks the router uses to
// route raw frames without decoding a single group element.

// NewShardSession opens the Session for one node of a K-node cluster: shard
// `shard` of `shards`. opts.Rand is read once for the root seed (every node
// must be given the same root seed bytes); the session then draws from the
// forkShard(shard, shards) substream, which is exactly what a single-process
// ShardedSession hands its sub-session `shard` — the seed arrangement that
// makes the cluster's merged digest byte-identical to the single-process
// one. opts.Store, when set, is the node's own board log (single-session
// grammar); opts.Shards and opts.Segmented must be unset — the shard split
// lives in the cluster topology, not inside the node's session.
func NewShardSession(pub *Public, opts SessionOptions, shard, shards int) (*Session, error) {
	if err := checkShardIndex(shard, shards); err != nil {
		return nil, err
	}
	if opts.Shards > 1 || opts.Segmented != nil {
		return nil, fmt.Errorf("%w: a shard session is one node of an external shard split; leave Shards/Segmented unset", ErrBadConfig)
	}
	if err := ensureEmptyLog(opts.Store); err != nil {
		return nil, err
	}
	root, err := newRandSource(opts.Rand)
	if err != nil {
		return nil, err
	}
	return newSessionFromSource(NewEngine(pub, opts.Parallelism), opts, root.forkShard(shard, shards)), nil
}

// ResumeShardSession recovers one cluster node's Session from its board log
// after a restart, with ResumeSession's exact replay semantics but the
// shard's forkShard substream, so the recovered node still finalizes to the
// same per-shard transcript the uninterrupted run would have produced.
// opts.Rand must carry the original root seed.
func ResumeShardSession(ctx context.Context, pub *Public, opts SessionOptions, shard, shards int) (*Session, error) {
	if err := checkShardIndex(shard, shards); err != nil {
		return nil, err
	}
	if opts.Shards > 1 || opts.Segmented != nil {
		return nil, fmt.Errorf("%w: a shard session is one node of an external shard split; leave Shards/Segmented unset", ErrBadConfig)
	}
	root, err := newRandSource(opts.Rand)
	if err != nil {
		return nil, err
	}
	return resumeSessionFromSource(ctx, pub, opts, root.forkShard(shard, shards), shard, shards)
}

// checkShardIndex validates a (shard, shards) pair.
func checkShardIndex(shard, shards int) error {
	if shards < 1 {
		return fmt.Errorf("%w: shard count %d", ErrBadConfig, shards)
	}
	if shard < 0 || shard >= shards {
		return fmt.Errorf("%w: shard index %d out of range [0,%d)", ErrBadConfig, shard, shards)
	}
	return nil
}

// MergeReleases combines per-shard transcript releases into the epoch's
// combined release, exactly as ShardedSession.Finalize merges them: raw
// counts add, the debiasing mean and standard deviation scale with the shard
// count. The cluster router uses it to produce the merged release from the K
// node transcripts the seal handshake collects.
func MergeReleases(pub *Public, shards []*Transcript) (*Release, error) {
	return mergeReleases(pub, shards)
}

// EncodeMergedSealRecord serializes a merged-seal record body (shard count +
// merged digest), the RecordMergedSeal payload a ShardedSession appends to
// its manifest. Cluster nodes persist the router's merged-seal broadcast
// with the same encoding, so the evidence format is identical in-process and
// cross-node.
func EncodeMergedSealRecord(shards int, digest []byte) []byte {
	return encodeMergedSeal(shards, digest)
}

// DecodeMergedSealRecord parses a merged-seal record body.
func DecodeMergedSealRecord(b []byte) (shards int, digest []byte, err error) {
	return decodeMergedSeal(b)
}

// TranscriptFromLog extracts and decodes the sealed transcript of one epoch
// from a board log, assembling chunked seals. It does not audit anything —
// it is the fetch half of a cross-node audit, which feeds the result to
// AuditMerged.
func TranscriptFromLog(pub *Public, log store.BoardLog, epoch int) (*Transcript, error) {
	var sealBytes []byte
	err := scanSeals(log, func(e int, seal []byte) {
		if e == epoch {
			sealBytes = seal
		}
	})
	if err != nil {
		return nil, err
	}
	if sealBytes == nil {
		return nil, fmt.Errorf("vdp: epoch %d is not sealed in the board log", epoch)
	}
	return pub.DecodeTranscript(sealBytes)
}

// AuditMergedLogs audits one merged epoch across the per-node board logs of
// a cluster, in shard order: each log is audited exactly as AuditLog audits
// a single session's log (sealed transcript fully re-verified AND
// cross-checked against the log's own per-arrival records) with its grammar
// pinned to the shard map — every client on the shard ShardOf assigns it,
// hence none on two — and the merged digest over the K recovered transcripts
// is returned for comparison against the recorded merged seal. It is
// AuditSegmentedLog with the segments fetched from K machines instead of one
// directory. workers follows the AuditParallel convention (0 = all cores).
func AuditMergedLogs(ctx context.Context, pub *Public, logs []store.BoardLog, epoch, workers int) ([]byte, error) {
	return auditSegments(ctx, pub, logs, epoch, workers, shardSegments)
}

// EncodeSubmitPayload serializes the body of a one-per-frame "submit"
// transport frame: u32 publicLen | EncodeClientPublic | EncodeClientPayload
// (the prover-0 payload), with no version byte of its own. This is the
// single-submission client wire layout vdpclient sends and vdpserver
// decodes; it lives here so every binary — client, server, router — speaks
// one definition.
func (p *Public) EncodeSubmitPayload(sub *ClientSubmission) ([]byte, error) {
	if sub == nil || sub.Public == nil || len(sub.Payloads) < 1 {
		return nil, fmt.Errorf("%w: submit payload needs a public part and a prover-0 payload", ErrBadConfig)
	}
	var w wire.Writer
	mark := w.Mark()
	p.putClientPublic(&w, sub.Public)
	w.Patch(mark)
	p.putClientPayload(&w, sub.Payloads[0])
	return w.Bytes(), nil
}

// DecodeSubmitPayload parses and fully validates a "submit" frame body,
// checking that the public part and the payload agree on the client's
// identity.
func (p *Public) DecodeSubmitPayload(b []byte) (*ClientSubmission, error) {
	pubRaw, plRaw, err := splitSubmitPayload(b)
	if err != nil {
		return nil, err
	}
	cp, err := p.DecodeClientPublic(pubRaw)
	if err != nil {
		return nil, err
	}
	pl, err := p.DecodeClientPayload(plRaw)
	if err != nil {
		return nil, err
	}
	if pl.ClientID != cp.ID || pl.Prover != 0 {
		return nil, fmt.Errorf("vdp: submission parts disagree on identity")
	}
	return &ClientSubmission{Public: cp, Payloads: []*ClientPayload{pl}}, nil
}

// splitSubmitPayload cuts a submit-frame body into its raw public and
// payload encodings without decoding either.
func splitSubmitPayload(b []byte) (pubRaw, plRaw []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("vdp: short submit payload")
	}
	r := wire.NewReader("vdp", b)
	pubRaw = r.Blob()
	plRaw = r.Rest()
	if r.Err() != nil {
		return nil, nil, fmt.Errorf("vdp: submit payload length field out of range")
	}
	return pubRaw, plRaw, nil
}

// peekClientPublicID reads the client ID off a raw EncodeClientPublic
// encoding without validating anything beyond the version byte — the
// routing peek.
func peekClientPublicID(pubRaw []byte) (int, error) {
	r := versioned(pubRaw)
	id := int(r.U32())
	return id, r.Err()
}

// peekSubmissionID is peekClientPublicID for the public block of a raw
// EncodeClientSubmission record.
func peekSubmissionID(rec []byte) (int, error) {
	r := versioned(rec)
	return wire.Parse(&r, r.Blob(), peekClientPublicID), r.Err()
}

// RepackSubmitPayload converts a "submit" frame body into the equivalent
// single batch submission record (EncodeClientSubmission layout: version |
// blob(public) | u32 1 | blob(payload)) and returns the peeked client ID, all
// by byte shuffling — no decoding, no validation beyond framing. The router
// uses it to forward one-per-frame submits to a backend as a batch of one,
// so a rejected submission earns a verdict reply instead of erroring (and
// dropping) the router's persistent backend connection.
func RepackSubmitPayload(b []byte) (rec []byte, id int, err error) {
	pubRaw, plRaw, err := splitSubmitPayload(b)
	if err != nil {
		return nil, 0, err
	}
	id, err = peekClientPublicID(pubRaw)
	if err != nil {
		return nil, 0, err
	}
	var w wire.Writer
	w.U8(WireVersion)
	w.Blob(pubRaw)
	w.U32(1)
	w.Blob(plRaw)
	return w.Bytes(), id, nil
}

// SplitSubmissionBatch cuts an encoded "submit-batch" frame body into its
// raw per-submission records and peeks each record's client ID, without any
// cryptographic validation — the router's partitioning scan. Each returned
// record is the exact EncodeClientSubmission encoding (version | blob(public)
// | payload count | payloads), so EncodeRawSubmissionBatch can reassemble
// per-shard sub-batches byte-identically.
func SplitSubmissionBatch(b []byte) (recs [][]byte, ids []int, err error) {
	r := versioned(b)
	recs = make([][]byte, r.Count(MaxBatchClients, 4))
	ids = make([]int, len(recs))
	for i := range recs {
		recs[i] = r.Blob()
		ids[i] = wire.Parse(&r, recs[i], peekSubmissionID)
	}
	if err := r.Finish(); err != nil {
		return nil, nil, err
	}
	return recs, ids, nil
}

// EncodeRawSubmissionBatch reassembles raw submission records (as returned
// by SplitSubmissionBatch) into a "submit-batch" frame body. Because each
// record is carried verbatim, a backend decoding the sub-batch sees bytes
// identical to what the client sent.
func EncodeRawSubmissionBatch(recs [][]byte) []byte {
	var w wire.Writer
	w.U8(WireVersion)
	w.U32(uint32(len(recs)))
	for _, rec := range recs {
		w.Blob(rec)
	}
	return w.Bytes()
}
