// Package verifiabledp is the public API of this reproduction of
// "Verifiable Differential Privacy" (Biswas & Cormode): differentially
// private counting queries and histograms whose releases come with
// zero-knowledge proofs that the DP noise was sampled faithfully and the
// statistic computed correctly.
//
// # Why
//
// Classic DP deployments let the entity holding the data add the noise. A
// malicious curator can bias the "noise" and blame the distortion on
// differential privacy — randomness is the perfect alibi. Verifiable DP
// closes the loophole: the curator (or each of K mutually distrusting
// servers) must publish commitments, Σ-protocol proofs and jointly sampled
// public coins such that any third party can check, without learning the
// noise or any client's input, that the release equals the true aggregate
// plus honestly sampled Binomial noise.
//
// # Quick start
//
//	bits := []bool{true, false, true, true}
//	res, err := verifiabledp.Count(bits, verifiabledp.Options{Epsilon: 1, Delta: 1e-6})
//	// res.Release.Estimate[0] ≈ 3, and res.Transcript audits publicly:
//	err = verifiabledp.Audit(res.Public, res.Transcript)
//
// For the multi-server (MPC) deployment and histograms, see Histogram and
// the Setup/Run layer re-exported from internal/vdp. Services that receive
// submissions over time should use the streaming Session API (NewSession /
// Submit / Finalize / Reset), which verifies each client eagerly on arrival
// and turns one session into many releases; Count, Histogram and Run are
// one-epoch sessions that admit their clients as one batch. The examples/
// directory contains runnable end-to-end scenarios including streaming
// aggregation, attack detection and third-party auditing.
package verifiabledp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/group"
	"repro/internal/store"
	"repro/internal/vdp"
)

// Re-exported protocol types. The full protocol layer lives in
// internal/vdp; these aliases are the supported public surface.
type (
	// Config describes a deployment (group, provers K, bins M, ε, δ).
	Config = vdp.Config
	// Public is the shared public parameters established by Setup.
	Public = vdp.Public
	// Release is a verified noisy release with debiased estimates.
	Release = vdp.Release
	// Transcript is the public record that third parties can audit.
	Transcript = vdp.Transcript
	// RunResult bundles a release with its transcript and client verdicts.
	RunResult = vdp.RunResult
	// RunOptions configures a protocol run (adversary injection, RNG).
	RunOptions = vdp.RunOptions
	// Malice enumerates prover deviations for adversarial testing.
	Malice = vdp.Malice
	// ClientPublic is a client's bulletin-board submission.
	ClientPublic = vdp.ClientPublic
	// ClientPayload is a client's private per-prover message.
	ClientPayload = vdp.ClientPayload
	// ClientSubmission bundles the two.
	ClientSubmission = vdp.ClientSubmission
	// Prover is the prover-side state machine.
	Prover = vdp.Prover
	// Verifier is the public verifying algorithm.
	Verifier = vdp.Verifier
	// Session is the streaming aggregation surface: Submit clients
	// incrementally (verified eagerly as they arrive), Finalize the epoch's
	// release, Reset for the next epoch.
	Session = vdp.Session
	// SessionOptions configures a Session (parallelism, determinism seed,
	// durable store, shard count, budget ledger).
	SessionOptions = vdp.SessionOptions
	// ShardedSession is the scale-out front door: client IDs are
	// consistent-hashed across independent sub-sessions so Submits on
	// different shards never contend on a shared lock, and Finalize merges
	// the per-shard transcripts into one auditable epoch.
	ShardedSession = vdp.ShardedSession
	// ShardedResult is a finalized sharded epoch: per-shard results, the
	// combined release, and the merged transcript digest.
	ShardedResult = vdp.ShardedResult
	// Group is a commitment group (see GroupP256, GroupSchnorr2048).
	Group = group.Group
	// BoardLog is the append-only, replayable bulletin-board store a
	// durable Session writes to (see SessionOptions.Store, OpenFileLog,
	// NewMemLog).
	BoardLog = store.BoardLog
	// FileLog is the durable file-backed BoardLog: length-framed,
	// CRC-checksummed records, fsync'd on append, torn-tail recovery on
	// open.
	FileLog = store.FileLog
	// MemLog is the in-memory BoardLog (the implicit default: the board
	// dies with the process).
	MemLog = store.MemLog
	// SegmentedLog is the durable store of a sharded session: one board-log
	// segment per shard plus a manifest binding them into merged epochs.
	SegmentedLog = store.SegmentedLog
)

// Sentinel errors re-exported for errors.Is checks.
var (
	ErrBadConfig    = vdp.ErrBadConfig
	ErrClientReject = vdp.ErrClientReject
	ErrProverCheat  = vdp.ErrProverCheat
	ErrAuditFail    = vdp.ErrAuditFail
)

// GroupP256 returns the elliptic-curve commitment group (NIST P-256).
func GroupP256() Group { return group.P256() }

// GroupSchnorr2048 returns the finite-field commitment group G_q ⊂ Z*_p
// (2048-bit modulus, 256-bit prime-order subgroup) — the paper's faster
// deployment.
func GroupSchnorr2048() Group { return group.Schnorr2048() }

// Setup validates a configuration and derives public parameters.
func Setup(cfg Config) (*Public, error) { return vdp.Setup(cfg) }

// NewSession opens a streaming aggregation session over pub: submissions
// are admitted (and verified) as they arrive — Submit for one, SubmitBatch
// for a frame of many, the same admission path — the verifiable release is
// produced by Finalize, and Reset reopens the session for the next epoch.
// This is the primary API for services that receive client submissions
// incrementally; Run and the Count/Histogram helpers are batch conveniences
// layered on top of it.
func NewSession(pub *Public, opts SessionOptions) (*Session, error) {
	return vdp.NewSession(pub, opts)
}

// OpenFileLog opens (or creates) a durable board log at path, recovering a
// torn tail left by a crash mid-append. Hand it to SessionOptions.Store to
// make the session's bulletin board survive restarts, and to ResumeSession
// to pick an interrupted epoch back up.
func OpenFileLog(path string, opts ...store.Option) (*FileLog, error) {
	return store.OpenFileLog(path, opts...)
}

// OpenFileLogReadOnly opens an existing board log for offline auditing:
// the file is never created, written, or truncated, so a write-protected
// published copy is valid input. Appending to it fails.
func OpenFileLogReadOnly(path string) (*FileLog, error) {
	return store.OpenFileLogReadOnly(path)
}

// NewMemLog creates an in-memory board log, useful in tests and as an
// explicit stand-in for the durable store.
func NewMemLog() *MemLog { return store.NewMemLog() }

// NewShardedSession opens a sharded streaming session: SessionOptions.Shards
// sub-sessions, each with its own worker-pool slice, deterministic
// substream fork, and (with SessionOptions.Segmented) board-log segment.
// Submit routes each client to ShardOf(id, shards) without any shared lock;
// Finalize closes every shard in parallel and merges the transcripts. With
// Shards = 1 the merged transcript digest is byte-identical to a plain
// Session's under the same seed.
func NewShardedSession(pub *Public, opts SessionOptions) (*ShardedSession, error) {
	return vdp.NewShardedSession(pub, opts)
}

// ResumeShardedSession reconstructs a sharded session from its segmented
// board log after a crash or restart: every shard segment is replayed as
// ResumeSession would, interrupted Resets are rolled forward, shards sealed
// before a crash mid-finalize keep their transcripts for the re-merge, and a
// missing manifest merged-seal record is healed from the segment seals. The
// resumed epoch finalizes to the same merged digest an uninterrupted run
// would have produced (byte-identical when opts.Rand carries the original
// seed).
func ResumeShardedSession(ctx context.Context, pub *Public, opts SessionOptions) (*ShardedSession, error) {
	return vdp.ResumeShardedSession(ctx, pub, opts)
}

// OpenSegmentedLog opens (or creates) the segmented board log for a sharded
// session under dir: one append-only segment per shard plus a manifest
// recording the fixed shard count and, per finalized epoch, the merged
// transcript digest. Pass shards = 0 to adopt an existing directory's count.
func OpenSegmentedLog(dir string, shards int, opts ...store.Option) (*SegmentedLog, error) {
	return store.OpenSegmentedLog(dir, shards, opts...)
}

// OpenSegmentedLogReadOnly opens an existing segmented board log for offline
// auditing; no file is created, written, or truncated.
func OpenSegmentedLogReadOnly(dir string) (*SegmentedLog, error) {
	return store.OpenSegmentedLogReadOnly(dir)
}

// ShardOf returns the shard that owns clientID in a deployment with the
// given shard count — the same pure hash every router, server, and auditor
// uses, so remote submitters can address the right shard endpoint.
func ShardOf(clientID, shards int) int { return vdp.ShardOf(clientID, shards) }

// MergedTranscriptDigest pins a sharded epoch: the per-shard transcript
// digests combined in shard (merge) order. With one shard it equals the
// plain transcript digest.
func MergedTranscriptDigest(pub *Public, shards []*Transcript) []byte {
	return vdp.MergedTranscriptDigest(pub, shards)
}

// AuditMerged audits a merged (sharded) epoch from its per-shard
// transcripts: each shard is fully re-verified, the shard map is checked
// (every client on its assigned shard, none on two), and the combined
// release must equal the recomputed merge.
func AuditMerged(ctx context.Context, pub *Public, shards []*Transcript, release *Release, workers int) error {
	return vdp.AuditMerged(ctx, pub, shards, release, workers)
}

// AuditSegmentedLog audits a merged epoch offline from a segmented board
// log alone: every shard segment is audited exactly like AuditLog audits a
// single log, and the recomputed merged digest must match the manifest's
// merged-seal record. epoch < 0 selects the latest merged-sealed epoch.
func AuditSegmentedLog(ctx context.Context, pub *Public, seg *SegmentedLog, epoch, workers int) error {
	return vdp.AuditSegmentedLog(ctx, pub, seg, epoch, workers)
}

// ResumeSession reconstructs a session from its board log after a crash or
// restart: the last open epoch's submissions are re-admitted in their
// original board order (re-verifying any whose verdicts were not yet
// persisted), so the resumed session finalizes to the same transcript an
// uninterrupted run would have produced — byte-identical when opts.Rand
// carries the original seed.
func ResumeSession(ctx context.Context, pub *Public, opts SessionOptions) (*Session, error) {
	return vdp.ResumeSession(ctx, pub, opts)
}

// AuditLog audits a sealed epoch offline from a board log alone: the sealed
// transcript is fully re-verified (exactly Audit) and cross-checked against
// the log's own per-arrival submission records. epoch < 0 selects the
// latest sealed epoch; workers follows the AuditParallel convention.
func AuditLog(ctx context.Context, pub *Public, log BoardLog, epoch, workers int) error {
	return vdp.AuditLog(ctx, pub, log, epoch, workers)
}

// SealedEpochs lists the epochs a board log has sealed, in order.
func SealedEpochs(log BoardLog) ([]int, error) { return vdp.SealedEpochs(log) }

// Run executes a complete protocol instance locally (clients, K provers,
// public verifier, Morra coin sampling) and returns the verified release
// with its audit transcript. It is a one-epoch Session that admits every
// client with one SubmitBatch and finalizes.
func Run(pub *Public, choices []int, opts *RunOptions) (*RunResult, error) {
	return vdp.Run(pub, choices, opts)
}

// RunContext is Run with cancellation: every stage checks ctx and returns
// ctx.Err() promptly once it is cancelled.
func RunContext(ctx context.Context, pub *Public, choices []int, opts *RunOptions) (*RunResult, error) {
	return vdp.RunContext(ctx, pub, choices, opts)
}

// Audit replays every public check from a transcript; nil means an
// independent auditor accepts the release. Client-board and coin proofs are
// verified with random-linear-combination batches spread over every core.
func Audit(pub *Public, t *Transcript) error { return vdp.Audit(pub, t) }

// AuditContext is Audit with cancellation.
func AuditContext(ctx context.Context, pub *Public, t *Transcript) error {
	return vdp.AuditContext(ctx, pub, t)
}

// AuditParallel is Audit with an explicit worker-pool width (0 = all cores,
// 1 = sequential). The verdict is identical at every width.
func AuditParallel(pub *Public, t *Transcript, workers int) error {
	return vdp.AuditParallel(pub, t, workers)
}

// Options configures the high-level Count and Histogram helpers.
type Options struct {
	// Epsilon and Delta are the DP parameters (per prover). Required
	// unless Coins is set.
	Epsilon float64
	Delta   float64
	// Servers is the number of provers K; 0 or 1 selects the trusted-
	// curator model.
	Servers int
	// Group selects the commitment group; nil = P-256.
	Group Group
	// Coins overrides the calibrated per-prover noise coin count.
	Coins int
	// Rand overrides the randomness source (nil = crypto/rand). When set,
	// one root seed is read and expanded into per-task substreams, so the
	// same seed yields an identical transcript at every Parallelism.
	Rand io.Reader
	// Parallelism is the run's worker-pool width; 0 selects
	// runtime.GOMAXPROCS(0) (every core), 1 forces sequential execution.
	Parallelism int
}

func (o Options) config(bins int) Config {
	k := o.Servers
	if k < 1 {
		k = 1
	}
	return Config{
		Group:   o.Group,
		Provers: k,
		Bins:    bins,
		Epsilon: o.Epsilon,
		Delta:   o.Delta,
		Coins:   o.Coins,
	}
}

// CountResult is the outcome of a high-level helper run.
type CountResult struct {
	// Public holds the deployment's public parameters; an auditor can
	// reconstruct an equivalent value from the configuration alone.
	Public *Public
	// Release is the verified noisy release with debiased estimates.
	Release *Release
	// Transcript is the public record behind the release; pass it to Audit.
	Transcript *Transcript
	// Rejected maps client index to the (publicly attributable) reason the
	// input was excluded.
	Rejected map[int]error
}

// Count releases a verifiable DP count of the true bits: the number of
// clients whose bit is set, plus K copies of Binomial(nb, ½) noise, with a
// public transcript proving the noise was honest. Release.Estimate[0] is
// the debiased estimate.
func Count(bits []bool, opts Options) (*CountResult, error) {
	if len(bits) == 0 {
		return nil, fmt.Errorf("%w: no client inputs", ErrBadConfig)
	}
	pub, err := Setup(opts.config(1))
	if err != nil {
		return nil, err
	}
	choices := make([]int, len(bits))
	for i, b := range bits {
		if b {
			choices[i] = 1
		}
	}
	res, err := vdp.Run(pub, choices, &vdp.RunOptions{Rand: opts.Rand, Parallelism: opts.Parallelism})
	if err != nil {
		return nil, err
	}
	return &CountResult{Public: pub, Release: res.Release, Transcript: res.Transcript, Rejected: res.RejectedClients}, nil
}

// Histogram releases a verifiable DP M-bin histogram of the client
// choices (each in [0, bins)).
func Histogram(choices []int, bins int, opts Options) (*CountResult, error) {
	if len(choices) == 0 {
		return nil, fmt.Errorf("%w: no client inputs", ErrBadConfig)
	}
	if bins < 2 {
		return nil, fmt.Errorf("%w: histogram needs at least 2 bins", ErrBadConfig)
	}
	pub, err := Setup(opts.config(bins))
	if err != nil {
		return nil, err
	}
	res, err := vdp.Run(pub, choices, &vdp.RunOptions{Rand: opts.Rand, Parallelism: opts.Parallelism})
	if err != nil {
		return nil, err
	}
	return &CountResult{Public: pub, Release: res.Release, Transcript: res.Transcript, Rejected: res.RejectedClients}, nil
}
