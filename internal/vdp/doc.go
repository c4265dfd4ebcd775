// Package vdp implements ΠBin, the verifiable differential privacy protocol
// for counting queries and M-bin histograms from Section 4 of the paper
// (Figure 2), in both the trusted-curator (K = 1) and client-server MPC
// (K ≥ 2) settings.
//
// # Roles
//
//   - Clients hold inputs in the language L: a bit for the single counting
//     query (M = 1) or a one-hot vector for an M-bin histogram. Each client
//     additively secret-shares its input across the K provers, broadcasts
//     Pedersen commitments to every share on the public bulletin board, and
//     attaches a zero-knowledge proof that the (derived) committed input is
//     legal (Lines 2-3 of Figure 2).
//
//   - Provers (the curator when K = 1) aggregate the shares they received,
//     generate nb private noise bits each, commit to them, prove in zero
//     knowledge that each commitment opens to a bit (Σ-OR proofs, Lines
//     4-6), XOR them against public Morra coins (Lines 7-9), and publish
//     their noisy share total together with the aggregate commitment
//     randomness (Lines 10-11).
//
//   - The public Verifier validates every proof, homomorphically flips the
//     noise-bit commitments using the public coins (Line 12), and checks
//     that the product of all client-share and adjusted noise commitments
//     equals a commitment to the claimed output (Line 13). Anyone can
//     re-run the verifier from the public transcript (package-level Audit),
//     which is what makes the release *publicly* auditable.
//
// The output of an honest run is y = Σ_k y_k = Q(X) + Σ_k Binomial(nb, ½):
// the counting query plus K independent copies of Binomial noise, exactly
// the ideal functionality M_Bin (equation (7)). Every deviation a
// computationally bounded prover can attempt — non-bit noise commitments,
// biased public coins, tampered aggregates, dropped or injected client
// inputs — is either prevented or detected and attributed (Theorem 4.1).
//
// # Execution surfaces
//
// The protocol runs as a Session on a worker pool whose randomness is
// derived per logical task, never per schedule, so a fixed seed yields a
// byte-identical transcript at every parallelism (TranscriptDigest states
// the property; rand.go implements it). The entry points:
//
//   - Session: the streaming surface. SubmitBatch admits an arrival frame
//     (verified eagerly on the pool, one verdict per member returned to the
//     caller) and Submit is a frame of one, Finalize runs the staged prover
//     pipeline (prove.go) over the already-verified roster, Reset reopens
//     the session for the next epoch.
//
//   - Run / RunWithSubmissions: a one-epoch Session that admits the whole
//     board as one SubmitBatch — one random-linear-combination Σ-OR check
//     deciding client legality for the whole board at once — and finalizes.
//     Audit re-verifies a transcript.
//
//   - ResumeSession: crash recovery. A Session given SessionOptions.Store
//     appends every submission, verdict, epoch seal and reset to an
//     append-only board log (internal/store); ResumeSession replays that
//     log to reconstruct the interrupted epoch — same roster, same board
//     order, and therefore (under the same seed) the same
//     TranscriptDigest. AuditLog re-verifies a sealed epoch offline from
//     the log alone.
//
//   - ShardedSession: the scale-out front door. Client IDs are
//     consistent-hashed (ShardOf) across independent sub-sessions — one
//     roster lock, worker-pool slice, substream fork and board-log segment each
//     (store.SegmentedLog) — so Submits on different shards never contend;
//     Finalize closes the shards in parallel and merges their transcripts
//     into one epoch pinned by MergedTranscriptDigest.
//     ResumeShardedSession and AuditSegmentedLog are the sharded
//     counterparts of ResumeSession and AuditLog.
//
// # Segmented-session core
//
// ShardedSession and SketchSession (hh.go: one sub-session per count-min
// row) are the same thing with a different spread of clients over segments,
// and share one lifecycle: segmentedSession in segmented.go. It owns the K
// sub-Sessions and the manifest — construction of fresh and resumed boards,
// Epoch/Finalized, the parallel finalize fan-out with its
// sealed-segment reuse and retry/consumed rules, Reset, Compact, and healing
// a missing merged seal in the manifest's MergedSeals book (shardstore.go:
// the one merged-seal rule, shared with cluster nodes, their standbys and the
// live tails) — parameterised by the segmentKind (shardSegments,
// rowSegments) that also parameterises the segmented readers. The two
// exported types keep only what differs: ShardOf routing and MergeReleases;
// the row-0 admission gate and assembleSketch. segmented.go is the single
// place to change a lifecycle rule; the frame dispatch that serves any of
// these boards over TCP is internal/server.
//
// # Admission
//
// The write side of the board has one implementation, Session.SubmitBatch
// in batch.go: duplicate screening, budget refusal and charge, the ordered
// appends inside the roster lock, the group-commit window overlapped with
// one folded Σ-OR check, verdict install, and every rollback. Submit — on
// Session, ShardedSession and SketchSession — is a batch of one through it,
// with no rule of its own, and so is Run, whose whole board is one batch: a
// verdict, a log record or a crash-recovery outcome cannot depend on how
// arrivals were framed. batch.go is the single
// place to change an admission rule; grammar.go (below) is its read-side
// twin.
//
// # Board-log grammar
//
// ResumeSession, AuditLog and TailAuditor — and their segmented, sketch-row
// and cross-node compositions — all read a board log through one
// incremental state machine, boardGrammar in grammar.go. It owns every
// accept/reject rule of the record stream (epoch contiguity, one verdict
// per submission, withdraw-only-undecided, the budget-charge chain, seal
// assembly and the positional seal-vs-roster check, snapshot pinning) and
// reports violations as one positional error type; the readers only consume
// its events. grammar.go is the single place to change a rule. The two
// auditors hand the events to one epochVerifier (epochverifier.go), which
// holds every verdict to its submission's board proof, folds the Line-13
// client product and checks the seal: AuditLog is the live tail run to the
// seal.
//
// Wire encodings for every message that crosses a process boundary — or
// lands in the board log — are written on internal/wire, the module's one
// codec, whose read cursor holds the version, count, flag and length rules.
// All encodings lead with a format-version byte (WireVersion) and validate
// every component on decode, so hostile bytes fail to parse instead of
// corrupting a verifier or a recovered session; every accepted input
// re-encodes to itself, which FuzzWire checks in CI.
package vdp
