// Package cluster scales the verifiable-DP curator across machines: one
// single-shard vdp.Session per node, a thin stateless router in front, and
// a small versioned RPC for the only two things that ever cross the
// network — the finalize-merge handshake and audit evidence fetches.
//
// The design keys off one property of the sharded session: shard i of K is
// an ordinary single-shard Session whose randomness is the deterministic
// substream forkShard(i, K) of the root seed. NewShardSession reproduces
// exactly that seeding on a remote machine, so K nodes that admit the same
// submissions as a single-process ShardedSession — partitioned by the same
// ShardOf map — seal byte-identical per-shard transcripts, and the router's
// shard-order merge reproduces the exact MergedTranscriptDigest. Digest
// parity is the cluster's correctness invariant and is pinned by test.
//
// Admission never crosses the network twice: the router peeks the client ID
// at a fixed offset (no decoding, no crypto), forwards the submission to the
// owning node as a batch frame, and relays the verdicts. A down shard costs
// its clients an unavailable verdict, not a dropped connection. Each node
// persists its own board log and recovers independently with
// ResumeShardSession; the merged seal is recorded in every node's merged-seal
// book (vdp.MergedSeals over a sidecar log, mirrored to the node's standby),
// so the router holds no state worth recovering.
package cluster
