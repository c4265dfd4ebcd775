// Package store persists the public bulletin board: an append-only,
// replayable log of every record a verifiable-DP deployment publishes —
// client submissions, per-client verdicts, epoch seals — so the transcript
// survives a process crash and becomes the system of record rather than an
// ephemeral in-memory artifact.
//
// The package is deliberately oblivious to the protocol layer: records are
// (kind, epoch, payload) triples whose payloads are opaque bytes produced by
// the wire encoders in internal/vdp. That keeps the dependency arrow
// pointing one way (vdp imports store, never the reverse) and means a
// hostile or corrupted log can only deliver bytes that the vdp decoders
// fully validate on replay.
//
// A log has two surfaces. BoardLog is the writer's: Append, the group-commit
// pair AppendNoSync/Sync, and the whole-log reads Replay and Snapshot. Log
// adds the reader's: Len and ReadFrom(index), a Tailer from record index on,
// so a follower that has seen i records reads only what came after them.
// Four Log implementations ship:
//
//   - MemLog keeps records in memory. It is the default when no durability
//     is requested and preserves the pre-durability behavior exactly: a
//     crash discards the epoch.
//
//   - FileLog appends records to a single file with per-record length
//     framing and a CRC-32 checksum, fsync'd on every append by default.
//     Opening an existing file replays it to the last intact record and
//     truncates a torn tail (the partial record a crash mid-append leaves
//     behind), which is what makes restart-without-data-loss work: the
//     bytes that were acknowledged are the bytes that are replayed. The
//     same scan builds the record-index-to-offset table ReadFrom seeks by.
//
//   - ReplicatedLog mirrors an inner Log to a standby before acknowledging;
//     its Len and ReadFrom cover only the mirrored prefix.
//
//   - FaultLog fails a FileLog's Nth append on purpose, so crash-recovery
//     tests drive the same group-commit path production stores run.
//
// SegmentedLog composes FileLogs into the sharded layout: one directory
// holding a manifest log (whose first record fixes the shard count) plus
// one segment log per shard, each speaking the exact single-log grammar, so
// a shard's segment replays, resumes, and audits like a standalone board.
//
// The on-disk format is:
//
//	file   := magic record*
//	magic  := "vdplog" version(1 byte)
//	record := u32 length | body | u32 crc32(body)
//	body   := kind(1 byte) | u32 epoch | payload
//
// All integers are big-endian. EncodeRecord and DecodeRecord expose the
// record framing directly; DecodeRecord is fuzzed in CI because log bytes
// are an attack surface when boards are shared between parties.
package store
