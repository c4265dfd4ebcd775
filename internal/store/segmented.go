package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Segmented board-log layout: one directory holding a manifest log plus one
// independent segment log per shard. Each segment is an ordinary FileLog
// speaking the exact single-session record grammar, so a shard's segment can
// be replayed, resumed, and audited with the same machinery as a standalone
// board log. The manifest is itself a FileLog: the store writes a single
// shard-count record at creation (KindSegmentedInit), and the protocol layer
// appends its own epoch-level records (merged-seal digests) after it.
//
//	<dir>/manifest.log      KindSegmentedInit + protocol manifest records
//	<dir>/segment-000.log   shard 0's board log
//	<dir>/segment-001.log   shard 1's board log
//	...
//
// The shard count is fixed at creation: submissions are routed by a hash of
// the client ID, so reshaping the segment set would silently orphan evidence.
// Reopening with a different count is refused.

// KindSegmentedInit is the store-reserved manifest record kind holding the
// directory's shard count. It is always the manifest's first record. Kinds
// at or above it are reserved for the store; protocol layers use lower ones.
const KindSegmentedInit uint8 = 250

// manifestName and segmentName fix the on-disk layout.
const manifestName = "manifest.log"

func segmentName(i int) string { return fmt.Sprintf("segment-%03d.log", i) }

// maxSegments bounds the shard count: generous for any realistic deployment,
// small enough that a corrupted manifest cannot demand millions of file
// handles.
const maxSegments = 4096

// SegmentedLog is a sharded bulletin-board store: K independent append-only
// segment logs coordinated by a manifest. It is not itself a BoardLog —
// each shard writes to its own Segment, which is — but it owns the files'
// lifecycles and the shard-count invariant.
type SegmentedLog struct {
	shards   int
	manifest *FileLog
	segments []*FileLog
	// boards optionally front the segments with alternate BoardLogs (see
	// SetBoard); writers go through Board, readers that need the raw file
	// (tailing, offline audit) keep using Segment.
	boards []BoardLog
}

// OpenSegmentedLog opens (or creates) the segmented board log under dir.
// A fresh directory needs shards >= 1 and records the count in the manifest;
// an existing one recovers each file's torn tail like OpenFileLog and
// verifies that shards (when non-zero) matches the recorded count —
// pass shards = 0 to adopt whatever the manifest says.
func OpenSegmentedLog(dir string, shards int, opts ...Option) (*SegmentedLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	manifest, err := OpenFileLog(filepath.Join(dir, manifestName), opts...)
	if err != nil {
		return nil, err
	}
	s := &SegmentedLog{manifest: manifest}
	if manifest.Len() == 0 {
		if shards < 1 || shards > maxSegments {
			manifest.Close()
			return nil, fmt.Errorf("store: segmented log needs 1..%d shards, got %d", maxSegments, shards)
		}
		var payload [4]byte
		binary.BigEndian.PutUint32(payload[:], uint32(shards))
		if err := manifest.Append(&Record{Kind: KindSegmentedInit, Payload: payload[:]}); err != nil {
			manifest.Close()
			return nil, err
		}
		s.shards = shards
	} else {
		recorded, err := readShardCount(manifest)
		if err != nil {
			manifest.Close()
			return nil, err
		}
		if shards != 0 && shards != recorded {
			manifest.Close()
			return nil, fmt.Errorf("store: segmented log %s holds %d shards, caller wants %d (the shard map is fixed at creation)",
				dir, recorded, shards)
		}
		s.shards = recorded
	}
	for i := 0; i < s.shards; i++ {
		seg, err := OpenFileLog(filepath.Join(dir, segmentName(i)), opts...)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.segments = append(s.segments, seg)
	}
	return s, nil
}

// IsSegmented reports whether dir holds a segmented board log (its manifest
// file exists). Binaries use it to pick the right open path for a store
// directory without re-spelling the on-disk layout.
func IsSegmented(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// OpenSegmentedLogReadOnly opens an existing segmented board log for
// auditing: no file is created, written, or truncated, so a write-protected
// published copy of the directory is valid input.
func OpenSegmentedLogReadOnly(dir string) (*SegmentedLog, error) {
	manifest, err := OpenFileLogReadOnly(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	s := &SegmentedLog{manifest: manifest}
	s.shards, err = readShardCount(manifest)
	if err != nil {
		manifest.Close()
		return nil, err
	}
	for i := 0; i < s.shards; i++ {
		seg, err := OpenFileLogReadOnly(filepath.Join(dir, segmentName(i)))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.segments = append(s.segments, seg)
	}
	return s, nil
}

// readShardCount parses the manifest's leading KindSegmentedInit record.
var errStopReplay = errors.New("store: stop replay")

func readShardCount(manifest *FileLog) (int, error) {
	shards := 0
	first := true
	err := manifest.Replay(func(rec *Record) error {
		if !first {
			return errStopReplay
		}
		first = false
		if rec.Kind != KindSegmentedInit || len(rec.Payload) != 4 {
			return fmt.Errorf("store: %s does not start with a shard-count record", manifestName)
		}
		shards = int(binary.BigEndian.Uint32(rec.Payload))
		return nil
	})
	if err != nil && !errors.Is(err, errStopReplay) {
		return 0, err
	}
	if shards < 1 || shards > maxSegments {
		return 0, fmt.Errorf("store: manifest records %d shards (valid range 1..%d)", shards, maxSegments)
	}
	return shards, nil
}

// Shards returns the fixed shard count.
func (s *SegmentedLog) Shards() int { return s.shards }

// Segment returns shard i's board log.
func (s *SegmentedLog) Segment(i int) *FileLog { return s.segments[i] }

// Board returns the BoardLog writers should use for shard i: the raw segment
// unless SetBoard installed a front for it. Sub-sessions of a sharded store
// write through Board, which is what lets a fault-injection harness slide a
// FaultLog between a single shard and its file.
func (s *SegmentedLog) Board(i int) BoardLog {
	if s.boards != nil && s.boards[i] != nil {
		return s.boards[i]
	}
	return s.segments[i]
}

// SetBoard fronts shard i's segment with an alternate BoardLog (nil restores
// the raw segment). Install fronts before opening sessions over the store;
// the crash-matrix tests use it to trip one shard's appends while the rest
// of the store stays honest.
func (s *SegmentedLog) SetBoard(i int, b BoardLog) {
	if s.boards == nil {
		s.boards = make([]BoardLog, len(s.segments))
	}
	s.boards[i] = b
}

// Manifest returns the manifest log. Protocol layers append their own
// epoch-level records after the store's shard-count record; replayers must
// skip kinds at or above KindSegmentedInit, which are reserved for the store.
func (s *SegmentedLog) Manifest() *FileLog { return s.manifest }

// Empty reports whether the segmented log holds no protocol records yet:
// only the shard-count record in the manifest and no segment records. A
// fresh directory is Empty; one with history must be recovered, not
// re-created over.
func (s *SegmentedLog) Empty() bool {
	if s.manifest.Len() > 1 {
		return false
	}
	for _, seg := range s.segments {
		if seg.Len() > 0 {
			return false
		}
	}
	return true
}

// Close releases every underlying file, reporting the first error but
// attempting all of them.
func (s *SegmentedLog) Close() error {
	var errs []error
	if s.manifest != nil {
		errs = append(errs, s.manifest.Close())
	}
	for _, seg := range s.segments {
		if seg != nil {
			errs = append(errs, seg.Close())
		}
	}
	return errors.Join(errs...)
}
