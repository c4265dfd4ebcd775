package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// Record is one appended bulletin-board entry. Kind tags the payload's
// meaning for the protocol layer (internal/vdp defines the kinds it uses),
// Epoch is the session epoch the record belongs to, and Payload is an opaque
// wire-encoded body.
type Record struct {
	Kind    uint8
	Epoch   uint32
	Payload []byte
}

// BoardLog is the writer's surface of an append-only, replayable
// bulletin-board transcript. Append must be durable on return for
// implementations that claim durability; AppendNoSync and Sync split that
// into an ordered write and a later flush (group commit). Replay and
// Snapshot observe every record appended so far, in append order.
// Implementations must be safe for concurrent use.
type BoardLog interface {
	// Append adds one record to the end of the log.
	Append(rec *Record) error
	// AppendNoSync adds one record in order without waiting for stable
	// storage. Pair it with Sync before acknowledging the record to anyone:
	// several writers can AppendNoSync under their own ordering locks and
	// share one flush, instead of serializing a flush each.
	AppendNoSync(rec *Record) error
	// Sync makes every record appended so far durable.
	Sync() error
	// Snapshot returns a copy of every record in append order.
	Snapshot() ([]*Record, error)
	// Replay streams every record in append order to fn, stopping at the
	// first error fn returns (which Replay then propagates).
	Replay(fn func(*Record) error) error
	// Close releases the log's resources. A closed log rejects Append.
	Close() error
}

// Log is a BoardLog that readers can follow by record index: every log this
// package makes implements it. Len and ReadFrom cover the log's published
// records — for a ReplicatedLog the mirrored prefix, for the others every
// record.
type Log interface {
	BoardLog
	// Len returns how many published records the log holds.
	Len() int
	// ReadFrom opens a Tailer whose first Next returns record index (a
	// Tailer at Len is caught up). An index below 0 or above Len is an
	// error.
	ReadFrom(index int) (Tailer, error)
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("store: log is closed")

// maxRecordLen bounds a decoded record body (64 MiB) so a corrupted or
// hostile length prefix cannot force an unbounded allocation.
const maxRecordLen = 64 << 20

// bodyHeaderLen is the fixed prefix of a record body: kind byte + u32 epoch.
const bodyHeaderLen = 5

// EncodeRecord frames one record for the file log:
// u32 length | kind | u32 epoch | payload | u32 crc32(body).
func EncodeRecord(rec *Record) []byte {
	body := make([]byte, bodyHeaderLen+len(rec.Payload))
	body[0] = rec.Kind
	binary.BigEndian.PutUint32(body[1:5], rec.Epoch)
	copy(body[bodyHeaderLen:], rec.Payload)

	out := make([]byte, 4+len(body)+4)
	binary.BigEndian.PutUint32(out[:4], uint32(len(body)))
	copy(out[4:], body)
	binary.BigEndian.PutUint32(out[4+len(body):], crc32.ChecksumIEEE(body))
	return out
}

// DecodeRecord parses one framed record from the front of b, returning the
// record and the number of bytes consumed. io.ErrUnexpectedEOF-compatible
// truncation is reported as errTruncated so callers can distinguish a torn
// tail (recoverable: truncate) from a corrupted body (CRC mismatch).
func DecodeRecord(b []byte) (*Record, int, error) {
	if len(b) < 4 {
		return nil, 0, errTruncated
	}
	n := binary.BigEndian.Uint32(b[:4])
	if n < bodyHeaderLen || n > maxRecordLen {
		return nil, 0, fmt.Errorf("store: record length %d out of range", n)
	}
	if uint32(len(b)-4) < n+4 {
		return nil, 0, errTruncated
	}
	body := b[4 : 4+n]
	sum := binary.BigEndian.Uint32(b[4+n : 8+n])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, 0, fmt.Errorf("store: record checksum mismatch")
	}
	rec := &Record{
		Kind:    body[0],
		Epoch:   binary.BigEndian.Uint32(body[1:5]),
		Payload: append([]byte(nil), body[bodyHeaderLen:]...),
	}
	return rec, int(4 + n + 4), nil
}

// errTruncated marks an incomplete record at the end of a buffer — the torn
// tail a crash mid-append leaves behind.
var errTruncated = errors.New("store: truncated record")

// MemLog is the in-memory BoardLog: today's pre-durability behavior, where
// the board lives and dies with the process. It is the implicit default when
// no store is configured and is also useful in tests.
type MemLog struct {
	mu     sync.Mutex
	recs   []*Record
	closed bool
}

// NewMemLog creates an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append implements BoardLog. The record's payload is copied, so callers may
// reuse their buffers.
func (l *MemLog) Append(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	cp := &Record{Kind: rec.Kind, Epoch: rec.Epoch, Payload: append([]byte(nil), rec.Payload...)}
	l.recs = append(l.recs, cp)
	return nil
}

// AppendNoSync implements BoardLog; a memory log has nothing to flush.
func (l *MemLog) AppendNoSync(rec *Record) error { return l.Append(rec) }

// Sync implements BoardLog and does nothing.
func (l *MemLog) Sync() error { return nil }

// Snapshot implements BoardLog.
func (l *MemLog) Snapshot() ([]*Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Record, len(l.recs))
	copy(out, l.recs)
	return out, nil
}

// Replay implements BoardLog. It replays a snapshot, so fn may append.
func (l *MemLog) Replay(fn func(*Record) error) error {
	recs, _ := l.Snapshot()
	for _, rec := range recs {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Len implements Log.
func (l *MemLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// ReadFrom implements Log; the tailer's offsets are record indices.
func (l *MemLog) ReadFrom(index int) (Tailer, error) {
	if err := checkIndex(index, l.Len()); err != nil {
		return nil, err
	}
	return &memTailer{log: l, idx: index}, nil
}

// Close implements BoardLog.
func (l *MemLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}
