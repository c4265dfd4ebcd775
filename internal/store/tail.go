package store

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrNoRecord is returned by Tailer.Next when the log holds no complete
// record past the tailer's cursor yet. It is the "try again later" signal a
// live follower polls on — never an indication of corruption.
var ErrNoRecord = errors.New("store: no record available yet")

// Tailer follows a board log incrementally: each Next returns the next
// record in append order together with the byte offset (file logs) or
// record index (memory logs) it starts at. When the log has no further
// complete record, Next returns ErrNoRecord; the caller polls again after
// the writer makes progress. A corruption error does not advance the
// cursor, so a follower re-reading the same offset sees the same verdict —
// a tail never silently skips evidence.
type Tailer interface {
	// Next returns the next record and the offset it starts at. With no
	// complete record available the error is ErrNoRecord.
	Next() (*Record, int64, error)
	// Close releases the tailer's read handle. The underlying log is
	// unaffected.
	Close() error
}

// checkIndex refuses a ReadFrom index outside [0, n].
func checkIndex(index, n int) error {
	if index < 0 || index > n {
		return fmt.Errorf("store: read from record %d of a %d-record log", index, n)
	}
	return nil
}

// fileTailer tails a FileLog through its own read handle. Reads are gated
// on the log's committed size — the append offset advanced only after a
// full frame is on disk — so a tailer never parses the bytes of an append
// still in flight or of a torn fragment a crash left behind.
type fileTailer struct {
	log *FileLog
	f   *os.File
	off int64
	idx int
}

// ReadFrom implements Log: the tailer starts at record index's byte offset,
// looked up in the index the recovery scan built, so a reader pays only for
// the records it reads. It reads through a separate read-only handle, so
// tailing never disturbs appends and is safe to run concurrently with them.
func (l *FileLog) ReadFrom(index int) (Tailer, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if err := checkIndex(index, len(l.offs)); err != nil {
		return nil, err
	}
	off := l.size
	if index < len(l.offs) {
		off = l.offs[index]
	}
	f, err := os.Open(l.path)
	if err != nil {
		return nil, fmt.Errorf("store: tail: %w", err)
	}
	return &fileTailer{log: l, f: f, off: off, idx: index}, nil
}

// Tail is ReadFrom(0), a live follower from the first record. It is kept
// only for bench/sut.go (nodeBoard.TailCatchUp); new code calls ReadFrom.
func (l *FileLog) Tail() (Tailer, error) { return l.ReadFrom(0) }

// Next implements Tailer. A record whose bytes fail framing or CRC checks
// inside the committed region is corruption (the log itself vouches a whole
// record lives there), reported with its record index and byte offset; the
// cursor does not advance past it.
func (t *fileTailer) Next() (*Record, int64, error) {
	t.log.mu.Lock()
	limit := t.log.size // every byte below it is a whole, CRC'd record
	t.log.mu.Unlock()
	if t.off >= limit {
		return nil, t.off, ErrNoRecord
	}
	r := io.NewSectionReader(t.f, t.off, limit-t.off)
	rec, n, err := readRecord(r)
	if err == io.EOF {
		return nil, t.off, ErrNoRecord
	}
	if err != nil {
		if errors.Is(err, errTruncated) {
			// The committed size promises a complete record here; running
			// out of bytes means the length prefix was tampered with.
			err = errors.New("store: record overruns the committed log")
		}
		return nil, t.off, fmt.Errorf("store: tail: record %d (offset %d): %w", t.idx, t.off, err)
	}
	off := t.off
	t.off += int64(n)
	t.idx++
	return rec, off, nil
}

// Close implements Tailer.
func (t *fileTailer) Close() error { return t.f.Close() }

// memTailer tails a MemLog; offsets are record indices.
type memTailer struct {
	log *MemLog
	idx int
}

// Next implements Tailer.
func (t *memTailer) Next() (*Record, int64, error) {
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	if t.idx >= len(t.log.recs) {
		return nil, int64(t.idx), ErrNoRecord
	}
	rec := t.log.recs[t.idx]
	off := int64(t.idx)
	t.idx++
	return rec, off, nil
}

// Close implements Tailer.
func (t *memTailer) Close() error { return nil }
