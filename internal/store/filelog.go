package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// fileMagic identifies a board-log file; the trailing byte is the format
// version. Openers reject unknown versions outright.
var fileMagic = []byte{'v', 'd', 'p', 'l', 'o', 'g', 1}

// FileLog is the durable BoardLog: a single append-only file of framed,
// checksummed records. Every Append is written and (by default) fsync'd
// before it returns, so a record acknowledged to a client survives a crash.
type FileLog struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	size     int64   // valid bytes (append offset)
	offs     []int64 // byte offset of every record, by index
	sync     bool
	closed   bool
	broken   bool // a failed append could not be rolled back
	readOnly bool // opened for auditing: no appends, no truncation

	// truncated reports how many trailing bytes OpenFileLog discarded as a
	// torn tail when it recovered the file.
	truncated int64
}

// Option configures OpenFileLog.
type Option func(*FileLog)

// WithNoSync disables the per-append fsync. Appends become much faster but a
// machine crash (not just a process crash) can lose the unsynced suffix;
// benchmarks and tests use it, durable servers should not.
func WithNoSync() Option { return func(l *FileLog) { l.sync = false } }

// OpenFileLog opens (or creates) the append-only board log at path. An
// existing file is scanned record by record: every intact record is kept, a
// torn tail — the partial record a crash mid-append leaves — is truncated
// away, and a checksum mismatch before the tail is reported as corruption
// rather than silently skipped.
func OpenFileLog(path string, opts ...Option) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l := &FileLog{f: f, path: path, sync: true}
	for _, opt := range opts {
		opt(l)
	}
	if err := l.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// OpenFileLogReadOnly opens an existing board log for auditing: the file is
// never created, written, fsync'd, or truncated — a read-only copy of a
// published log (or a log on a read-only mount) audits fine, and a torn
// tail is skipped in place (reported by Truncated) instead of being cut off
// the evidence. Append returns an error.
func OpenFileLogReadOnly(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l := &FileLog{f: f, path: path, readOnly: true}
	if err := l.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// recover validates the magic header (writing it into an empty file), scans
// every record, and positions the append offset after the last intact one.
func (l *FileLog) recover() error {
	info, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if info.Size() == 0 {
		if l.readOnly {
			return fmt.Errorf("store: %s is empty, not a board log", l.path)
		}
		if _, err := l.f.Write(fileMagic); err != nil {
			return fmt.Errorf("store: writing header: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		l.size = int64(len(fileMagic))
		return nil
	}
	if info.Size() < int64(len(fileMagic)) {
		// A crash between creating the file and fsyncing the header can
		// leave a partial magic. If what is there is a prefix of our magic,
		// this is our own torn header: rewrite it. Anything else is a
		// foreign file.
		part := make([]byte, info.Size())
		if _, err := io.ReadFull(l.f, part); err != nil {
			return fmt.Errorf("store: %s: %w", l.path, err)
		}
		if string(part) != string(fileMagic[:len(part)]) {
			return fmt.Errorf("store: %s is not a board log", l.path)
		}
		if l.readOnly {
			return fmt.Errorf("store: %s holds only a torn header, nothing to audit", l.path)
		}
		if err := l.f.Truncate(0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := l.f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := l.f.Write(fileMagic); err != nil {
			return fmt.Errorf("store: writing header: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		l.size = int64(len(fileMagic))
		return nil
	}
	hdr := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(l.f, hdr); err != nil {
		return fmt.Errorf("store: %s is not a board log: %w", l.path, err)
	}
	if string(hdr[:len(hdr)-1]) != string(fileMagic[:len(fileMagic)-1]) {
		return fmt.Errorf("store: %s is not a board log", l.path)
	}
	if hdr[len(hdr)-1] != fileMagic[len(fileMagic)-1] {
		return fmt.Errorf("store: %s uses log format version %d (this build speaks %d)",
			l.path, hdr[len(hdr)-1], fileMagic[len(fileMagic)-1])
	}

	offset := int64(len(fileMagic))
	r := bufio.NewReader(l.f)
	for {
		n, err := scanRecord(r)
		tail := false
		if err != nil && !errors.Is(err, errTruncated) && err != io.EOF {
			// A malformed final record is a torn write whose length prefix
			// made it to disk before the body (fsync orders nothing within
			// one append): if nothing follows it, recover it like any other
			// torn tail. Malformed bytes with more records after them are
			// genuine corruption.
			if _, perr := r.Peek(1); perr == io.EOF {
				tail = true
			}
		}
		if errors.Is(err, errTruncated) || tail {
			// Torn tail: a crash interrupted the last append. Everything
			// before it is intact; drop the fragment — except in read-only
			// mode, where the evidence is left untouched and the fragment is
			// merely skipped (l.size bounds every replay to intact records).
			l.truncated = info.Size() - offset
			if !l.readOnly {
				if err := l.f.Truncate(offset); err != nil {
					return fmt.Errorf("store: truncating torn tail: %w", err)
				}
			}
			break
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("store: %s: record %d (offset %d): %w", l.path, len(l.offs), offset, err)
		}
		l.offs = append(l.offs, offset)
		offset += int64(n)
	}
	if _, err := l.f.Seek(offset, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	l.size = offset
	return nil
}

// readFrame pulls one framed record's bytes off a stream: the length
// prefix, then body+CRC. io.EOF at a record boundary is returned as io.EOF;
// a record cut short by the end of the stream is errTruncated. Any other
// read error (a failing disk, not a torn tail) propagates as itself, so
// recovery never mistakes an I/O fault for a crash fragment and truncates
// committed records away. The returned slice is body|crc, freshly allocated.
func readFrame(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, errTruncated
		}
		return nil, fmt.Errorf("store: reading record header: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < bodyHeaderLen || n > maxRecordLen {
		return nil, fmt.Errorf("store: record length %d out of range", n)
	}
	rest := make([]byte, n+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, errTruncated
		}
		return nil, fmt.Errorf("store: reading record body: %w", err)
	}
	return rest, nil
}

// checkFrame validates a body|crc frame, returning the body.
func checkFrame(rest []byte) ([]byte, error) {
	body := rest[:len(rest)-4]
	sum := binary.BigEndian.Uint32(rest[len(rest)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("store: record checksum mismatch")
	}
	return body, nil
}

// scanRecord validates one record — framing and CRC — without materializing
// it, for the open-time recovery scan. Returns bytes consumed.
func scanRecord(r io.Reader) (int, error) {
	rest, err := readFrame(r)
	if err != nil {
		return 0, err
	}
	if _, err := checkFrame(rest); err != nil {
		return 0, err
	}
	return 4 + len(rest), nil
}

// readRecord decodes one framed record from a stream; see readFrame for the
// error contract. The record's payload aliases the freshly-read buffer, so
// no extra copies are made.
func readRecord(r io.Reader) (*Record, int, error) {
	rest, err := readFrame(r)
	if err != nil {
		return nil, 0, err
	}
	body, err := checkFrame(rest)
	if err != nil {
		return nil, 0, err
	}
	rec := &Record{
		Kind:    body[0],
		Epoch:   binary.BigEndian.Uint32(body[1:5]),
		Payload: body[bodyHeaderLen:],
	}
	return rec, 4 + len(rest), nil
}

// Len implements Log: how many intact records the log holds.
func (l *FileLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.offs)
}

// Truncated reports how many torn-tail bytes were discarded when the log
// was opened (0 for a clean file).
func (l *FileLog) Truncated() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// Append implements BoardLog: frame, write, fsync (unless WithNoSync). A
// record larger than the decoder accepts is refused up front — writing it
// would succeed and then make the log unreadable. A failed or partial write
// is rolled back to the last-known-good offset so a later Append cannot
// strand a garbage fragment mid-file; if even the rollback fails the log is
// marked broken and refuses further appends (reopen to recover).
func (l *FileLog) Append(rec *Record) error {
	return l.append(rec, l.sync)
}

// AppendNoSync implements BoardLog: the record is written in order, and the
// fsync is left to the Sync that ends the commit window.
func (l *FileLog) AppendNoSync(rec *Record) error {
	return l.append(rec, false)
}

// Sync implements BoardLog: one fsync covers every write before it, which
// is what makes group commit work. A log opened WithNoSync stays unsynced
// (benchmarks opt out of durability entirely).
func (l *FileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.readOnly || !l.sync {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return nil
}

func (l *FileLog) append(rec *Record, doSync bool) error {
	if bodyHeaderLen+len(rec.Payload) > maxRecordLen {
		return fmt.Errorf("store: record payload of %d bytes exceeds the %d-byte limit",
			len(rec.Payload), maxRecordLen-bodyHeaderLen)
	}
	enc := EncodeRecord(rec)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.readOnly {
		return fmt.Errorf("store: log was opened read-only for auditing")
	}
	if l.broken {
		return fmt.Errorf("store: log is in a failed state after an unrecoverable append error; reopen it")
	}
	if _, err := l.f.Write(enc); err != nil {
		l.rewindLocked()
		return fmt.Errorf("store: append: %w", err)
	}
	if doSync {
		if err := l.f.Sync(); err != nil {
			l.rewindLocked()
			return fmt.Errorf("store: append sync: %w", err)
		}
	}
	l.offs = append(l.offs, l.size)
	l.size += int64(len(enc))
	return nil
}

// rewindLocked restores the file to the last-known-good offset after a
// failed append, discarding any partial fragment. Callers hold l.mu.
func (l *FileLog) rewindLocked() {
	if err := l.f.Truncate(l.size); err != nil {
		l.broken = true
		return
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.broken = true
	}
}

// Replay implements BoardLog: it streams the file's records (up to the
// current append offset) through a separate read handle, so replay does not
// disturb — and is safe to run concurrently with — appends.
func (l *FileLog) Replay(fn func(*Record) error) error {
	l.mu.Lock()
	limit := l.size
	path := l.path
	l.mu.Unlock()

	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: replay: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(f, hdr); err != nil {
		return fmt.Errorf("store: replay: %w", err)
	}
	r := bufio.NewReader(io.LimitReader(f, limit-int64(len(fileMagic))))
	for {
		rec, _, err := readRecord(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Snapshot implements BoardLog.
func (l *FileLog) Snapshot() ([]*Record, error) {
	var out []*Record
	err := l.Replay(func(rec *Record) error {
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close implements BoardLog: a final fsync (writable logs only), then the
// handle is released.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if !l.readOnly {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return fmt.Errorf("store: close sync: %w", err)
		}
	}
	return l.f.Close()
}
