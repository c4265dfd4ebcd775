package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeRecord exercises the log-record decoder with hostile bytes: any
// input either fails to parse or round-trips through the canonical encoder.
// Board logs can be handed between parties (a server's log is an auditor's
// input), so the decoder must never panic or over-allocate on garbage. CI
// runs this target as a short -fuzztime smoke pass alongside the vdp wire
// decoders.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range []*Record{
		{Kind: 1, Epoch: 0, Payload: []byte("submission")},
		{Kind: 3, Epoch: 7, Payload: nil},
	} {
		f.Add(EncodeRecord(rec))
	}
	valid := EncodeRecord(&Record{Kind: 2, Epoch: 1, Payload: bytes.Repeat([]byte{7}, 40)})
	f.Add(valid[:len(valid)/2])                       // torn tail
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // hostile length
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeRecord(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d bytes of %d", n, len(b))
		}
		enc := EncodeRecord(rec)
		if !bytes.Equal(enc, b[:n]) {
			t.Fatalf("accepted record is not canonical: %x re-encodes to %x", b[:n], enc)
		}
	})
}

// FuzzTailerResync: for an arbitrary byte tail welded onto a valid log
// header, crash recovery (OpenFileLog) and a live tailer must agree exactly
// — the tailer yields precisely the records recovery committed, in order,
// then reports ErrNoRecord, and never surfaces corruption from inside the
// region recovery vouched for. This pins the committed-offset gating that
// keeps a live audit from reading torn or in-flight bytes. The offset index
// recovery builds must agree too: ReadFrom(i), for every i in [0, Len()],
// yields the recovered records from i on at the offsets a ReadFrom(0) walk
// reports, and an index outside that range is an error, never a panic.
func FuzzTailerResync(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeRecord(&Record{Kind: 1, Epoch: 0, Payload: []byte("whole")}))
	torn := EncodeRecord(&Record{Kind: 2, Epoch: 1, Payload: []byte("torn in half")})
	f.Add(append(append([]byte{}, torn...), torn[:len(torn)/2]...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, append(append([]byte{}, fileMagic...), data...), 0o600); err != nil {
			t.Fatal(err)
		}
		l, err := OpenFileLog(path)
		if err != nil {
			// Recovery refused the file outright; nothing to cross-check.
			return
		}
		defer l.Close()
		recs, err := l.Snapshot()
		if err != nil {
			t.Fatalf("recovered log refuses Snapshot: %v", err)
		}
		if l.Len() != len(recs) {
			t.Fatalf("Len = %d, recovery committed %d records", l.Len(), len(recs))
		}
		var offs []int64
		for i := 0; i <= len(recs); i++ {
			tl, err := l.ReadFrom(i)
			if err != nil {
				t.Fatalf("recovered log refuses ReadFrom(%d): %v", i, err)
			}
			for j := i; j < len(recs); j++ {
				rec, off, err := tl.Next()
				if err != nil {
					t.Fatalf("ReadFrom(%d), record %d: recovery committed it but the tailer returned %v", i, j, err)
				}
				want := recs[j]
				if rec.Kind != want.Kind || rec.Epoch != want.Epoch || !bytes.Equal(rec.Payload, want.Payload) {
					t.Fatalf("ReadFrom(%d), record %d: tailer disagrees with recovery", i, j)
				}
				if i == 0 {
					offs = append(offs, off)
				} else if off != offs[j] {
					t.Fatalf("ReadFrom(%d), record %d at offset %d, the walk from 0 found it at %d", i, j, off, offs[j])
				}
			}
			if _, _, err := tl.Next(); err != ErrNoRecord {
				t.Fatalf("ReadFrom(%d): past the committed region the tailer returned %v, want ErrNoRecord", i, err)
			}
			tl.Close()
		}
		for _, bad := range []int{-1, len(recs) + 1} {
			if _, err := l.ReadFrom(bad); err == nil {
				t.Fatalf("ReadFrom(%d) of a %d-record log succeeded", bad, len(recs))
			}
		}
	})
}
