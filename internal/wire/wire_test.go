package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestBlobLargeAndHostile: a length-prefixed segment bigger than any cap a
// decoder might guess (a seal for a high-nb deployment produces these
// legitimately) must round-trip, while a hostile length prefix with no bytes
// behind it must fail as truncation without allocating.
func TestBlobLargeAndHostile(t *testing.T) {
	big := make([]byte, 9<<20)
	big[0], big[len(big)-1] = 1, 2
	var w Writer
	w.Blob(big)
	r := NewReader("test", w.Bytes())
	got := r.Blob()
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(big) || got[0] != 1 || got[len(got)-1] != 2 {
		t.Fatal("large length-prefixed segment did not round-trip")
	}

	hostile := NewReader("test", []byte{0xff, 0xff, 0xff, 0xff})
	if out := hostile.Blob(); out != nil {
		t.Fatal("hostile length prefix returned data")
	}
	if hostile.Finish() == nil {
		t.Fatal("hostile length prefix accepted")
	}
}

// TestWriterLayout pins the byte layout every encoding in the module is built
// from: big-endian integers, 0/1 flags, u32 length prefixes, and a Mark/Patch
// prefix equal to Blob's.
func TestWriterLayout(t *testing.T) {
	var w Writer
	w.U8(7)
	w.U32(0x01020304)
	w.U64(0x05060708090a0b0c)
	w.Bool(true)
	w.Bool(false)
	w.Blob([]byte("ab"))
	mark := w.Mark()
	w.Raw([]byte("cde"))
	w.Patch(mark)
	want := []byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 0, 0, 0, 0, 2, 'a', 'b', 0, 0, 0, 3, 'c', 'd', 'e'}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("layout %x, want %x", w.Bytes(), want)
	}

	dst := []byte("prefix")
	w2 := NewWriter(dst)
	w2.U8(1)
	if string(w2.Bytes()) != "prefix\x01" {
		t.Fatalf("NewWriter does not append to dst: %q", w2.Bytes())
	}
}

// TestReaderRules: each rule the package comment states, one row each, with
// the text a decoder reports.
func TestReaderRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string // "" = accepted
	}{
		{"version", []byte{1}, func(r *Reader) { r.Version(1) }, ""},
		{"foreign version", []byte{9}, func(r *Reader) { r.Version(1) },
			"test: unsupported wire format version 9 (this build speaks 1)"},
		{"empty version", nil, func(r *Reader) { r.Version(1) }, "test: truncated encoding"},
		{"count", []byte{0, 0, 0, 2, 'x', 'y', 'z', 'w'}, func(r *Reader) { r.Count(2, 2); r.Take(4) }, ""},
		{"count over max", []byte{0, 0, 0, 3, 'x', 'y', 'z'}, func(r *Reader) { r.Count(2, 1) },
			"test: encoding claims 3 elements, limit 2"},
		{"count over bytes left", []byte{0xff, 0xff, 0xff, 0xff, 'x'}, func(r *Reader) { r.Count(1<<40, 1) },
			"test: encoding claims 4294967295 elements of 1 bytes in 1 bytes"},
		// Two elements fit three bytes one byte wide, not two bytes wide.
		{"count over bytes left at width", []byte{0, 0, 0, 2, 'x', 'y', 'z'}, func(r *Reader) { r.Count(2, 2) },
			"test: encoding claims 2 elements of 2 bytes in 3 bytes"},
		{"bool 0", []byte{0}, func(r *Reader) { r.Bool() }, ""},
		{"bool 1", []byte{1}, func(r *Reader) { r.Bool() }, ""},
		{"bool 2", []byte{2}, func(r *Reader) { r.Bool() }, "test: flag byte 2 is neither 0 nor 1"},
		{"trailing", []byte{1, 2}, func(r *Reader) { r.U8() }, "test: 1 trailing bytes in encoding"},
		{"truncated u64", []byte{1, 2, 3}, func(r *Reader) { r.U64() }, "test: truncated encoding"},
		{"rest", []byte{1, 2, 3}, func(r *Reader) { r.U8(); r.Rest() }, ""},
	} {
		r := NewReader("test", tc.in)
		tc.read(&r)
		got := ""
		if err := r.Finish(); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestReaderKeepsFirstError: after a failure every read returns zero values
// without consuming input, Parse does not call its parser, and Finish
// reports the first error, not a later one.
func TestReaderKeepsFirstError(t *testing.T) {
	r := NewReader("test", []byte{9, 0, 0, 0, 1, 0xff})
	r.Version(1)
	first := r.Err()
	if first == nil {
		t.Fatal("foreign version accepted")
	}
	if r.U32() != 0 || r.Count(10, 1) != 0 || r.Blob() != nil || r.Rest() != nil || r.Bool() {
		t.Fatal("a failed reader returned data")
	}
	called := false
	Parse(&r, []byte{1}, func([]byte) (int, error) { called = true; return 1, nil })
	if called {
		t.Fatal("Parse ran its parser on a failed reader")
	}
	if err := r.Finish(); err != first {
		t.Fatalf("Finish reported %v, want the first error %v", err, first)
	}

	boom := errors.New("boom")
	r = NewReader("test", []byte{1, 2})
	if v := Parse(&r, r.Take(1), func([]byte) (int, error) { return 0, boom }); v != 0 || !errors.Is(r.Finish(), boom) {
		t.Fatalf("Parse did not keep the parser's error: %v", r.Err())
	}
}
