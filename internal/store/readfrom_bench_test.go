package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkReadFrom times one follower poll: open a reader at record n−64 of
// an n-record FileLog and read the last 64 records. Records frame to 375 B.
// The poll's cost must not grow with n — the offset index takes ReadFrom
// straight to its record.
func BenchmarkReadFrom(b *testing.B) {
	const last = 64
	payload := bytes.Repeat([]byte{0xa5}, 375-13) // 13 B of length, kind, epoch and CRC framing
	for _, n := range []int{4096, 65536, 262144} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			l, err := OpenFileLog(filepath.Join(b.TempDir(), "board.log"), WithNoSync())
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			for i := 0; i < n; i++ {
				if err := l.AppendNoSync(&Record{Kind: 1, Payload: payload}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, err := l.ReadFrom(n - last)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < last; k++ {
					if _, _, err := t.Next(); err != nil {
						b.Fatal(err)
					}
				}
				t.Close()
			}
			b.StopTimer() // the deferred Close fsyncs the whole file
		})
	}
}
