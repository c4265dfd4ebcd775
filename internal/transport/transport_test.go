package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Kind: "submit", Sender: 7, Payload: []byte("hello")},
		{Kind: "ack", Sender: 0, Payload: nil},
		{Kind: "x", Sender: -3, Payload: bytes.Repeat([]byte{0xab}, 10000)},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.Sender != want.Sender || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("round trip mismatch: %+v vs %+v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("expected EOF after last frame, got %v", err)
	}
}

func TestFrameLimits(t *testing.T) {
	if err := WriteFrame(io.Discard, &Frame{Kind: strings.Repeat("k", 300)}); err == nil {
		t.Error("accepted oversized kind")
	}
	// Oversized payload announcement on the read side.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 1}) // kind len 1
	buf.WriteByte('x')
	buf.Write(make([]byte, 8))                // sender
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // payload len 4 GiB
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized payload not rejected: %v", err)
	}
	// Oversized kind announcement.
	buf.Reset()
	buf.Write([]byte{0, 0, 1, 0}) // kind len 256
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("oversized kind not rejected")
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Kind: "submit", Payload: []byte("data")}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut += 3 {
		if _, err := ReadFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestServerEcho(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", func(f *Frame) ([]*Frame, error) {
		if f.Kind == "boom" {
			return nil, fmt.Errorf("handler rejected %q", f.Kind)
		}
		return []*Frame{{Kind: "echo", Sender: f.Sender, Payload: f.Payload}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, &Frame{Kind: "ping", Sender: 5, Payload: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != "echo" || reply.Sender != 5 || string(reply.Payload) != "abc" {
		t.Errorf("bad echo: %+v", reply)
	}

	// Handler error surfaces as an error frame, then the server drops us.
	if err := WriteFrame(conn, &Frame{Kind: "boom"}); err != nil {
		t.Fatal(err)
	}
	reply, err = ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != "error" || !strings.Contains(string(reply.Payload), "rejected") {
		t.Errorf("expected error frame, got %+v", reply)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	srv, err := Listen("127.0.0.1:0", func(f *Frame) ([]*Frame, error) {
		mu.Lock()
		seen[f.Sender] = true
		mu.Unlock()
		return []*Frame{{Kind: "ack"}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			if err := WriteFrame(conn, &Frame{Kind: "hi", Sender: id}); err != nil {
				t.Error(err)
				return
			}
			if _, err := ReadFrame(conn); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 8 {
		t.Errorf("saw %d/8 clients", len(seen))
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", func(f *Frame) ([]*Frame, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
}

// TestServerShutdown: Shutdown drains an in-flight connection when given
// room, and gives up with ctx.Err() — listener closed, connection still
// pending — when the deadline is too tight.
func TestServerShutdown(t *testing.T) {
	entered := make(chan struct{})
	block := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", func(f *Frame) ([]*Frame, error) {
		close(entered)
		<-block
		return []*Frame{{Kind: "ack"}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, &Frame{Kind: "hi"}); err != nil {
		t.Fatal(err)
	}

	// A dial returns once the kernel has queued the connection, which can be
	// before Accept hands it over: a Shutdown that closed the listener in
	// that gap would have nothing to wait for. Wait until the handler runs.
	<-entered
	// The handler is parked on block: a tight deadline must expire.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with parked handler: %v, want deadline exceeded", err)
	}
	// New connections are refused after the listener closed.
	if _, err := net.Dial("tcp", srv.Addr()); err == nil {
		t.Error("dial succeeded after Shutdown closed the listener")
	}

	// Unblock the handler: the retry drains cleanly and is idempotent.
	close(block)
	if _, err := ReadFrame(conn); err != nil {
		t.Fatalf("in-flight request not served across Shutdown: %v", err)
	}
	conn.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("drained Shutdown: %v", err)
	}
}

// TestReadFrameInto: the reusing reader returns the same backing buffer
// across same-size frames, grows it for larger payloads, and never lets one
// frame's bytes bleed into the next frame's payload.
func TestReadFrameInto(t *testing.T) {
	var wire bytes.Buffer
	payloads := [][]byte{
		bytes.Repeat([]byte{0x11}, 64),
		bytes.Repeat([]byte{0x22}, 64),   // same size: buffer must be reused
		bytes.Repeat([]byte{0x33}, 4096), // larger: buffer must grow
		bytes.Repeat([]byte{0x44}, 8),    // smaller: reuse the grown buffer
	}
	for i, p := range payloads {
		if err := WriteFrame(&wire, &Frame{Kind: "k", Sender: i, Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	var f Frame
	var buf []byte
	var prev []byte
	for i, want := range payloads {
		var err error
		buf, err = ReadFrameInto(&wire, &f, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Sender != i || !bytes.Equal(f.Payload, want) {
			t.Fatalf("frame %d corrupted: sender %d, %d payload bytes", i, f.Sender, len(f.Payload))
		}
		if len(f.Payload) > 0 && &f.Payload[0] != &buf[0] {
			t.Fatalf("frame %d payload does not alias the reused buffer", i)
		}
		// Same-capacity reads must not allocate a fresh buffer.
		if i == 1 && &buf[0] != &prev[0] {
			t.Error("same-size frame did not reuse the previous buffer")
		}
		if len(buf) > 0 {
			prev = buf[:1]
		}
	}
	if _, err := ReadFrameInto(&wire, &f, buf); err != io.EOF {
		t.Errorf("expected EOF after last frame, got %v", err)
	}
}

// TestServerMixedTraffic: single-submission and batch frames interleaved on
// ONE connection. The server's per-connection read buffer is reused across
// frames of very different sizes, so this catches any aliasing bug where a
// large batch frame's bytes leak into the small frame that follows it (the
// Handler contract says payloads must be copied if retained — the handler
// here does, and the copies must survive the next read).
func TestServerMixedTraffic(t *testing.T) {
	var mu sync.Mutex
	var got [][]byte
	srv, err := Listen("127.0.0.1:0", func(f *Frame) ([]*Frame, error) {
		mu.Lock()
		got = append(got, append([]byte(nil), f.Payload...))
		mu.Unlock()
		return []*Frame{{Kind: "ack-" + f.Kind, Sender: f.Sender}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Alternate tiny "submit" frames with fat "submit-batch" frames.
	var want [][]byte
	for i := 0; i < 10; i++ {
		kind, size := "submit", 16
		if i%2 == 1 {
			kind, size = "submit-batch", 32<<10
		}
		payload := bytes.Repeat([]byte{byte(i + 1)}, size)
		want = append(want, payload)
		if err := WriteFrame(conn, &Frame{Kind: kind, Sender: i, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		reply, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Kind != "ack-"+kind || reply.Sender != i {
			t.Fatalf("frame %d: bad reply %q/%d", i, reply.Kind, reply.Sender)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("server saw %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("frame %d payload corrupted by buffer reuse (%d bytes, want %d)",
				i, len(got[i]), len(want[i]))
		}
	}
}

// TestServerShutdownDuringBatch: a batch frame in flight when graceful
// Shutdown starts is still served to completion — batched admission gets
// the same drain guarantee as single submissions.
func TestServerShutdownDuringBatch(t *testing.T) {
	entered := make(chan struct{})
	block := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", func(f *Frame) ([]*Frame, error) {
		if f.Kind == "submit-batch" {
			close(entered)
			<-block
		}
		return []*Frame{{Kind: "batch-verdicts", Payload: f.Payload}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	batch := bytes.Repeat([]byte{0x5a}, 1024)
	if err := WriteFrame(conn, &Frame{Kind: "submit-batch", Payload: batch}); err != nil {
		t.Fatal(err)
	}
	<-entered // the batch is in the handler; now start draining

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	// Let Shutdown close the listener and start waiting, then release the
	// handler: the in-flight batch must complete and be answered.
	time.Sleep(10 * time.Millisecond)
	close(block)
	reply, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("in-flight batch not served across Shutdown: %v", err)
	}
	if reply.Kind != "batch-verdicts" || !bytes.Equal(reply.Payload, batch) {
		t.Errorf("bad drained reply: %q, %d bytes", reply.Kind, len(reply.Payload))
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatalf("graceful Shutdown: %v", err)
	}
}
