package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxFrameSize bounds a frame's payload (16 MiB): large enough for any
// realistic submission, small enough that a hostile peer cannot force an
// unbounded allocation.
const MaxFrameSize = 16 << 20

// Frame is one protocol message.
type Frame struct {
	// Kind tags the message type (e.g. "submit-public", "submit-payload",
	// "release"). The protocol layer dispatches on it.
	Kind string
	// Sender is the logical sender ID (client or prover index).
	Sender int
	// Payload is an opaque wire-encoded body.
	Payload []byte
}

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// WriteFrame writes a frame with a fixed header:
// u32 kindLen | kind | i64 sender | u32 payloadLen | payload.
func WriteFrame(w io.Writer, f *Frame) error {
	if len(f.Payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	if len(f.Kind) > 255 {
		return fmt.Errorf("transport: kind %q too long", f.Kind)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(f.Kind)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: writing frame header: %w", err)
	}
	if _, err := io.WriteString(w, f.Kind); err != nil {
		return fmt.Errorf("transport: writing kind: %w", err)
	}
	var snd [8]byte
	binary.BigEndian.PutUint64(snd[:], uint64(int64(f.Sender)))
	if _, err := w.Write(snd[:]); err != nil {
		return fmt.Errorf("transport: writing sender: %w", err)
	}
	binary.BigEndian.PutUint32(hdr[:], uint32(len(f.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: writing payload length: %w", err)
	}
	if _, err := w.Write(f.Payload); err != nil {
		return fmt.Errorf("transport: writing payload: %w", err)
	}
	return nil
}

// ReadFrame reads one frame, enforcing the size limits.
func ReadFrame(r io.Reader) (*Frame, error) {
	f := new(Frame)
	if _, err := ReadFrameInto(r, f, nil); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFrameInto reads one frame into f, using buf (grown as needed) as the
// payload buffer, and returns the possibly-grown buffer for the next call.
// f.Payload aliases the returned buffer, so the frame is only valid until
// the buffer's next reuse; this is the allocation-free read loop a server
// draining multi-megabyte batch frames needs, where ReadFrame's fresh
// payload allocation per frame would dominate the decode path.
func ReadFrameInto(r io.Reader, f *Frame, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err // io.EOF propagates for clean shutdown detection
	}
	kindLen := binary.BigEndian.Uint32(hdr[:])
	if kindLen > 255 {
		return buf, fmt.Errorf("transport: kind length %d out of range", kindLen)
	}
	var kind [255]byte
	if _, err := io.ReadFull(r, kind[:kindLen]); err != nil {
		return buf, fmt.Errorf("transport: reading kind: %w", err)
	}
	var snd [8]byte
	if _, err := io.ReadFull(r, snd[:]); err != nil {
		return buf, fmt.Errorf("transport: reading sender: %w", err)
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, fmt.Errorf("transport: reading payload length: %w", err)
	}
	payloadLen := binary.BigEndian.Uint32(hdr[:])
	if payloadLen > MaxFrameSize {
		return buf, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < payloadLen {
		buf = make([]byte, payloadLen)
	}
	buf = buf[:payloadLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, fmt.Errorf("transport: reading payload: %w", err)
	}
	f.Kind = string(kind[:kindLen])
	f.Sender = int(int64(binary.BigEndian.Uint64(snd[:])))
	f.Payload = buf
	return buf, nil
}

// Handler processes one inbound frame and may return reply frames to send
// back on the same connection. The frame's payload may alias a per-connection
// read buffer that is reused for the next frame, so a handler that retains
// payload bytes past its return must copy them.
type Handler func(f *Frame) ([]*Frame, error)

// Server accepts TCP connections and dispatches inbound frames to a
// handler. One goroutine per connection; the handler must be safe for
// concurrent use.
type Server struct {
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	closed bool
	lnErr  error
	conns  map[net.Conn]bool // conn -> handler currently running
	wg     sync.WaitGroup
}

// Listen starts a server on addr (e.g. "127.0.0.1:7001").
func Listen(addr string, h Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	s := &Server{ln: ln, handler: h, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			// Accepted in the window between Shutdown closing the
			// listener and Accept noticing: refuse, we are draining.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = false
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// One payload buffer per connection, reused across frames (the Handler
	// contract permits this); a flood of batch frames costs zero payload
	// allocations after the largest frame has sized the buffer.
	var f Frame
	var buf []byte
	for {
		var err error
		buf, err = ReadFrameInto(conn, &f, buf)
		if err != nil {
			return // EOF, shutdown, or malformed peer: drop the connection
		}
		s.mu.Lock()
		s.conns[conn] = true // in-flight: Shutdown must let this frame finish
		s.mu.Unlock()
		replies, err := s.handler(&f)
		if err != nil {
			// Send an error frame so the peer knows why it was dropped.
			_ = WriteFrame(conn, &Frame{Kind: "error", Payload: []byte(err.Error())})
			return
		}
		for _, r := range replies {
			if err := WriteFrame(conn, r); err != nil {
				return
			}
		}
		s.mu.Lock()
		s.conns[conn] = false
		draining := s.closed
		s.mu.Unlock()
		if draining {
			// The frame that was on the wire when Shutdown began has been
			// answered; persistent peers must redial elsewhere.
			return
		}
	}
}

// Close stops accepting and waits for in-flight connections.
func (s *Server) Close() error {
	return s.Shutdown(context.Background())
}

// drainGrace is how long Shutdown lets an idle connection's read linger: a
// frame already on the wire (buffered but not yet read) is picked up and
// served, while a persistent peer merely parked between frames fails its
// read and hangs up. Without it, one idle long-lived connection — a router's
// cached backend conn, say — would hold the drain open forever.
const drainGrace = 100 * time.Millisecond

// Shutdown stops accepting new connections and waits for in-flight ones to
// drain, giving up (but leaving the listener closed and pending handlers
// running) when ctx expires. Idle persistent connections are not "in
// flight": they get drainGrace to produce a frame and are then dropped;
// a connection that is answered after Shutdown begins is closed once its
// reply is written. It is the graceful half of a SIGINT/SIGTERM handler:
// close the door, let the handler finish the submissions already on the
// wire, then finalize the session. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.lnErr = s.ln.Close()
		deadline := time.Now().Add(drainGrace)
		for c, busy := range s.conns {
			if !busy {
				// Parked in ReadFrameInto: wake it when the grace ends. A
				// frame already buffered still reads fine before then.
				_ = c.SetReadDeadline(deadline)
			}
		}
	}
	err := s.lnErr
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}
