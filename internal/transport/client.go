package transport

import (
	"fmt"
	"net"
	"time"
)

// Client-side frame plumbing. Every peer that talks to a frame server — the
// submitting vdpclient, the cluster router's per-backend connections — needs
// the same three things: a dial that survives transient failures (a backend
// that is still booting, a router restarting mid-epoch), read/write deadlines
// so a stalled peer cannot wedge the caller forever, and the
// WriteFrame/ReadFrame pairing for a request/reply round trip. Client bundles
// them so callers stop duplicating raw net.Dial + frame wiring.

// RetryPolicy bounds how transient failures are retried: up to Retries
// additional attempts after the first, sleeping Backoff before the first
// retry and doubling it each time, capped at MaxBackoff when set. The zero
// value tries exactly once. The same policy drives vdpclient's -retries
// flags and the cluster router's bounded backend reconnects.
//
// With Jitter set, each sleep is drawn uniformly from [0, d] where d is the
// doubled-and-capped deadline above ("full jitter"): when K backends all lose
// the same restarted node they redial spread out instead of thundering back
// in lockstep. The jitter stream is seeded (JitterSeed, falling back to the
// clock) so tests can pin the exact schedule.
type RetryPolicy struct {
	// Retries is the number of additional attempts after the first failure.
	Retries int
	// Backoff is the sleep before the first retry; it doubles per attempt.
	Backoff time.Duration
	// MaxBackoff caps the doubled sleep (0 = uncapped).
	MaxBackoff time.Duration
	// Jitter switches the sleeps to full jitter: uniform in [0, d] instead
	// of exactly d.
	Jitter bool
	// JitterSeed seeds the jitter stream; 0 means seed from the clock. Each
	// Do call derives its own deterministic stream from the seed, so two
	// calls with the same seed sleep the same schedule.
	JitterSeed uint64
}

// Do runs fn until it succeeds or the policy is exhausted, sleeping between
// attempts per the policy, and returns fn's last error.
func (p RetryPolicy) Do(fn func() error) error {
	var err error
	z := p.jitterState()
	d := p.Backoff
	for attempt := 0; ; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if attempt >= p.Retries {
			return err
		}
		if d > 0 {
			time.Sleep(p.sleepFor(d, &z))
			d *= 2
			if p.MaxBackoff > 0 && d > p.MaxBackoff {
				d = p.MaxBackoff
			}
		}
	}
}

// Schedule returns the sleeps Do would take before retries 1..n, in order.
// It advances the same deterministic jitter stream Do uses, so a seeded
// policy's schedule is exactly reproducible; without Jitter it is the plain
// doubling sequence.
func (p RetryPolicy) Schedule(n int) []time.Duration {
	z := p.jitterState()
	d := p.Backoff
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if d <= 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, p.sleepFor(d, &z))
		d *= 2
		if p.MaxBackoff > 0 && d > p.MaxBackoff {
			d = p.MaxBackoff
		}
	}
	return out
}

func (p RetryPolicy) jitterState() uint64 {
	if !p.Jitter {
		return 0
	}
	if p.JitterSeed != 0 {
		return p.JitterSeed
	}
	return uint64(time.Now().UnixNano())
}

func (p RetryPolicy) sleepFor(d time.Duration, z *uint64) time.Duration {
	if !p.Jitter {
		return d
	}
	return time.Duration(splitmix64(z) % uint64(d+1))
}

// splitmix64 advances a 64-bit state and returns the finalized output — the
// same generator store.FaultFromSeed and ConnFaultFromSeed use, so every
// deterministic knob in the repo speaks one PRNG.
func splitmix64(z *uint64) uint64 {
	*z += 0x9e3779b97f4a7c15
	x := *z
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ClientOptions configures a frame client connection.
type ClientOptions struct {
	// Timeout bounds each dial attempt and each Send/Recv (and therefore
	// each RoundTrip leg) with a fresh deadline. 0 means no deadline.
	Timeout time.Duration
	// Retry governs dial attempts. Established connections are never
	// silently redialed: a mid-stream failure surfaces to the caller, who
	// decides whether the request is safe to repeat.
	Retry RetryPolicy
	// Dial overrides how the TCP connection is opened (nil = net.DialTimeout).
	// The chaos harness hooks it to wrap connections with a FaultPlan; it is
	// also the seam for tests that serve from in-memory listeners.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// Client is one persistent frame connection with per-operation deadlines.
// It is not safe for concurrent use; callers that share one connection
// across goroutines must serialize round trips themselves.
type Client struct {
	conn    net.Conn
	timeout time.Duration
}

// DialClient connects to a frame server, retrying transient dial failures
// under the options' retry policy.
func DialClient(addr string, opts ClientOptions) (*Client, error) {
	dial := opts.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	var conn net.Conn
	err := opts.Retry.Do(func() error {
		var derr error
		conn, derr = dial(addr, opts.Timeout)
		return derr
	})
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	return &Client{conn: conn, timeout: opts.Timeout}, nil
}

// Send writes one frame under a fresh deadline.
func (c *Client) Send(f *Frame) error {
	if err := c.setDeadline(); err != nil {
		return err
	}
	return WriteFrame(c.conn, f)
}

// Recv reads one frame under a fresh deadline.
func (c *Client) Recv() (*Frame, error) {
	if err := c.setDeadline(); err != nil {
		return nil, err
	}
	return ReadFrame(c.conn)
}

// RoundTrip sends one frame and reads one reply, each leg under its own
// deadline.
func (c *Client) RoundTrip(f *Frame) (*Frame, error) {
	if err := c.Send(f); err != nil {
		return nil, err
	}
	return c.Recv()
}

func (c *Client) setDeadline() error {
	if c.timeout <= 0 {
		return nil
	}
	return c.conn.SetDeadline(time.Now().Add(c.timeout))
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }
