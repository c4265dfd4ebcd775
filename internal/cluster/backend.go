package cluster

import (
	"fmt"
	"sync"

	"repro/internal/transport"
)

// Backend is the router's view of one shard's replica set: the ordered
// replica addresses (primary first), a persistent frame connection to the
// active replica, and health state. All round trips on one backend are
// serialized (the frame protocol is strictly request/reply per connection);
// the router's throughput comes from having one backend per shard, not from
// multiplexing within a shard.
//
// Failure policy: idempotent cluster RPCs (status, seal, fetches) may
// transparently redial and retry after a mid-stream failure. Submissions
// never retry mid-stream against the same replica — the router cannot know
// whether a lost reply means "not admitted" or "admitted, reply lost", and a
// replay would be a duplicate-submission rejection — so a submit failure
// surfaces to the caller, which either converts it into per-client
// unavailable verdicts or fails the active replica over first (after which a
// replay is exactly as safe as a client-side retry: duplicates are screened
// before they touch the board).
type Backend struct {
	// Shard is the backend's topology position.
	Shard int

	opts transport.ClientOptions

	mu      sync.Mutex
	addrs   []string
	active  int
	cli     *transport.Client
	healthy bool
	lastErr error
	// lastEpoch/lastLogLen remember the newest status decoded from this
	// backend; they seed the promotion handshake's fencing expectations.
	lastEpoch  int
	lastLogLen int
}

// NewBackend opens a backend handle on one shard's replicas (primary
// first): a Router's, or a standalone one for tools that talk to nodes
// without a Router — the live-audit follower chief among them. It is born
// healthy, so the first operation attempts the dial.
func NewBackend(addrs []string, shard int, opts transport.ClientOptions) *Backend {
	return &Backend{addrs: addrs, Shard: shard, opts: opts, healthy: true, lastEpoch: -1}
}

// Addr returns the active replica's address.
func (b *Backend) Addr() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.addrs[b.active]
}

// HasStandby reports whether the backend knows more than one replica.
func (b *Backend) HasStandby() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.addrs) > 1
}

// Healthy reports whether the last operation (or probe) succeeded.
func (b *Backend) Healthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// status runs one status round trip against the active replica (the
// health probe), recording the decoded status as fencing context.
func (b *Backend) status() (*NodeStatus, error) {
	reply, err := b.rpc(&transport.Frame{Kind: KindStatus})
	if err != nil {
		return nil, err
	}
	st, err := decodeStatus(reply.Payload)
	if err != nil {
		return nil, err
	}
	b.noteStatus(st)
	return st, nil
}

// noteStatus records fencing context from a decoded status reply.
func (b *Backend) noteStatus(st *NodeStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastEpoch = st.Epoch
	if st.LogLen > b.lastLogLen {
		b.lastLogLen = st.LogLen
	}
}

// Submit performs one non-idempotent round trip. An unhealthy backend fails
// fast without touching the network, so a dead shard costs its clients an
// immediate verdict, not a dial timeout each.
func (b *Backend) Submit(f *transport.Frame) (*transport.Frame, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.healthy {
		return nil, fmt.Errorf("shard %d backend %s unavailable: %v", b.Shard, b.addrs[b.active], b.lastErr)
	}
	return b.roundTripLocked(f, false)
}

// Call performs one idempotent round trip, redialing and retrying under the
// backend's retry policy. Unlike Submit it will try to revive an unhealthy
// backend — Call is how probes and the finalize handshake pull a restarted
// node back in.
func (b *Backend) Call(f *transport.Frame) (*transport.Frame, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.roundTripLocked(f, true)
}

// rpc is Call with a refusal reply turned into an error.
func (b *Backend) rpc(f *transport.Frame) (*transport.Frame, error) {
	reply, err := b.Call(f)
	if err != nil {
		return nil, err
	}
	return reply, replyErr(reply, f.Kind)
}

func (b *Backend) roundTripLocked(f *transport.Frame, idempotent bool) (*transport.Frame, error) {
	attempts := 1
	if idempotent {
		attempts += b.opts.Retry.Retries
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if b.cli == nil {
			cli, err := transport.DialClient(b.addrs[b.active], b.opts)
			if err != nil {
				b.healthy = false
				b.lastErr = err
				return nil, err
			}
			b.cli = cli
		}
		reply, err := b.cli.RoundTrip(f)
		if err == nil && !expectedReply(f.Kind, reply.Kind) {
			// A reply that cannot answer this request means the stream
			// desynced (e.g. a duplicated frame queued a stale reply). Drop
			// the connection — a redial restores request/reply pairing — and
			// treat it like a transport failure.
			err = fmt.Errorf("transport: desynced reply kind %q to %q", reply.Kind, f.Kind)
		}
		if err == nil {
			b.healthy = true
			b.lastErr = nil
			if reply.Kind == "error" {
				// The transport server writes a terminal "error" frame and
				// then drops the connection; discard our half so the next
				// operation redials instead of hitting a dead socket.
				b.cli.Close()
				b.cli = nil
			}
			return reply, nil
		}
		b.cli.Close()
		b.cli = nil
		lastErr = err
		if !idempotent {
			break
		}
	}
	b.healthy = false
	b.lastErr = lastErr
	return nil, lastErr
}

// expectedReply reports whether reply can legally answer a request of kind
// req on this connection. Unknown request kinds accept anything.
func expectedReply(req, reply string) bool {
	switch {
	case IsRPC(req):
		return reply == okKind(req) || reply == KindError || reply == "error" ||
			(req == KindReplicate && reply == KindReplicateGap)
	case req == "submit-batch":
		return reply == "batch-verdicts" || reply == "error"
	default:
		return true
	}
}

// Failover promotes the shard's next replica and switches the backend to it.
// Each non-active replica is probed in order: one that already serves as a
// promoted (non-standby) node for this shard is adopted outright — an
// earlier promotion this caller missed, e.g. after a router restart — and a
// standby gets the fenced promote handshake carrying the backend's last
// observed epoch and log length, so a lagging mirror can never be promoted
// over acknowledged history. On success the backend is healthy on the new
// replica; on failure the active replica is left as it was.
func (b *Backend) Failover(shards int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.addrs) < 2 {
		return fmt.Errorf("cluster: shard %d has no standby to fail over to", b.Shard)
	}
	var lastErr error
	for off := 1; off < len(b.addrs); off++ {
		idx := (b.active + off) % len(b.addrs)
		st, cli, err := b.promoteCandidateLocked(b.addrs[idx], shards)
		if err != nil {
			lastErr = err
			continue
		}
		if b.cli != nil {
			b.cli.Close()
		}
		b.cli = cli
		b.active = idx
		b.healthy = true
		b.lastErr = nil
		b.lastEpoch = st.Epoch
		if st.LogLen > b.lastLogLen {
			b.lastLogLen = st.LogLen
		}
		return nil
	}
	return fmt.Errorf("cluster: shard %d failover found no promotable replica: %w", b.Shard, lastErr)
}

// dialReplica opens a connection to one replica address and probes its
// status, refusing a replica that serves another shard. On success the
// connection is left open for the caller.
func (b *Backend) dialReplica(addr string, shards int) (*NodeStatus, *transport.Client, error) {
	cli, err := transport.DialClient(addr, b.opts)
	if err != nil {
		return nil, nil, fmt.Errorf("dialing %s: %w", addr, err)
	}
	reply, err := cli.RoundTrip(&transport.Frame{Kind: KindStatus})
	if err == nil {
		err = replyErr(reply, KindStatus)
	}
	var st *NodeStatus
	if err == nil {
		st, err = decodeStatus(reply.Payload)
	}
	if err == nil && (st.Shard != b.Shard || st.Shards != shards) {
		err = fmt.Errorf("replica %s serves shard %d/%d, want %d/%d", addr, st.Shard, st.Shards, b.Shard, shards)
	}
	if err != nil {
		cli.Close()
		return nil, nil, fmt.Errorf("probing %s: %w", addr, err)
	}
	return st, cli, nil
}

// promoteCandidateLocked probes one replica address and, if it is an
// unpromoted standby, runs the promote handshake. Returns the replica's
// post-promotion status and an open connection to it.
func (b *Backend) promoteCandidateLocked(addr string, shards int) (*NodeStatus, *transport.Client, error) {
	st, cli, err := b.dialReplica(addr, shards)
	if err != nil || !st.Standby {
		// A replica already serving as a full node for this shard is adopted.
		return st, cli, err
	}
	reply, err := cli.RoundTrip(&transport.Frame{
		Kind:    KindPromote,
		Payload: encodePromoteReq(b.lastEpoch, b.lastLogLen),
	})
	if err == nil {
		err = replyErr(reply, KindPromote)
	}
	if err == nil {
		st, err = decodeStatus(reply.Payload)
	}
	if err != nil {
		cli.Close()
		return nil, nil, fmt.Errorf("promoting %s: %w", addr, err)
	}
	return st, cli, nil
}

// SwitchReplica moves the backend to any replica that answers a status probe
// for the right shard — standby or promoted node alike — WITHOUT promoting
// anything. Read-only consumers (the live-audit follower) use it to keep
// reading logs through a failover while the router decides who takes over.
func (b *Backend) SwitchReplica(shards int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.addrs) < 2 {
		return fmt.Errorf("cluster: shard %d has no other replica to read from", b.Shard)
	}
	var lastErr error
	for off := 1; off < len(b.addrs); off++ {
		idx := (b.active + off) % len(b.addrs)
		_, cli, err := b.dialReplica(b.addrs[idx], shards)
		if err != nil {
			lastErr = err
			continue
		}
		if b.cli != nil {
			b.cli.Close()
		}
		b.cli = cli
		b.active = idx
		b.healthy = true
		b.lastErr = nil
		return nil
	}
	return fmt.Errorf("cluster: shard %d: no readable replica: %w", b.Shard, lastErr)
}

// Close drops the backend's connection, if any.
func (b *Backend) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cli != nil {
		b.cli.Close()
		b.cli = nil
	}
}
