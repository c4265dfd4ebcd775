package cluster

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// TailFollower is the cluster-wide live audit tail: a third party pointed at
// the K node addresses follows every shard's bulletin board over ranged
// node-log reads through the one merged tail (vdp.SegmentedTail — the same
// incremental verification a directory tail runs), and certifies each
// merged epoch once every shard's seal verifies and every node holds the
// matching merged-seal record. It holds no trust in the router: everything
// it certifies it verified itself from node evidence.
//
// Poll reads every node's board log past the records already fed, up to
// the node's committed count. Evidence failures — a log that shrank below
// what was read (rewritten history) or a bad record — wrap
// vdp.ErrAuditFail, and a bad record is sticky. Any other error (a node
// down, a reply that breaks the range protocol) leaves the shard at the
// last record fed, and the next Poll resumes there. When a shard's active
// replica stops answering and the backend knows another, the follower
// switches to it without promoting anything; reading carries over safely
// because nodes ship only the mirrored (standby-acknowledged) prefix of a
// replicated log, which every surviving replica has.
type TailFollower struct {
	*vdp.SegmentedTail     // the merged tail: Poll, VerifyMerged, Records, Close
	next               int // next merged epoch to certify
}

// NewTailFollower opens a live tail over a cluster's nodes, given in shard
// order (the router's -backends order). Every node's topology is probed up
// front: its shard coordinates must match its position.
func NewTailFollower(pub *vdp.Public, backends []*Backend, opts vdp.TailOptions) (*TailFollower, error) {
	k := len(backends)
	if k < 1 {
		return nil, fmt.Errorf("cluster: tail needs at least one backend")
	}
	sources := make([]vdp.TailSource, k)
	for i, b := range backends {
		st, err := b.status()
		if err != nil {
			return nil, fmt.Errorf("cluster: probing shard %d: %w", i, err)
		}
		if st.Shard != i || st.Shards != k {
			return nil, fmt.Errorf("cluster: backend %d serves shard %d/%d, want %d/%d",
				i, st.Shard, st.Shards, i, k)
		}
		sources[i] = logStream{b, k}
	}
	tail, err := vdp.NewSegmentedTail(pub, sources, func(epoch int) ([]byte, bool, error) {
		_, digest, err := clusterSeal(backends, epoch, k)
		if errors.Is(err, errNoMergedSeal) {
			return nil, false, nil
		}
		return digest, err == nil, err
	}, opts)
	if err != nil {
		return nil, err
	}
	return &TailFollower{SegmentedTail: tail}, nil
}

// VerifyNext tries to certify the next merged epoch: see
// vdp.SegmentedTail.VerifyMerged, whose seal lookup requires all K nodes to
// hold the identical merged seal. ready is false while some shard has not
// sealed the epoch, or while the merged seal has not reached every node;
// once it certifies, the follower advances to the next epoch.
func (f *TailFollower) VerifyNext() (epoch int, digest []byte, ready bool, err error) {
	epoch = f.next
	digest, ready, err = f.VerifyMerged(epoch)
	if ready {
		f.next++
	}
	return epoch, digest, ready, err
}

// logStream reads one shard's board log over ranged node-log round trips.
// shards, when set, lets a failed round trip switch to another replica of
// the shard (see callShard) — a reader's right; a router must fail over
// instead, so its streams leave it zero.
type logStream struct {
	b      *Backend
	shards int
}

// ReadFrom returns a tailer of the log from record index on.
func (s logStream) ReadFrom(index int) (store.Tailer, error) {
	return &logPager{logStream: s, next: index, committed: -1}, nil
}

// Replay streams the log from its first record up to the committed count
// of the first reply, so a cross-node audit holds no copy of any node's log.
func (s logStream) Replay(fn func(*store.Record) error) error {
	p := &logPager{logStream: s, committed: -1}
	if err := p.fetch(); err != nil {
		return err
	}
	for end := p.committed; p.next < end; {
		rec, _, err := p.Next()
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// logPager is a logStream's tailer; a record's offset is its index. It
// pages the log in one node-log round trip per chunk: a chunk drained to
// the count its reply committed reports ErrNoRecord without another round
// trip, and the call after that asks the node again. A failed round trip
// moves nothing, so the next call retries it.
type logPager struct {
	logStream
	next int // index of the next record Next returns
	// committed is the newest reply's committed count, or -1 when none is
	// known: before the first round trip, and once Next has reported
	// reaching it, so that the next call asks the node again.
	committed int
	chunk     []*store.Record
}

// Next implements store.Tailer.
func (p *logPager) Next() (*store.Record, int64, error) {
	if len(p.chunk) == 0 {
		if p.next != p.committed {
			if err := p.fetch(); err != nil {
				return nil, int64(p.next), err
			}
		}
		if len(p.chunk) == 0 {
			p.committed = -1
			return nil, int64(p.next), store.ErrNoRecord
		}
	}
	rec := p.chunk[0]
	p.chunk, p.next = p.chunk[1:], p.next+1
	return rec, int64(p.next - 1), nil
}

// fetch runs one node-log round trip for the chunk from the pager's next
// record. A reply committing fewer records than the pager has been
// promised means the log shrank — history was rewritten — and wraps
// vdp.ErrAuditFail. A reply for another range, with no records while some
// are due, or with more than the range holds breaks the protocol; the
// connection is dropped so the next round trip redials in sync.
func (p *logPager) fetch() error {
	reply, err := callShard(p.b, p.shards, &transport.Frame{Kind: KindLog, Payload: encodeIndexReq(p.next)})
	if err == nil {
		err = replyErr(reply, KindLog)
	}
	if err != nil {
		return err
	}
	committed, start, recs, err := decodeLogRange(reply.Payload)
	switch {
	case err != nil:
	case committed < max(p.next, p.committed):
		return fmt.Errorf("%w: board log shrank from %d to %d records — history was rewritten",
			vdp.ErrAuditFail, max(p.next, p.committed), committed)
	case start != p.next:
		err = fmt.Errorf("cluster: node-log reply starts at record %d, asked for %d", start, p.next)
	case len(recs) > committed-p.next:
		err = fmt.Errorf("cluster: node-log reply ships %d records, the range [%d, %d) holds %d",
			len(recs), p.next, committed, committed-p.next)
	case len(recs) == 0 && committed > p.next:
		err = fmt.Errorf("cluster: node-log reply ships no records, %d are due from %d", committed-p.next, p.next)
	}
	if err != nil {
		p.b.Close()
		return err
	}
	p.committed, p.chunk = committed, recs
	return nil
}

// Close implements store.Tailer; a pager holds no handle of its own.
func (p *logPager) Close() error { return nil }

// callShard runs one idempotent round trip on a shard's backend. With
// shards set, a round trip the active replica does not answer switches the
// backend to another replica — without promoting anything — and is retried
// once there.
func callShard(b *Backend, shards int, f *transport.Frame) (*transport.Frame, error) {
	reply, err := b.Call(f)
	if err != nil && shards > 0 && b.HasStandby() && b.SwitchReplica(shards) == nil {
		reply, err = b.Call(f)
	}
	return reply, err
}

// errNoMergedSeal marks a node that holds no merged seal for the epoch
// asked — yet: the router replicates a seal after the shards seal it.
var errNoMergedSeal = errors.New("no merged seal recorded")

// clusterSeal fetches a merged seal from every node and requires one claim:
// all K nodes must hold the seal for the same epoch, over K shards, with the
// same digest — a node holding a different one is a forked merge, an audit
// failure. epoch < 0 asks for the newest epoch every node holds a seal for,
// so a seal the router has not finished broadcasting is not "latest" yet. A
// node without the seal fails with errNoMergedSeal. shards, as for
// logStream, lets a round trip switch to another replica — a reader's right.
func clusterSeal(backends []*Backend, epoch, shards int) (int, []byte, error) {
	if epoch < 0 {
		for i, b := range backends {
			latest, _, err := nodeSeal(b, i, len(backends), -1, shards)
			if err != nil {
				return 0, nil, err
			}
			if i == 0 || latest < epoch {
				epoch = latest
			}
		}
	}
	var digest []byte
	for i, b := range backends {
		_, got, err := nodeSeal(b, i, len(backends), epoch, shards)
		if err != nil {
			return epoch, nil, err
		}
		if i == 0 {
			digest = got
		} else if !bytes.Equal(got, digest) {
			return epoch, nil, fmt.Errorf("%w: merged seal disagreement: shard %d records epoch %d digest %x, shard 0 records %x",
				vdp.ErrAuditFail, i, epoch, got, digest)
		}
	}
	return epoch, digest, nil
}

// nodeSeal fetches node i's merged seal for epoch (< 0: its newest) and
// checks the reply names that epoch and the cluster's width k.
func nodeSeal(b *Backend, i, k, epoch, shards int) (int, []byte, error) {
	reply, err := callShard(b, shards, &transport.Frame{Kind: KindMergedGet, Payload: encodeMergedGetReq(epoch)})
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: fetching merged seal from shard %d: %w", i, err)
	}
	if err := replyErr(reply, KindMergedGet); err != nil {
		return 0, nil, fmt.Errorf("cluster: shard %d: %w: %w", i, errNoMergedSeal, err)
	}
	got, gotShards, digest, err := decodeMergedSeal(reply.Payload)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: shard %d merged-seal reply: %w", i, err)
	}
	if (epoch >= 0 && got != epoch) || gotShards != k {
		return 0, nil, fmt.Errorf("%w: shard %d returned a merged seal for epoch %d over %d shards, want epoch %d over %d",
			vdp.ErrAuditFail, i, got, gotShards, epoch, k)
	}
	return got, digest, nil
}
