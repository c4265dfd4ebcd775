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
// node-log reads, feeds the records through per-shard TailAuditors (the same
// incremental verification a local tail runs), and certifies each merged
// epoch the moment every shard's seal verifies — cross-checking the
// merged-seal record replicated on every node. It holds no trust in the
// router: everything it certifies it verified itself from node evidence.
type TailFollower struct {
	backends []*Backend
	merged   *vdp.MergedTailAuditor
	cursor   []int // per-node count of records already fed
	next     int   // next merged epoch to certify
}

// NewTailFollower opens a live tail over a cluster's nodes, given in shard
// order (the router's -backends order). Every node's topology is probed up
// front: its shard coordinates must match its position.
func NewTailFollower(pub *vdp.Public, backends []*Backend, opts vdp.TailOptions) (*TailFollower, error) {
	k := len(backends)
	if k < 1 {
		return nil, fmt.Errorf("cluster: tail needs at least one backend")
	}
	for i, b := range backends {
		st, err := b.status()
		if err != nil {
			return nil, fmt.Errorf("cluster: probing shard %d: %w", i, err)
		}
		if st.Shard != i || st.Shards != k {
			return nil, fmt.Errorf("cluster: backend %d serves shard %d/%d, want %d/%d",
				i, st.Shard, st.Shards, i, k)
		}
	}
	return &TailFollower{
		backends: backends,
		merged:   vdp.NewMergedTailAuditor(pub, k, opts),
		cursor:   make([]int, k),
	}, nil
}

// Poll reads every node's board log from the follower's cursor up to the
// node's committed count and feeds each record straight into that shard's
// auditor, returning how many new records were consumed. Evidence failures
// — a log that shrank below the cursor (rewritten history) or a bad record —
// wrap vdp.ErrAuditFail and are fatal; any other error (a node down, a reply
// that breaks the range protocol) leaves the cursor at the last record fed,
// and the next Poll resumes from there. When a shard's active replica stops
// answering and the backend knows another, the follower switches to it
// without promoting anything; the cursor carries over safely because nodes
// ship only the mirrored (standby-acknowledged) prefix of a replicated log,
// which every surviving replica has.
func (f *TailFollower) Poll() (int, error) {
	n := 0
	for i, b := range f.backends {
		a := f.merged.Shard(i)
		err := logStream{b, len(f.backends)}.read(f.cursor[i], func(idx int, rec *store.Record) error {
			if err := a.Feed(rec, int64(idx)); err != nil {
				return err
			}
			f.cursor[i] = idx + 1
			n++
			return nil
		})
		if err != nil {
			return n, fmt.Errorf("cluster: shard %d board log: %w", i, err)
		}
	}
	return n, nil
}

// logStream reads one shard's board log over ranged node-log round trips.
// shards, when set, lets a failed round trip switch to another replica of
// the shard (see callShard) — a reader's right; a router must fail over
// instead, so its streams leave it zero.
type logStream struct {
	b      *Backend
	shards int
}

// Replay streams the log from its first record up to the committed count
// of the first reply, so a cross-node audit holds no copy of any node's log.
func (s logStream) Replay(fn func(*store.Record) error) error {
	return s.read(0, func(_ int, rec *store.Record) error { return fn(rec) })
}

// read streams the records [from, committed) to fn with their indices, one
// chunk per round trip, committed being the count the first reply names. A
// reply committing fewer records than the reader has already been promised
// means the log shrank — history was rewritten — and wraps vdp.ErrAuditFail.
// A reply for another range, with no records while some are due, or with
// more than the range holds breaks the protocol; the connection is dropped
// so the next read redials in sync.
func (s logStream) read(from int, fn func(int, *store.Record) error) error {
	end := -1
	for end < 0 || from < end {
		reply, err := callShard(s.b, s.shards, &transport.Frame{Kind: KindLog, Payload: encodeIndexReq(from)})
		if err == nil {
			err = replyErr(reply, KindLog)
		}
		if err != nil {
			return err
		}
		committed, start, recs, err := decodeLogRange(reply.Payload)
		switch {
		case err != nil:
		case committed < max(from, end):
			return fmt.Errorf("%w: board log shrank from %d to %d records — history was rewritten",
				vdp.ErrAuditFail, max(from, end), committed)
		case start != from:
			err = fmt.Errorf("cluster: node-log reply starts at record %d, asked for %d", start, from)
		case len(recs) > committed-from:
			err = fmt.Errorf("cluster: node-log reply ships %d records, the range [%d, %d) holds %d",
				len(recs), from, committed, committed-from)
		case len(recs) == 0 && committed > from:
			err = fmt.Errorf("cluster: node-log reply ships no records, %d are due from %d", committed-from, from)
		}
		if err != nil {
			s.b.Close()
			return err
		}
		if end < 0 {
			end = committed
		}
		for _, rec := range recs[:min(len(recs), end-from)] {
			if err := fn(from, rec); err != nil {
				return err
			}
			from++
		}
	}
	return nil
}

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

// VerifyNext tries to certify the next merged epoch. ready is false while
// some shard has not sealed it yet, or while the merged seal has not been
// replicated to every node. Once every shard's seal has verified, the
// merged digest is derived and cross-checked against the merged-seal record
// on every node — all K must hold the identical claim — and the follower
// advances to the next epoch. A divergence anywhere is a hard failure.
func (f *TailFollower) VerifyNext() (epoch int, digest []byte, ready bool, err error) {
	epoch = f.next
	digest, ready, err = f.merged.VerifyMerged(epoch)
	if err != nil || !ready {
		return epoch, nil, false, err
	}
	_, sealed, err := clusterSeal(f.backends, epoch, len(f.backends))
	switch {
	case errors.Is(err, errNoMergedSeal):
		return epoch, nil, false, nil
	case err != nil:
		return epoch, nil, false, err
	case !bytes.Equal(sealed, digest):
		return epoch, nil, false, fmt.Errorf("%w: the nodes' merged seal for epoch %d disagrees with the live audit",
			vdp.ErrAuditFail, epoch)
	}
	f.next++
	return epoch, digest, true, nil
}

// Records returns how many records the follower has consumed per shard.
func (f *TailFollower) Records() []int {
	out := make([]int, len(f.cursor))
	copy(out, f.cursor)
	return out
}
