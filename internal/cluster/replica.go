package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// Shard replica sets. A shard's primary runs the ordinary Node and wraps its
// durable logs in store.ReplicatedLog, whose mirror hook ships every record
// through a Replicator to the shard's Standby *before* the covered verdict is
// acknowledged — synchronous log mirroring, so the standby's record sequence
// (and therefore its digest chain) is byte-identical to the primary's
// published prefix. On probe failure the router promotes the standby with a
// fenced handshake: the standby stops accepting replicate-appends the moment
// it begins resuming a session from the mirror, which permanently cuts the
// stale primary off from acknowledging anything — the split-brain a fenceless
// promotion would allow.

// fencedMsg marks the standby's terminal refusal of replication; the
// Replicator matches it to distinguish "I have been replaced" from transient
// failures.
const fencedMsg = "standby fenced"

// ErrFenced is returned by a Replicator whose standby has been promoted: the
// primary must not acknowledge anything ever again.
var ErrFenced = errors.New("cluster: " + fencedMsg + ": this primary is superseded")

// StandbyConfig configures NewStandby.
type StandbyConfig struct {
	// Shard and Shards are the replica set's position in the cluster.
	Shard, Shards int
	// Board receives the mirrored board log (required).
	Board store.BoardLog
	// Seal receives the mirrored merged-seal sidecar (required).
	Seal store.BoardLog
	// SessionOpts templates the session a promotion resumes: Budget,
	// Parallelism and Rand are honored; Store and Shards are overridden with
	// the mirrored board log and single-shard mode. For digest parity with
	// the primary, Rand must derive the same root seed the primary used.
	SessionOpts vdp.SessionOptions
}

// Standby is the warm replica of one shard: it applies the primary's
// replicate-append stream to its own durable logs and, when promoted, resumes
// a full Node from the mirror. Until promotion it serves only the read-side
// RPCs (status, log, merged-get) — enough for followers and auditors to keep
// reading through a failover — and refuses admissions.
type Standby struct {
	pub *vdp.Public
	ctx context.Context
	cfg StandbyConfig

	mu       sync.Mutex
	boardLen int
	sealLen  int
	epoch    int            // max epoch seen in mirrored board records
	seals    map[int][]byte // mirrored merged seals, epoch → digest
	fenced   bool           // promotion begun: replication refused from here on
	node     *Node          // non-nil once promoted
}

// NewStandby opens a standby over its (possibly non-empty — a restarted
// standby resumes its mirror) logs.
func NewStandby(ctx context.Context, pub *vdp.Public, cfg StandbyConfig) (*Standby, error) {
	if cfg.Board == nil || cfg.Seal == nil {
		return nil, fmt.Errorf("cluster: a standby needs board and seal logs")
	}
	s := &Standby{pub: pub, ctx: ctx, cfg: cfg, seals: make(map[int][]byte)}
	err := cfg.Board.Replay(func(rec *store.Record) error {
		s.boardLen++
		if int(rec.Epoch) > s.epoch {
			s.epoch = int(rec.Epoch)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = cfg.Seal.Replay(func(rec *store.Record) error {
		if rec.Kind != vdp.RecordMergedSeal {
			return fmt.Errorf("cluster: unexpected record kind %d in standby seal mirror", rec.Kind)
		}
		shards, digest, derr := vdp.DecodeMergedSealRecord(rec.Payload)
		if derr != nil {
			return derr
		}
		if shards != cfg.Shards {
			return fmt.Errorf("cluster: seal mirror records %d shards, standby configured for %d", shards, cfg.Shards)
		}
		s.sealLen++
		s.seals[int(rec.Epoch)] = digest
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Node returns the promoted node, nil while still a standby.
func (s *Standby) Node() *Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node
}

// Promoted reports whether the standby has taken over its shard.
func (s *Standby) Promoted() bool { return s.Node() != nil }

// SubmitBatch admits a batch through the promoted node, resolved per call: a
// standby takes no admissions until the router has promoted it.
func (s *Standby) SubmitBatch(ctx context.Context, subs []*vdp.ClientSubmission) ([]error, error) {
	node := s.Node()
	if node == nil {
		return nil, fmt.Errorf("cluster: shard %d standby does not take submissions until promoted", s.cfg.Shard)
	}
	return node.SubmitBatch(ctx, subs)
}

// MirroredRecords reports how many board records the mirror holds.
func (s *Standby) MirroredRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.boardLen
}

// Handle serves one frame, always producing exactly one reply (KindError on
// failure) like Node.Handle. After promotion, non-replication RPCs are served
// by the promoted node.
func (s *Standby) Handle(f *transport.Frame) []*transport.Frame {
	return []*transport.Frame{s.handle(f)}
}

func (s *Standby) handle(f *transport.Frame) *transport.Frame {
	switch f.Kind {
	case KindReplicate:
		return s.replicate(f.Payload)
	case KindPromote:
		return s.promote(f.Payload)
	}
	s.mu.Lock()
	node := s.node
	s.mu.Unlock()
	if node != nil {
		return node.handle(f)
	}
	switch f.Kind {
	case KindStatus:
		return &transport.Frame{Kind: okKind(KindStatus), Payload: encodeStatus(s.status())}
	case KindLog:
		return shipLogFrame(s.cfg.Shard, s.cfg.Board)
	case KindMergedGet:
		epoch, latest, err := decodeMergedGetReq(f.Payload)
		if err != nil {
			return errFrame("%v", err)
		}
		return s.mergedGet(epoch, latest)
	default:
		return errFrame("cluster: shard %d standby does not serve %q until promoted", s.cfg.Shard, f.Kind)
	}
}

func (s *Standby) status() *NodeStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, merged := s.seals[s.epoch]
	return &NodeStatus{
		Shard:        s.cfg.Shard,
		Shards:       s.cfg.Shards,
		Epoch:        s.epoch,
		MergedSealed: merged,
		Durable:      true,
		Standby:      true,
		LogLen:       s.boardLen,
	}
}

// replicate applies one mirrored record batch. Overlap with records already
// held is skipped (the primary's catch-up re-ships are idempotent); a start
// beyond the mirror's end is answered with KindReplicateGap so the primary
// rewinds. A fenced standby refuses terminally.
func (s *Standby) replicate(payload []byte) *transport.Frame {
	shard, shards, logID, start, recs, err := decodeReplicate(payload)
	if err != nil {
		return errFrame("%v", err)
	}
	if shard != s.cfg.Shard || shards != s.cfg.Shards {
		return errFrame("cluster: replicate stream for shard %d/%d, standby serves %d/%d",
			shard, shards, s.cfg.Shard, s.cfg.Shards)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fenced {
		return errFrame("cluster: %s: shard %d standby has been promoted", fencedMsg, s.cfg.Shard)
	}
	var log store.BoardLog
	var have *int
	switch logID {
	case ReplLogBoard:
		log, have = s.cfg.Board, &s.boardLen
	case ReplLogSeal:
		log, have = s.cfg.Seal, &s.sealLen
	default:
		return errFrame("cluster: unknown replicate log id %d", logID)
	}
	if start > *have {
		return &transport.Frame{Kind: KindReplicateGap, Payload: encodeReplicateOK(logID, *have)}
	}
	skip := *have - start
	if skip < len(recs) {
		fresh := recs[skip:]
		gc, grouped := log.(interface {
			AppendNoSync(*store.Record) error
			Sync() error
		})
		for _, rec := range fresh {
			var aerr error
			if grouped {
				aerr = gc.AppendNoSync(rec)
			} else {
				aerr = log.Append(rec)
			}
			if aerr != nil {
				return errFrame("cluster: standby mirror append: %v", aerr)
			}
			*have++
			if logID == ReplLogBoard {
				if int(rec.Epoch) > s.epoch {
					s.epoch = int(rec.Epoch)
				}
			} else {
				shards, digest, derr := vdp.DecodeMergedSealRecord(rec.Payload)
				if derr == nil && shards == s.cfg.Shards {
					s.seals[int(rec.Epoch)] = digest
				}
			}
		}
		if grouped {
			if err := gc.Sync(); err != nil {
				return errFrame("cluster: standby mirror sync: %v", err)
			}
		}
	}
	return &transport.Frame{Kind: okKind(KindReplicate), Payload: encodeReplicateOK(logID, *have)}
}

func (s *Standby) mergedGet(epoch int, latest bool) *transport.Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	if latest {
		found := false
		for e := range s.seals {
			if !found || e > epoch {
				epoch, found = e, true
			}
		}
		if !found {
			return errFrame("cluster: shard %d standby has no merged seal mirrored", s.cfg.Shard)
		}
	}
	digest, ok := s.seals[epoch]
	if !ok {
		return errFrame("cluster: shard %d standby has no merged seal for epoch %d", s.cfg.Shard, epoch)
	}
	return &transport.Frame{
		Kind:    okKind(KindMergedGet),
		Payload: encodeMergedSeal(epoch, s.cfg.Shards, digest),
	}
}

// promote executes the fenced takeover. The handshake order is what prevents
// split brain: expectations that can be checked against the mirror alone
// (last offset, mirrored epoch) are verified first; then the standby fences —
// from that moment the old primary can never get another append acknowledged
// — and only then is the session resumed from the mirror. Once the fence is
// up it stays up: a post-resume validation failure leaves the shard down for
// an operator rather than risking two acknowledging primaries. Promotion is
// idempotent — an already-promoted standby answers with its node's status.
func (s *Standby) promote(payload []byte) *transport.Frame {
	expectedEpoch, minLogLen, err := decodePromoteReq(payload)
	if err != nil {
		return errFrame("%v", err)
	}
	s.mu.Lock()
	if s.node != nil {
		st := s.node.Status()
		s.mu.Unlock()
		return &transport.Frame{Kind: okKind(KindPromote), Payload: encodeStatus(st)}
	}
	if s.boardLen < minLogLen {
		n := s.boardLen
		s.mu.Unlock()
		return errFrame("cluster: shard %d standby mirror holds %d records, promotion requires %d — refusing to rewrite acknowledged history",
			s.cfg.Shard, n, minLogLen)
	}
	if expectedEpoch >= 0 && s.epoch > expectedEpoch {
		e := s.epoch
		s.mu.Unlock()
		return errFrame("cluster: shard %d standby mirror is at epoch %d, ahead of the router's expected epoch %d",
			s.cfg.Shard, e, expectedEpoch)
	}
	if s.fenced {
		// A concurrent promotion is resuming; report busy rather than racing
		// two sessions over one log.
		s.mu.Unlock()
		return errFrame("cluster: shard %d standby promotion already in progress", s.cfg.Shard)
	}
	s.fenced = true
	empty := s.boardLen == 0
	s.mu.Unlock()

	opts := s.cfg.SessionOpts
	opts.Store = s.cfg.Board
	opts.Shards = 0
	opts.Segmented = nil
	var sess *vdp.Session
	if empty {
		sess, err = vdp.NewShardSession(s.pub, opts, s.cfg.Shard, s.cfg.Shards)
	} else {
		sess, err = vdp.ResumeShardSession(s.ctx, s.pub, opts, s.cfg.Shard, s.cfg.Shards)
	}
	if err != nil {
		return errFrame("cluster: shard %d standby failed to resume from its mirror: %v", s.cfg.Shard, err)
	}
	if expectedEpoch >= 0 && sess.Epoch() != expectedEpoch {
		return errFrame("cluster: shard %d standby resumed at epoch %d, router expected %d",
			s.cfg.Shard, sess.Epoch(), expectedEpoch)
	}
	node, err := NewNode(s.ctx, s.pub, sess, NodeConfig{
		Shard: s.cfg.Shard, Shards: s.cfg.Shards, BoardLog: s.cfg.Board, SealLog: s.cfg.Seal,
	})
	if err != nil {
		return errFrame("cluster: shard %d standby promotion: %v", s.cfg.Shard, err)
	}
	s.mu.Lock()
	s.node = node
	// Resuming may have appended records (re-verified verdicts); recount so
	// status stays truthful.
	s.boardLen = boardLen(s.cfg.Board)
	s.mu.Unlock()
	return &transport.Frame{Kind: okKind(KindPromote), Payload: encodeStatus(node.Status())}
}

// Replicator is the primary-side mirror client: one persistent frame
// connection to the shard's standby, shipping record batches for both
// durable logs (board and seal sidecar) with bounded redial/retry. All sends
// are serialized — the mirror is a strict prefix stream. Once the standby
// reports itself fenced, every further send fails with ErrFenced and the
// primary can never acknowledge again.
type Replicator struct {
	addr          string
	shard, shards int
	opts          transport.ClientOptions

	mu     sync.Mutex
	cli    *transport.Client
	fenced bool
}

// NewReplicator builds a mirror client for the standby at addr. No
// connection is opened until the first send.
func NewReplicator(addr string, shard, shards int, opts transport.ClientOptions) *Replicator {
	return &Replicator{addr: addr, shard: shard, shards: shards, opts: opts}
}

// Addr returns the standby's address.
func (r *Replicator) Addr() string { return r.addr }

// Fenced reports whether the standby has refused this primary terminally.
func (r *Replicator) Fenced() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fenced
}

// Close drops the mirror connection, if any.
func (r *Replicator) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resetLocked()
}

func (r *Replicator) resetLocked() {
	if r.cli != nil {
		r.cli.Close()
		r.cli = nil
	}
}

// Mirror returns the store.MirrorFunc for one of the two mirrored logs, to
// hand to store.NewReplicatedLog.
func (r *Replicator) Mirror(logID uint8) store.MirrorFunc {
	return func(start int, recs []*store.Record) (int, error) {
		return r.send(logID, start, recs)
	}
}

// replChunkBytes bounds one replicate frame's payload, well under the
// transport's hard frame limit so a large catch-up splits cleanly.
const replChunkBytes = 4 << 20

func (r *Replicator) send(logID uint8, start int, recs []*store.Record) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fenced {
		return 0, ErrFenced
	}
	have := start
	for len(recs) > 0 {
		n, size := 0, 0
		for n < len(recs) && (n == 0 || size < replChunkBytes) {
			size += len(recs[n].Payload) + 32
			n++
		}
		payload, err := encodeReplicate(r.shard, r.shards, logID, have, recs[:n])
		if err != nil {
			return 0, err
		}
		reply, err := r.roundTripLocked(&transport.Frame{Kind: KindReplicate, Payload: payload})
		if err != nil {
			return 0, err
		}
		switch reply.Kind {
		case okKind(KindReplicate):
			gotID, newLen, derr := decodeReplicateOK(reply.Payload)
			if derr != nil || gotID != logID || newLen < have+n {
				// A malformed or short ack usually means the reply stream
				// desynced (a duplicated request queued a stale reply); drop
				// the connection so the next flush redials in sync — the
				// mirror stream is idempotent, so re-shipping is safe.
				r.resetLocked()
				return 0, fmt.Errorf("cluster: out-of-sync replicate ack from standby %s (log %d, want >= %d records confirmed)",
					r.addr, logID, have+n)
			}
			have = newLen
		case KindReplicateGap:
			_, standbyLen, derr := decodeReplicateOK(reply.Payload)
			if derr != nil {
				return 0, fmt.Errorf("cluster: malformed replicate gap: %v", derr)
			}
			return 0, &store.MirrorGapError{StandbyLen: standbyLen}
		case KindError, "error":
			if strings.Contains(string(reply.Payload), fencedMsg) {
				r.fenced = true
				r.resetLocked()
				return 0, ErrFenced
			}
			r.resetLocked()
			return 0, fmt.Errorf("cluster: replicate to standby %s: %s", r.addr, reply.Payload)
		default:
			r.resetLocked()
			return 0, fmt.Errorf("cluster: unexpected replicate reply kind %q", reply.Kind)
		}
		recs = recs[n:]
	}
	return have, nil
}

// roundTripLocked performs one replicate round trip, redialing and retrying
// transient transport failures under the retry policy. Callers hold r.mu.
func (r *Replicator) roundTripLocked(f *transport.Frame) (*transport.Frame, error) {
	sleeps := r.opts.Retry.Schedule(r.opts.Retry.Retries)
	var lastErr error
	for attempt := 0; attempt <= r.opts.Retry.Retries; attempt++ {
		if attempt > 0 && attempt-1 < len(sleeps) {
			time.Sleep(sleeps[attempt-1])
		}
		if r.cli == nil {
			cli, err := transport.DialClient(r.addr, r.opts)
			if err != nil {
				lastErr = err
				continue
			}
			r.cli = cli
		}
		reply, err := r.cli.RoundTrip(f)
		if err == nil {
			return reply, nil
		}
		lastErr = err
		r.cli.Close()
		r.cli = nil
	}
	return nil, fmt.Errorf("cluster: mirroring to standby %s: %w", r.addr, lastErr)
}
