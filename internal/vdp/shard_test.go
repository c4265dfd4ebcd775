package vdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sketch"
	"repro/internal/store"
)

// TestShardedMatchesSessionDigest is the sharding acceptance criterion.
// Part 1: with Shards = 1 the merged transcript digest is byte-identical to
// a plain Session's under the same seed. Part 2: a sharded epoch that
// crashes mid-stream and is resumed from its segmented board log finalizes
// to the same merged digest as an uninterrupted run of the same material.
func TestShardedMatchesSessionDigest(t *testing.T) {
	pub := testPublic(t, 1, 1, 6)
	choices := []int{1, 0, 1, 1, 0, 1, 0, 1}

	// Reference: the unsharded streaming session.
	ref, err := NewSession(pub, SessionOptions{Rand: testSeed(5), Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range choices {
		sub, err := ref.NewClientSubmission(i, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Submit(context.Background(), sub); err != nil {
			t.Fatal(err)
		}
	}
	refRes, err := ref.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := TranscriptDigest(pub, refRes.Transcript)

	// Part 1: Shards = 1 collapses to the plain session, byte for byte.
	ss, err := NewShardedSession(pub, SessionOptions{Rand: testSeed(5), Shards: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range choices {
		sub, err := ss.NewClientSubmission(i, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Submit(context.Background(), sub); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	res, err := ss.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != 1 {
		t.Fatalf("merged result covers %d shards, want 1", len(res.Shards))
	}
	if !bytes.Equal(res.Digest, want) {
		t.Error("Shards=1 merged digest differs from the plain Session's under the same seed")
	}
	if err := AuditMerged(context.Background(), pub, res.Transcripts(), res.Release, 0); err != nil {
		t.Errorf("merged audit: %v", err)
	}

	// Part 2: crash/resume of a sharded epoch reproduces the merged digest.
	const shards = 3
	subs := make([]*ClientSubmission, len(choices))

	runSharded := func(opts SessionOptions, crashAfter int) (*ShardedResult, *ShardedSession) {
		s, err := NewShardedSession(pub, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range choices {
			if subs[i] == nil {
				sub, err := s.NewClientSubmission(i, c)
				if err != nil {
					t.Fatal(err)
				}
				subs[i] = sub
			}
			if err := s.Submit(context.Background(), subs[i]); err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
			if i+1 == crashAfter {
				return nil, s
			}
		}
		out, err := s.Finalize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out, s
	}

	uninterrupted, _ := runSharded(SessionOptions{Rand: testSeed(9), Shards: shards, Parallelism: 2}, 0)
	if bytes.Equal(uninterrupted.Digest, want) {
		t.Error("multi-shard digest equals single-session digest — shards are not independent instances")
	}

	dir := t.TempDir()
	seg, err := store.OpenSegmentedLog(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = runSharded(SessionOptions{Rand: testSeed(9), Segmented: seg, Parallelism: 2}, 5)
	if err := seg.Close(); err != nil { // the crash
		t.Fatal(err)
	}

	seg2, err := store.OpenSegmentedLog(dir, 0) // adopt the recorded shard count
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()
	if got := seg2.Shards(); got != shards {
		t.Fatalf("reopened segmented log has %d shards, want %d", got, shards)
	}
	resumed, err := ResumeShardedSession(context.Background(), pub, SessionOptions{Rand: testSeed(9), Segmented: seg2, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Submitted(); got != 5 {
		t.Fatalf("resumed session recovered %d submissions, want 5", got)
	}
	for i := 5; i < len(choices); i++ {
		if err := resumed.Submit(context.Background(), subs[i]); err != nil {
			t.Fatalf("post-resume client %d: %v", i, err)
		}
	}
	resumedRes, err := resumed.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedRes.Digest, uninterrupted.Digest) {
		t.Error("crash/resume of a sharded epoch changed the merged transcript digest")
	}
	if err := AuditMerged(context.Background(), pub, resumedRes.Transcripts(), resumedRes.Release, 0); err != nil {
		t.Errorf("merged audit of recovered epoch: %v", err)
	}
	if err := AuditSegmentedLog(context.Background(), pub, seg2, -1, 0); err != nil {
		t.Errorf("segmented offline audit: %v", err)
	}
}

// TestShardedRouting: every submission lands on the shard ShardOf assigns
// it, the per-shard counters sum to the whole board, and rejections merge
// across shards.
func TestShardedRouting(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	const shards, n = 4, 16
	ss, err := NewShardedSession(pub, SessionOptions{Shards: shards, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	perShard := make([]int, shards)
	for i := 0; i < n; i++ {
		sub, err := ss.NewClientSubmission(i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if i == 7 { // one forged proof in the flood
			other, err := pub.NewClientSubmission(99, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			sub.Public.BitProof = other.Public.BitProof
		}
		err = ss.Submit(context.Background(), sub)
		if i == 7 {
			if !errors.Is(err, ErrClientReject) {
				t.Fatalf("forged client verdict: %v", err)
			}
		} else if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		perShard[ShardOf(i, shards)]++
	}
	spread := 0
	for i := 0; i < shards; i++ {
		if got := ss.Shard(i).Submitted(); got != perShard[i] {
			t.Errorf("shard %d holds %d submissions, hash assigns %d", i, got, perShard[i])
		}
		if perShard[i] > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("hash routed every client to %d shard(s); want a spread", spread)
	}
	if got := ss.Submitted(); got != n {
		t.Errorf("Submitted() = %d, want %d", got, n)
	}
	if got := ss.Accepted(); got != n-1 {
		t.Errorf("Accepted() = %d, want %d", got, n-1)
	}
	rej := ss.Rejected()
	if len(rej) != 1 || !errors.Is(rej[7], ErrClientReject) {
		t.Errorf("merged rejections: %v", rej)
	}
	res, err := ss.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RejectedClients) != 1 || !errors.Is(res.RejectedClients[7], ErrClientReject) {
		t.Errorf("finalized rejections: %v", res.RejectedClients)
	}
	// The combined release covers the n-1 honest ones: raw within the noise
	// envelope [n-1, n-1 + shards·K·nb].
	if res.Release.Raw[0] < n-1 || res.Release.Raw[0] > n-1+shards*4 {
		t.Errorf("merged raw %d outside honest envelope", res.Release.Raw[0])
	}
	if err := AuditMerged(context.Background(), pub, res.Transcripts(), res.Release, 0); err != nil {
		t.Errorf("merged audit: %v", err)
	}
}

// TestShardedConcurrentSubmit floods a sharded session from many goroutines
// (run under -race in CI): shard routing must stay correct and the merged
// epoch must audit.
func TestShardedConcurrentSubmit(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	const shards, n = 4, 24
	subs := make([]*ClientSubmission, n)
	err := forEach(nil, 4, n, func(i int) error {
		sub, err := pub.NewClientSubmission(i, 1, nil)
		if err != nil {
			return err
		}
		subs[i] = sub
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardedSession(pub, SessionOptions{Shards: shards, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	verdicts := make([]error, n)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				verdicts[i] = ss.Submit(context.Background(), subs[i])
			}
		}(g)
	}
	wg.Wait()
	for i, v := range verdicts {
		if v != nil {
			t.Errorf("client %d: %v", i, v)
		}
	}
	res, err := ss.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Release.Raw[0] < n || res.Release.Raw[0] > n+shards*4 {
		t.Errorf("merged raw %d outside honest envelope", res.Release.Raw[0])
	}
	if err := AuditMerged(context.Background(), pub, res.Transcripts(), res.Release, 0); err != nil {
		t.Errorf("merged audit: %v", err)
	}
}

// segBoard is one segmented board under test: the shared lifecycle core,
// reached directly, plus the part each kind owns — building and admitting a
// member of the population, and what Finalize assembles (reduced here to the
// merged digest). The lifecycle tests below take the segment kind as one more
// input, so every crash-retry schedule runs over shards and sketch rows alike.
type segBoard struct {
	*segmentedSession
	newMember func(id, choice int) (any, error) // session-deterministic client material
	submit    func(ctx context.Context, member any) error
	batch     func(ctx context.Context, members []any) ([]error, error)
	finalize  func(ctx context.Context) ([]byte, error)
}

// admitShaped is admitShaped (faultinject_test.go) over the board's kind.
func (b *segBoard) admitShaped(ctx context.Context, f frameShape, members []any) []error {
	return admitShaped(f, members,
		func(m any) error { return b.submit(ctx, m) },
		func(frame []any) ([]error, error) { return b.batch(ctx, frame) })
}

// membersAs unboxes a frame of population members.
func membersAs[M any](members []any) []M {
	out := make([]M, len(members))
	for i, m := range members {
		out[i], _ = m.(M)
	}
	return out
}

// segCase is a segment kind as a test input.
type segCase struct {
	name string
	bins int // the deployment's bin count
	kind segmentKind
	open func(pub *Public, opts SessionOptions, n int, resume bool) (*segBoard, error)
	// member builds one population member off-session (fixed randomness).
	member func(pub *Public, n, id, choice int) (any, error)
	audit  func(ctx context.Context, pub *Public, seg *store.SegmentedLog, n, epoch, workers int) error
}

// rowLayout is the sketch the row kind runs: n rows of two buckets, so the
// 0/1 choices of the sharded populations double as items.
func rowLayout(n int) sketch.Layout { return sketch.Layout{Rows: n, Width: 2, Domain: 2} }

var segCases = []segCase{
	{
		name: "shards", bins: 1, kind: shardSegments,
		open: func(pub *Public, opts SessionOptions, n int, resume bool) (*segBoard, error) {
			if opts.Segmented == nil && !resume {
				opts.Shards = n
			}
			ss, err := openShardedSession(context.Background(), pub, opts, resume)
			if err != nil {
				return nil, err
			}
			return &segBoard{
				segmentedSession: ss.segmentedSession,
				newMember:        func(id, choice int) (any, error) { return ss.NewClientSubmission(id, choice) },
				submit: func(ctx context.Context, m any) error {
					sub, _ := m.(*ClientSubmission)
					return ss.Submit(ctx, sub)
				},
				batch: func(ctx context.Context, ms []any) ([]error, error) {
					return ss.SubmitBatch(ctx, membersAs[*ClientSubmission](ms))
				},
				finalize: func(ctx context.Context) ([]byte, error) {
					res, err := ss.Finalize(ctx)
					if err != nil {
						return nil, err
					}
					return res.Digest, AuditMerged(ctx, pub, res.Transcripts(), res.Release, 0)
				},
			}, nil
		},
		member: func(pub *Public, n, id, choice int) (any, error) {
			return pub.NewClientSubmission(id, choice, testSeed(byte(40+id)))
		},
		audit: func(ctx context.Context, pub *Public, seg *store.SegmentedLog, n, epoch, workers int) error {
			return AuditSegmentedLog(ctx, pub, seg, epoch, workers)
		},
	},
	{
		name: "sketch-rows", bins: 2, kind: rowSegments,
		open: func(pub *Public, opts SessionOptions, n int, resume bool) (*segBoard, error) {
			hs, err := openSketchSession(context.Background(), pub, rowLayout(n), opts, resume)
			if err != nil {
				return nil, err
			}
			return &segBoard{
				segmentedSession: hs.segmentedSession,
				newMember:        func(id, item int) (any, error) { return hs.NewContribution(id, item) },
				submit: func(ctx context.Context, m any) error {
					c, _ := m.(*SketchContribution)
					return hs.Submit(ctx, c)
				},
				batch: func(ctx context.Context, ms []any) ([]error, error) {
					return hs.SubmitBatch(ctx, membersAs[*SketchContribution](ms))
				},
				finalize: func(ctx context.Context) ([]byte, error) {
					res, err := hs.Finalize(ctx)
					if err != nil {
						return nil, err
					}
					return res.Digest, nil
				},
			}, nil
		},
		member: func(pub *Public, n, id, item int) (any, error) {
			return pub.NewSketchContribution(rowLayout(n), id, item, testSeed(byte(40+id)))
		},
		audit: func(ctx context.Context, pub *Public, seg *store.SegmentedLog, n, epoch, workers int) error {
			return AuditSketchLog(ctx, pub, rowLayout(n), seg, epoch, workers)
		},
	},
}

// mustOpen opens a segmented board of the case's kind or fails the test.
func (k segCase) mustOpen(t *testing.T, pub *Public, opts SessionOptions, n int, resume bool) *segBoard {
	t.Helper()
	b, err := k.open(pub, opts, n, resume)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// admit builds client id's material from the board's deterministic stream and
// submits it.
func (b *segBoard) admit(t *testing.T, id, choice int) {
	t.Helper()
	m, err := b.newMember(id, choice)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.submit(context.Background(), m); err != nil {
		t.Fatal(err)
	}
}

// eachSegKind runs fn once per segment kind, over that kind's deployment.
func eachSegKind(t *testing.T, nb int, fn func(t *testing.T, k segCase, pub *Public)) {
	for _, k := range segCases {
		t.Run(k.name, func(t *testing.T) { fn(t, k, testPublic(t, 1, k.bins, nb)) })
	}
}

// TestShardedCrashMidFinalize: a crash that seals some segments but not
// others resumes open, reuses the sealed segments' transcripts, and still
// produces the uninterrupted merged digest.
func TestShardedCrashMidFinalize(t *testing.T) {
	eachSegKind(t, 4, func(t *testing.T, k segCase, pub *Public) {
		const segs = 3
		choices := []int{1, 0, 1, 1, 1, 0, 0, 1, 1}
		run := func(opts SessionOptions) *segBoard {
			b := k.mustOpen(t, pub, opts, segs, false)
			for i, c := range choices {
				b.admit(t, i, c)
			}
			return b
		}

		ref, err := run(SessionOptions{Rand: testSeed(21)}).finalize(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		seg, err := store.OpenSegmentedLog(dir, segs)
		if err != nil {
			t.Fatal(err)
		}
		b := run(SessionOptions{Rand: testSeed(21), Segmented: seg})
		// The "crash": exactly one segment finalizes (seals) before the
		// process dies.
		if _, err := b.segs[1].Finalize(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}

		seg2, err := store.OpenSegmentedLog(dir, segs)
		if err != nil {
			t.Fatal(err)
		}
		defer seg2.Close()
		resumed := k.mustOpen(t, pub, SessionOptions{Rand: testSeed(21), Segmented: seg2}, segs, true)
		if resumed.Finalized() {
			t.Fatal("partially sealed epoch resumed as finalized")
		}
		got, err := resumed.finalize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Error("crash mid-finalize changed the merged digest")
		}
		if err := k.audit(context.Background(), pub, seg2, segs, -1, 0); err != nil {
			t.Errorf("segmented audit after mid-finalize recovery: %v", err)
		}
	})
}

// TestShardedManifestHeal: a crash after every shard sealed but before the
// manifest's merged-seal record landed resumes finalized, recomputes the
// merged digest from the segment seals, and heals the manifest so the
// offline auditor accepts the epoch.
func TestShardedManifestHeal(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	const shards = 2
	dir := t.TempDir()
	seg, err := store.OpenSegmentedLog(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardedSession(pub, SessionOptions{Rand: testSeed(33), Segmented: seg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		sub, err := ss.NewClientSubmission(i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Submit(context.Background(), sub); err != nil {
			t.Fatal(err)
		}
	}
	// Seal every shard by hand — the front door never gets to write the
	// manifest record, exactly like a crash between the last segment seal
	// and the manifest append.
	for i := 0; i < shards; i++ {
		if _, err := ss.Shard(i).Finalize(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	seg2, err := store.OpenSegmentedLog(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()
	// A manifest that seals the epoch with a digest the segments do not
	// produce is tampering, not a crash to heal.
	segs, manifest := segmentRecords(t, seg2)
	forged := &store.Record{Kind: RecordMergedSeal, Payload: encodeMergedSeal(shards, bytes.Repeat([]byte{0x5a}, 32))}
	doctored := segmentedLogOf(t, segs, append(manifest, forged))
	defer doctored.Close()
	if _, err := ResumeShardedSession(context.Background(), pub, SessionOptions{Rand: testSeed(33), Segmented: doctored}); err == nil ||
		!strings.Contains(err.Error(), "disagrees with the segment seals") {
		t.Fatalf("resume over a forged merged seal: %v", err)
	}
	resumed, err := ResumeShardedSession(context.Background(), pub, SessionOptions{Rand: testSeed(33), Segmented: seg2})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Finalized() {
		t.Fatal("fully sealed epoch did not resume finalized")
	}
	if err := AuditSegmentedLog(context.Background(), pub, seg2, -1, 0); err != nil {
		t.Errorf("audit after manifest heal: %v", err)
	}
	// The next epoch opens cleanly on top of the healed manifest.
	if err := resumed.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Epoch(); got != 1 {
		t.Fatalf("epoch after reset = %d, want 1", got)
	}
	sub, err := resumed.NewClientSubmission(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Submit(context.Background(), sub); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Finalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := AuditSegmentedLog(context.Background(), pub, seg2, 1, 0); err != nil {
		t.Errorf("audit of the post-heal epoch: %v", err)
	}
}

// TestShardedAuditTamper: the merged auditors reject shard-map violations
// and doctored segments.
func TestShardedAuditTamper(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)
	const shards = 2

	// A shard's session refuses another shard's client, so a corrupt
	// curator's boards are forged on unpinned sessions, one per shard.
	forgedShard := func(t *testing.T, subs ...*ClientSubmission) *Transcript {
		t.Helper()
		s, err := NewSession(pub, SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			if err := s.Submit(context.Background(), sub); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Finalize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Transcript
	}
	auditForged := func(t *testing.T, ts []*Transcript) error {
		t.Helper()
		rel, err := MergeReleases(pub, ts)
		if err != nil {
			t.Fatal(err)
		}
		return AuditMerged(context.Background(), pub, ts, rel, 0)
	}

	t.Run("client-on-wrong-shard", func(t *testing.T) {
		sub, err := pub.NewClientSubmission(3, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The client is posted on the other shard's board.
		ts := make([]*Transcript, shards)
		wrong := 1 - ShardOf(3, shards)
		ts[wrong], ts[1-wrong] = forgedShard(t, sub), forgedShard(t)
		if err := auditForged(t, ts); !errors.Is(err, ErrAuditFail) {
			t.Errorf("wrong-shard client passed the merged audit: %v", err)
		}
	})

	t.Run("client-on-two-shards", func(t *testing.T) {
		// Find an ID for each shard, then post shard 1's client on both.
		sub0, err := pub.NewClientSubmission(pickIDForShard(0, shards), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		dup, err := pub.NewClientSubmission(pickIDForShard(1, shards), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := []*Transcript{forgedShard(t, sub0, dup), forgedShard(t, dup)}
		if err := auditForged(t, ts); !errors.Is(err, ErrAuditFail) {
			t.Errorf("double-posted client passed the merged audit: %v", err)
		}
	})

	t.Run("segment-appended-after-seal", func(t *testing.T) {
		dir := t.TempDir()
		seg, err := store.OpenSegmentedLog(dir, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		ss, err := NewShardedSession(pub, SessionOptions{Segmented: seg})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := ss.NewClientSubmission(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Submit(context.Background(), sub); err != nil {
			t.Fatal(err)
		}
		if _, err := ss.Finalize(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := AuditSegmentedLog(context.Background(), pub, seg, -1, 0); err != nil {
			t.Fatalf("honest epoch failed audit: %v", err)
		}
		// Tamper: splice a forged submission into a sealed segment.
		forged, err := pub.NewClientSubmission(77, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		shard := ShardOf(77, shards)
		err = seg.Segment(shard).Append(&store.Record{
			Kind: RecordSubmission, Epoch: 0, Payload: pub.EncodeClientSubmission(forged),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := AuditSegmentedLog(context.Background(), pub, seg, -1, 0); !errors.Is(err, ErrAuditFail) {
			t.Errorf("doctored segment passed the audit: %v", err)
		}
	})

	t.Run("manifest-double-seal", func(t *testing.T) {
		dir := t.TempDir()
		seg, err := store.OpenSegmentedLog(dir, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		ss, err := NewShardedSession(pub, SessionOptions{Segmented: seg})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := ss.NewClientSubmission(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Submit(context.Background(), sub); err != nil {
			t.Fatal(err)
		}
		if _, err := ss.Finalize(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Tamper: a second, contradictory merged seal for the same epoch.
		bogus := make([]byte, 32)
		err = seg.Manifest().Append(&store.Record{Kind: RecordMergedSeal, Epoch: 0, Payload: encodeMergedSeal(shards, bogus)})
		if err != nil {
			t.Fatal(err)
		}
		if err := AuditSegmentedLog(context.Background(), pub, seg, -1, 0); err == nil {
			t.Error("double-sealed manifest passed the audit")
		}
	})
}

// TestShardedManifestAppendFailureRetryable: when every segment seals but
// the manifest's merged-seal append fails, the session must stay retryable —
// not report "session is finalized" — so a caller can re-merge in-process
// once the store recovers (the retry reuses the kept segment transcripts).
func TestShardedManifestAppendFailureRetryable(t *testing.T) {
	eachSegKind(t, 4, func(t *testing.T, k segCase, pub *Public) {
		seg, err := store.OpenSegmentedLog(t.TempDir(), 2)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		b := k.mustOpen(t, pub, SessionOptions{Segmented: seg}, 2, false)
		b.admit(t, 0, 1)
		// Break only the manifest: the segment seals still land, the
		// epoch-binding merged-seal record cannot.
		if err := seg.Manifest().Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := b.finalize(context.Background()); !errors.Is(err, store.ErrClosed) {
			t.Fatalf("Finalize with a failing manifest: %v, want the manifest append error", err)
		}
		if b.Finalized() {
			t.Fatal("manifest append failure marked the session finalized, burying the retry")
		}
		// The retry surfaces the same storage error (the manifest is still
		// down), never the misleading lifecycle error.
		if _, err := b.finalize(context.Background()); errors.Is(err, ErrBadConfig) {
			t.Fatalf("Finalize retry reported a lifecycle error instead of the storage error: %v", err)
		}
	})
}

// TestShardedResetHealsMergedSeal: a caller that answers a failed
// merged-seal append with Reset (instead of a Finalize retry) must not
// orphan the fully-sealed epoch — Reset writes the missing manifest record
// from the kept segment transcripts before advancing.
func TestShardedResetHealsMergedSeal(t *testing.T) {
	eachSegKind(t, 4, func(t *testing.T, k segCase, pub *Public) {
		ctx := context.Background()
		seg, err := store.OpenSegmentedLog(t.TempDir(), 2)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		b := k.mustOpen(t, pub, SessionOptions{Segmented: seg}, 2, false)
		for i := 0; i < 4; i++ {
			b.admit(t, i, 1)
		}
		// Seal every segment without the front door: the manifest record is
		// missing, exactly as after a failed manifest append.
		for _, s := range b.segs {
			if _, err := s.Finalize(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.audit(ctx, pub, seg, 2, 0, 0); err == nil {
			t.Fatal("epoch 0 audited without a merged seal — test setup is wrong")
		}
		if err := b.Reset(); err != nil {
			t.Fatal(err)
		}
		// The heal landed: epoch 0 is a complete merged epoch for the auditor,
		// and the session serves epoch 1 normally.
		if err := k.audit(ctx, pub, seg, 2, 0, 0); err != nil {
			t.Errorf("epoch 0 still unauditable after Reset healed the manifest: %v", err)
		}
		b.admit(t, 50, 1)
		if _, err := b.finalize(ctx); err != nil {
			t.Fatal(err)
		}
		if err := k.audit(ctx, pub, seg, 2, 1, 0); err != nil {
			t.Errorf("epoch 1 audit: %v", err)
		}
	})
}

// pickIDForShard returns a small non-negative client ID that ShardOf maps to
// the wanted shard.
func pickIDForShard(shard, shards int) int {
	for id := 0; ; id++ {
		if ShardOf(id, shards) == shard {
			return id
		}
	}
}

// TestShardedStateMachine pins the front door's lifecycle errors and the
// configuration guards around sharding.
func TestShardedStateMachine(t *testing.T) {
	pub := testPublic(t, 1, 1, 4)

	if _, err := NewSession(pub, SessionOptions{Shards: 2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NewSession with Shards=2: %v, want ErrBadConfig", err)
	}
	if _, err := NewShardedSession(pub, SessionOptions{Store: store.NewMemLog()}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NewShardedSession with Store: %v, want ErrBadConfig", err)
	}
	dir := t.TempDir()
	seg, err := store.OpenSegmentedLog(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if _, err := NewSession(pub, SessionOptions{Segmented: seg}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NewSession with Segmented: %v, want ErrBadConfig", err)
	}
	if _, err := NewShardedSession(pub, SessionOptions{Shards: 3, Segmented: seg}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("shard-count mismatch: %v, want ErrBadConfig", err)
	}
	if _, err := ResumeSession(context.Background(), pub, SessionOptions{Segmented: seg}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("ResumeSession with Segmented: %v, want ErrBadConfig", err)
	}
	if _, err := ResumeShardedSession(context.Background(), pub, SessionOptions{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("ResumeShardedSession without Segmented: %v, want ErrBadConfig", err)
	}

	ss, err := NewShardedSession(pub, SessionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Submit(context.Background(), nil); !errors.Is(err, ErrClientReject) {
		t.Errorf("nil submission: %v, want ErrClientReject", err)
	}

	eachSegKind(t, 4, func(t *testing.T, k segCase, pub *Public) {
		ctx := context.Background()
		b := k.mustOpen(t, pub, SessionOptions{}, 2, false)
		if err := b.Compact(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("compacting an open epoch: %v, want ErrBadConfig", err)
		}
		m, err := b.newMember(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.submit(ctx, m); err != nil {
			t.Fatal(err)
		}
		if _, err := b.finalize(ctx); err != nil {
			t.Fatal(err)
		}
		if !b.Finalized() {
			t.Error("session not finalized after Finalize")
		}
		if _, err := b.finalize(ctx); !errors.Is(err, ErrBadConfig) {
			t.Errorf("double finalize: %v, want ErrBadConfig", err)
		}
		if err := b.submit(ctx, m); !errors.Is(err, ErrBadConfig) {
			t.Errorf("submit after finalize: %v, want ErrBadConfig", err)
		}
		if err := b.Reset(); err != nil {
			t.Fatal(err)
		}
		if b.Epoch() != 1 {
			t.Errorf("epoch after reset = %d, want 1", b.Epoch())
		}
		// The same client ID is fresh again in the new epoch.
		b.admit(t, 0, 1)
	})
}

// TestShardedResetDeterminism: a seeded multi-epoch sharded schedule is
// reproducible epoch by epoch, and epochs never repeat each other's noise.
func TestShardedResetDeterminism(t *testing.T) {
	pub := testPublic(t, 1, 1, 6)
	choices := []int{1, 1, 0, 1, 0}

	runEpochs := func() [][]byte {
		ss, err := NewShardedSession(pub, SessionOptions{Rand: testSeed(64), Shards: 2, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		var digests [][]byte
		for epoch := 0; epoch < 3; epoch++ {
			for i, c := range choices {
				sub, err := ss.NewClientSubmission(i, c)
				if err != nil {
					t.Fatal(err)
				}
				if err := ss.Submit(context.Background(), sub); err != nil {
					t.Fatal(err)
				}
			}
			res, err := ss.Finalize(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, res.Digest)
			if err := ss.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		return digests
	}

	a, b := runEpochs(), runEpochs()
	for e := range a {
		if !bytes.Equal(a[e], b[e]) {
			t.Errorf("epoch %d not reproducible across same-seed sharded sessions", e)
		}
	}
	for e := 1; e < len(a); e++ {
		if bytes.Equal(a[0], a[e]) {
			t.Errorf("epoch %d merged digest identical to epoch 0 — epochs share noise", e)
		}
	}
}

// TestShardedFinalizeCancellation: a cancelled Finalize reopens the
// segmented session, and the retry completes deterministically — to the
// digest of a run that was never cancelled.
func TestShardedFinalizeCancellation(t *testing.T) {
	eachSegKind(t, 8, func(t *testing.T, k segCase, pub *Public) {
		open := func() *segBoard {
			b := k.mustOpen(t, pub, SessionOptions{Rand: testSeed(12), Parallelism: 2}, 2, false)
			for i := 0; i < 4; i++ {
				b.admit(t, i, 1)
			}
			return b
		}
		want, err := open().finalize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b := open()
		for _, polls := range []int{0, 2, 6} {
			if _, err := b.finalize(newCountdownCtx(polls)); !errors.Is(err, context.Canceled) {
				t.Fatalf("Finalize with cancellation after %d polls: %v, want context.Canceled", polls, err)
			}
			if b.Finalized() {
				t.Fatalf("cancellation after %d polls spent the epoch", polls)
			}
		}
		got, err := b.finalize(context.Background())
		if err != nil {
			t.Fatalf("Finalize retry after cancellation: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("retry after cancellation changed the merged digest")
		}
	})
}

// BenchmarkShardedSubmit measures front-door contention: many goroutines
// hammering Submit with proof-less submissions, which the board check
// rejects structurally, so admission — not proof crypto — dominates (every
// verdict is an ErrClientReject, as expected). The mem variant exercises
// the per-shard roster locks alone (its spread shows up on multi-core
// hosts); the durable variant is
// the production bottleneck made visible on any host: a single session
// forces every submission through ONE board log's ordered append +
// group-commit fsync stream, while Shards ≥ 4 overlap that many independent
// segment streams, cutting the per-submission cost by the overlap factor
// even on one core (fsync latency is I/O wait, not CPU).
func BenchmarkShardedSubmit(b *testing.B) {
	pub, err := Setup(Config{Provers: 1, Bins: 1, Coins: 4})
	if err != nil {
		b.Fatal(err)
	}
	flood := func(b *testing.B, ss *ShardedSession) {
		subs := make([]*ClientSubmission, b.N)
		for i := range subs {
			subs[i] = &ClientSubmission{Public: &ClientPublic{ID: i}}
		}
		var next atomic.Int64
		b.ReportAllocs()
		b.SetParallelism(4) // 4 goroutines per core: keep the serialized sections hot
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(next.Add(1)) - 1
				if err := ss.Submit(context.Background(), subs[i]); err != nil && !errors.Is(err, ErrClientReject) {
					b.Error(err)
					return
				}
			}
		})
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("mem/shards=%d", shards), func(b *testing.B) {
			ss, err := NewShardedSession(pub, SessionOptions{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			flood(b, ss)
		})
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("durable/shards=%d", shards), func(b *testing.B) {
			seg, err := store.OpenSegmentedLog(b.TempDir(), shards)
			if err != nil {
				b.Fatal(err)
			}
			defer seg.Close()
			ss, err := NewShardedSession(pub, SessionOptions{Segmented: seg})
			if err != nil {
				b.Fatal(err)
			}
			flood(b, ss)
		})
	}
}
