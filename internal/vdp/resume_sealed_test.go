package vdp

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/store"
)

// sealedSegments is one sealed epoch of an n-segment board: its records,
// each segment's live transcript digest, and how to resume it.
type sealedSegments struct {
	pub      *Public
	kind     segmentKind
	opts     SessionOptions // Segmented unset
	segs     [][]*store.Record
	manifest []*store.Record
	digests  [][]byte
	resume   func(ctx context.Context, opts SessionOptions) (*segmentedSession, error)
}

// sealedShards seals one epoch of a Shards: n board with two clients or more
// on every shard.
func sealedShards(t *testing.T, n int) *sealedSegments {
	t.Helper()
	ctx := context.Background()
	b := &sealedSegments{pub: testPublic(t, 2, 1, 4), kind: shardSegments,
		opts: SessionOptions{Rand: testSeed(51), Shards: n, Budget: conformanceBudget, Parallelism: 2}}
	b.resume = func(ctx context.Context, opts SessionOptions) (*segmentedSession, error) {
		ss, err := ResumeShardedSession(ctx, b.pub, opts)
		if err != nil {
			return nil, err
		}
		return ss.segmentedSession, nil
	}
	seg, err := store.OpenSegmentedLog(t.TempDir(), n, store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	so := b.opts
	so.Segmented = seg
	ss, err := NewShardedSession(b.pub, so)
	if err != nil {
		t.Fatal(err)
	}
	perShard := make([]int, n)
	for id := 0; slices.Min(perShard) < 2; id++ {
		sub, err := b.pub.NewClientSubmission(id, id&1, testSeed(byte(100+id)))
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
		perShard[ShardOf(id, n)]++
	}
	if _, err := ss.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	b.seal(t, seg, ss.segmentedSession)
	return b
}

// sealedSketch seals one epoch of a three-row sketch board.
func sealedSketch(t *testing.T) *sealedSegments {
	t.Helper()
	ctx := context.Background()
	layout := testLayout()
	b := &sealedSegments{pub: testPublic(t, 1, 8, 4), kind: rowSegments,
		opts: SessionOptions{Rand: testSeed(52), Budget: conformanceBudget, Parallelism: 2}}
	b.resume = func(ctx context.Context, opts SessionOptions) (*segmentedSession, error) {
		hs, err := ResumeSketchSession(ctx, b.pub, layout, opts)
		if err != nil {
			return nil, err
		}
		return hs.segmentedSession, nil
	}
	seg, err := store.OpenSegmentedLog(t.TempDir(), layout.Rows, store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	so := b.opts
	so.Segmented = seg
	hs, err := NewSketchSession(b.pub, layout, so)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 4; id++ {
		c, err := hs.NewContribution(id, id%layout.Domain)
		if err != nil {
			t.Fatal(err)
		}
		if err := hs.Submit(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hs.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	b.seal(t, seg, hs.segmentedSession)
	return b
}

// seal keeps the finalized board's records and live digests.
func (b *sealedSegments) seal(t *testing.T, seg *store.SegmentedLog, live *segmentedSession) {
	t.Helper()
	b.segs, b.manifest = segmentRecords(t, seg)
	for _, s := range live.segs {
		b.digests = append(b.digests, TranscriptDigest(b.pub, s.SealedTranscript()))
	}
}

// open resumes a copy of segs at the given pool width.
func (b *sealedSegments) open(t *testing.T, segs [][]*store.Record, parallelism int) (*segmentedSession, error) {
	t.Helper()
	seg := segmentedLogOf(t, segs, b.manifest)
	t.Cleanup(func() { seg.Close() })
	opts := b.opts
	opts.Segmented, opts.Parallelism = seg, parallelism
	return b.resume(context.Background(), opts)
}

// reusesArrivals fails t unless s resumed sealed with a transcript whose
// every client is the very object its roster holds — decoded once, from the
// arrival record — and whose digest is the live seal's.
func reusesArrivals(t *testing.T, pub *Public, s *Session, digest []byte) {
	t.Helper()
	tr := s.SealedTranscript()
	if !s.Finalized() || tr == nil {
		t.Fatal("the session did not resume sealed")
	}
	if len(tr.Clients) != len(s.order) || len(tr.Clients) == 0 {
		t.Fatalf("the sealed transcript lists %d clients, the resumed roster %d", len(tr.Clients), len(s.order))
	}
	for i, cp := range tr.Clients {
		if cp != s.order[i].public {
			t.Fatalf("sealed client %d was decoded again instead of reusing its arrival's decode", i)
		}
	}
	if !bytes.Equal(TranscriptDigest(pub, tr), digest) {
		t.Fatal("the resumed sealed transcript digests differently from the live seal")
	}
}

// TestResumeSealedReusesArrivalDecodes: a session resumed onto a sealed
// epoch builds its transcript from the clients the replay decoded, as live
// Finalize builds it from the board — no sealed client is decoded twice —
// and the digest is the live seal's. That is sound because the grammar has
// matched every sealed client block to its arrival record byte for byte:
// each seal tamper TestAuditDecodesClientsOnce refuses is refused by
// ResumeSession too, at the seal record, with the same reason.
func TestResumeSealedReusesArrivalDecodes(t *testing.T) {
	ctx := context.Background()
	t.Run("plain", func(t *testing.T) {
		pub, honest, subAt := decodeAheadBoard(t, 3)
		digest, err := transcriptDigestFromBytes(pub, honest[len(honest)-1].Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			s, err := ResumeSession(ctx, pub, SessionOptions{Store: memLogOf(t, honest), Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			reusesArrivals(t, pub, s, digest)
		}
		for _, c := range sealTampers(t, pub, honest, subAt) {
			t.Run(c.name, func(t *testing.T) {
				for _, workers := range []int{1, 4} {
					_, err := ResumeSession(ctx, pub, SessionOptions{Store: memLogOf(t, c.recs), Parallelism: workers})
					refusedAtSeal(t, err, c)
				}
			})
		}
	})
	for name, build := range map[string]func(*testing.T) *sealedSegments{
		"shards-2":    func(t *testing.T) *sealedSegments { return sealedShards(t, 2) },
		"sketch-rows": sealedSketch,
	} {
		t.Run(name, func(t *testing.T) {
			b := build(t)
			for _, workers := range []int{1, 4} {
				g, err := b.open(t, b.segs, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range g.segs {
					reusesArrivals(t, b.pub, s, b.digests[i])
				}
			}
		})
	}
}

// TestResumeSegmentedBlamesLowestSegment: segments resume concurrently, yet
// a board with segments 1 and 2 both tampered is refused naming segment 1,
// with the text a one-by-one loop gives — at every pool width.
func TestResumeSegmentedBlamesLowestSegment(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *sealedSegments{
		"shards-3":    func(t *testing.T) *sealedSegments { return sealedShards(t, 3) },
		"sketch-rows": sealedSketch,
	} {
		t.Run(name, func(t *testing.T) {
			b := build(t)
			if len(b.segs) != 3 {
				t.Fatalf("the board has %d segments, want 3", len(b.segs))
			}
			// Each tampered segment's seal misquotes its first client by one
			// byte.
			segs := append([][]*store.Record(nil), b.segs...)
			for _, i := range []int{1, 2} {
				recs := copyRecords(segs[i])
				var block []byte
				for _, rec := range recs {
					if rec.Kind == RecordSubmission && block == nil {
						block = clientBlock(t, rec)
					}
				}
				seal := recs[len(recs)-1]
				at := bytes.Index(seal.Payload, block)
				if seal.Kind != RecordSeal || block == nil || at < 0 {
					t.Fatalf("segment %d does not end in one seal record quoting its first client", i)
				}
				seal.Payload[at+len(block)-1] ^= 1
				segs[i] = recs
			}
			// What the one-by-one loop reported: segment 1's own refusal.
			seg := segmentedLogOf(t, segs, b.manifest)
			defer seg.Close()
			root, err := newRandSource(b.opts.Rand)
			if err != nil {
				t.Fatal(err)
			}
			so := subSessionOptions(b.opts, 1)
			so.Budget, so.Store = b.kind.budget(1, b.opts.Budget), seg.Board(1)
			shard, shards := b.kind.pin(1, 3)
			_, inner := resumeSessionFromSource(context.Background(), b.pub, so, root.forkShard(1, 3), shard, shards)
			if inner == nil {
				t.Fatal("segment 1 resumed despite its tampered seal")
			}
			want := fmt.Sprintf("vdp: resuming %s 1: %v", b.kind.unit, inner)
			for _, parallelism := range []int{1, 4} {
				_, err := b.open(t, segs, parallelism)
				if err == nil || err.Error() != want {
					t.Fatalf("parallelism %d: got %v, want %q", parallelism, err, want)
				}
				if !strings.Contains(err.Error(), "seal position 0 disagrees") {
					t.Fatalf("parallelism %d: segment 1 refused for another reason: %v", parallelism, err)
				}
			}
		})
	}
}
