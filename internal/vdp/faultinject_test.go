package vdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/store"
)

// faultSubs is the fixed client population of the crash matrix; every run —
// uninterrupted baseline, crashed, and recovered — submits these exact
// submissions, so any digest divergence is the server's fault.
func faultSubs(t *testing.T, pub *Public) []*ClientSubmission {
	t.Helper()
	return buildSubs(t, pub, []int{1, 0, 1, 1})
}

// frameShape is how a population reaches the board — one more input of the
// crash matrices, so a fault at an append inside a frame's single lock pass is
// fenced as well as one between arrivals: size 0 is one Submit per member,
// size n is SubmitBatch frames of n.
type frameShape struct {
	name string
	size int
}

var frameShapes = []frameShape{{"singles", 0}, {"one-frame-of-4", 4}, {"two-frames-of-2", 2}}

// admitShaped sends members to the board in the shape's frames, through the
// board's single-arrival (one) and frame (many) entry points, and returns
// each sent member's outcome the way Submit reports it: the frame's error if
// the frame failed, the member's verdict otherwise. It stops after the first
// frame with an injected outcome — the process died there — so the result is
// shorter than members when later frames were never sent.
func admitShaped[M any](f frameShape, members []M, one func(M) error, many func([]M) ([]error, error)) []error {
	var out []error
	for at := 0; at < len(members); {
		sent := len(out)
		if f.size == 0 {
			out = append(out, one(members[at]))
			at++
		} else {
			frame := members[at:min(at+f.size, len(members))]
			verdicts, err := many(frame)
			for i := range frame {
				if err != nil {
					out = append(out, err)
				} else {
					out = append(out, verdicts[i])
				}
			}
			at += len(frame)
		}
		if slices.ContainsFunc(out[sent:], injected) {
			break
		}
	}
	return out
}

// admit is admitShaped over a plain session.
func (f frameShape) admit(ctx context.Context, s *Session, subs []*ClientSubmission) []error {
	return admitShaped(f, subs,
		func(sub *ClientSubmission) error { return s.Submit(ctx, sub) },
		func(frame []*ClientSubmission) ([]error, error) { return s.SubmitBatch(ctx, frame) })
}

// injected reports the fault harness's own error: the process is dead.
func injected(err error) bool { return errors.Is(err, store.ErrInjected) }

// faultBaseline runs the population uninterrupted on a plain file log and
// returns the sealed digest plus the number of appends the epoch costs —
// which is exactly the space of crash points worth injecting.
func faultBaseline(t *testing.T, pub *Public, subs []*ClientSubmission) (digest []byte, appends int) {
	t.Helper()
	ctx := context.Background()
	log, err := store.OpenFileLog(filepath.Join(t.TempDir(), "board.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(70), Store: log, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return TranscriptDigest(pub, res.Transcript), log.Len()
}

// crashRun drives a session against a fault-injected log until the fault
// fires (or the epoch completes, for trips past the epoch's append count),
// modeling the process dying at that exact write.
func crashRun(t *testing.T, pub *Public, subs []*ClientSubmission, shape frameShape, path string, kind store.FaultKind, trip int) {
	t.Helper()
	ctx := context.Background()
	inner, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	fl := store.NewFaultLog(inner, kind, trip)
	defer fl.Close()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(70), Store: fl, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range shape.admit(ctx, sess, subs) {
		if injected(err) {
			return // the process is dead
		}
		if err != nil {
			t.Fatalf("pre-crash submit: %v", err)
		}
	}
	if _, err := sess.Finalize(ctx); err != nil && !injected(err) {
		t.Fatalf("pre-crash finalize: %v", err)
	}
}

// recoverRun reopens the crashed log the honest way, resumes the session,
// replays the client population (tolerating duplicate rejections for
// clients whose records survived the crash), finalizes if the crash
// happened before the seal landed, and returns the sealed digest.
func recoverRun(t *testing.T, pub *Public, subs []*ClientSubmission, shape frameShape, path string) []byte {
	t.Helper()
	ctx := context.Background()
	log, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatalf("recovery reopen: %v", err)
	}
	defer log.Close()
	sweepLog(t, pub, log)
	sess, err := ResumeSession(ctx, pub, SessionOptions{Rand: testSeed(70), Store: log, Parallelism: 2})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !sess.Finalized() {
		for _, err := range shape.admit(ctx, sess, subs) {
			if err != nil && !errors.Is(err, ErrClientReject) {
				t.Fatalf("post-recovery submit: %v", err)
			}
		}
		res, err := sess.Finalize(ctx)
		if err != nil {
			t.Fatalf("post-recovery finalize: %v", err)
		}
		return TranscriptDigest(pub, res.Transcript)
	}
	return TranscriptDigest(pub, sess.SealedTranscript())
}

// TestFaultInjectionMatrix is the crash-recovery acceptance criterion of
// the live-audit PR: for EVERY append the epoch performs and EVERY fault
// kind — clean failure, torn half-write, committed-but-unacknowledged — the
// resumed session finishes the epoch with a TranscriptDigest byte-identical
// to the uninterrupted run, and the live tail independently verifies the
// recovered log to that same digest. No crash point may corrupt evidence or
// fork the release.
func TestFaultInjectionMatrix(t *testing.T) {
	shrinkTailWindow(t)
	pub := testPublic(t, 2, 1, 4)
	subs := faultSubs(t, pub)
	want, appends := faultBaseline(t, pub, subs)
	if appends < 2*len(subs)+1 {
		t.Fatalf("baseline epoch cost %d appends, want at least %d", appends, 2*len(subs)+1)
	}

	for _, shape := range frameShapes {
		for _, kind := range []store.FaultKind{store.FaultFail, store.FaultShortWrite, store.FaultTornAppend} {
			for trip := 0; trip < appends; trip++ {
				t.Run(fmt.Sprintf("%s/%s/append-%d", shape.name, kind, trip), func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "board.log")
					crashRun(t, pub, subs, shape, path, kind, trip)
					got := recoverRun(t, pub, subs, shape, path)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s at append %d: recovered digest differs from the uninterrupted run", kind, trip)
					}

					// The recovered log as a third party sees it: the live tail
					// replays it from byte zero and lands on the same digest.
					log, err := store.OpenFileLogReadOnly(path)
					if err != nil {
						t.Fatal(err)
					}
					defer log.Close()
					a, err := TailAuditLog(pub, log, TailOptions{Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					defer a.Close()
					pollUntilSealed(t, a)
					if !bytes.Equal(a.Digest(), want) {
						t.Fatalf("%s at append %d: live tail digest differs from the uninterrupted run", kind, trip)
					}
				})
			}
		}
	}
}

// TestFaultInjectionMirrorBlip is the matrix for a fault that does NOT kill
// the process: a mirrored primary (store.ReplicatedLog) whose standby fails
// exactly one mirror call and then answers again. The record the failed call
// covered is in the primary's local log all the same, so whatever admission
// does next is appended behind it — and must leave a log the grammar accepts.
// (The hand-copied single-Submit path did not: it withdrew a client whose
// verdict record the failed call had already written, and the local log no
// longer resumed.) For the failed call landing on each of an epoch's first
// four — submission window, verdict window, twice — and every frame shape:
// the local log resumes at that instant to the live session's own roster,
// nobody who was acknowledged is missing, nobody who was not is on the board
// unless a retry says so, and the sealed epoch audits, tails and reboots to
// the live digest.
func TestFaultInjectionMirrorBlip(t *testing.T) {
	shrinkTailWindow(t)
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	// Eight clients: two frames of four, so calls 1..4 all fall in admission.
	subs := buildSubs(t, pub, []int{1, 0, 1, 1, 0, 1, 1, 0})
	copyOf := func(l *store.MemLog) *store.MemLog {
		recs, err := l.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return memLogOf(t, recs)
	}
	for _, shape := range []frameShape{{"submit", 0}, {"batch-of-1", 1}, {"batch-of-4", 4}} {
		for failAt := 1; failAt <= 4; failAt++ {
			t.Run(fmt.Sprintf("%s/mirror-call-%d", shape.name, failAt), func(t *testing.T) {
				local := store.NewMemLog()
				calls := 0
				mirrored, err := store.NewReplicatedLog(local, func(start int, recs []*store.Record) (int, error) {
					if calls++; calls == failAt {
						return 0, errors.New("standby unreachable")
					}
					return start + len(recs), nil
				})
				if err != nil {
					t.Fatal(err)
				}
				opts := SessionOptions{Rand: testSeed(70), Store: mirrored, Parallelism: 2}
				sess, err := NewSession(pub, opts)
				if err != nil {
					t.Fatal(err)
				}
				outcomes := shape.admit(ctx, sess, subs)
				unacked := 0
				for i, err := range outcomes {
					if err == nil {
						continue
					}
					if unacked++; errors.Is(err, ErrClientReject) {
						t.Fatalf("client %d: the blip surfaced as a verdict: %v", i, err)
					}
				}
				if want := max(1, shape.size); unacked != want {
					t.Fatalf("%d clients went unacknowledged, want the failed frame's %d", unacked, want)
				}

				// The primary restarts on its local log as it stands right now.
				sweepLog(t, pub, local)
				opts.Store = copyOf(local)
				resumed, err := ResumeSession(ctx, pub, opts)
				if err != nil {
					t.Fatalf("local log does not resume after the blip: %v", err)
				}
				if resumed.Submitted() != sess.Submitted() || resumed.Accepted() != sess.Accepted() {
					t.Fatalf("resumed roster %d (%d accepted), live session %d (%d accepted)",
						resumed.Submitted(), resumed.Accepted(), sess.Submitted(), sess.Accepted())
				}

				// Retries: an unacknowledged client is either off the board (and
				// admitted now) or on it with its verdict (and a duplicate).
				for i, err := range outcomes {
					if err == nil {
						continue
					}
					if err := sess.Submit(ctx, subs[i]); err != nil && !errors.Is(err, ErrClientReject) {
						t.Fatalf("retry of client %d: %v", i, err)
					}
				}
				res, err := sess.Finalize(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got := len(res.Transcript.Clients); got != len(subs) || len(res.RejectedClients) != 0 {
					t.Fatalf("sealed roster holds %d clients (%d rejected), want all %d", got, len(res.RejectedClients), len(subs))
				}
				want := TranscriptDigest(pub, res.Transcript)

				if err := AuditLog(ctx, pub, local, 0, 2); err != nil {
					t.Fatalf("offline audit of the local log: %v", err)
				}
				a, err := TailAuditLog(pub, local, TailOptions{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				pollUntilSealed(t, a)
				if !bytes.Equal(a.Digest(), want) {
					t.Fatal("live tail digest differs from the sealed epoch")
				}
				opts.Store = copyOf(local)
				again, err := ResumeSession(ctx, pub, opts)
				if err != nil {
					t.Fatalf("reboot on the sealed local log: %v", err)
				}
				if !again.Finalized() || !bytes.Equal(TranscriptDigest(pub, again.SealedTranscript()), want) {
					t.Fatal("rebooted session lost the sealed epoch")
				}
			})
		}
	}
}

// segmentedPopulation is faultSubs for a segmented board of either kind: the
// same four fixed clients, as the kind's members (submissions, or whole
// sketch contributions).
func segmentedPopulation(t *testing.T, k segCase, pub *Public, segs int) []any {
	t.Helper()
	out := make([]any, 4)
	for i, choice := range []int{1, 0, 1, 1} {
		m, err := k.member(pub, segs, i, choice)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

// segmentedBaseline runs the population uninterrupted over a segmented store
// and returns the merged digest plus the victim segment's append count — the
// crash points worth injecting into that one segment.
func segmentedBaseline(t *testing.T, k segCase, pub *Public, members []any, segs, victim int) (digest []byte, appends int) {
	t.Helper()
	ctx := context.Background()
	seg, err := store.OpenSegmentedLog(t.TempDir(), segs)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	b := k.mustOpen(t, pub, SessionOptions{Rand: testSeed(70), Segmented: seg, Parallelism: 2}, segs, false)
	for _, m := range members {
		if err := b.submit(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	if digest, err = b.finalize(ctx); err != nil {
		t.Fatal(err)
	}
	return digest, seg.Segment(victim).Len()
}

// crashSegmented drives a segmented session whose victim segment is fronted
// by a FaultLog until the fault fires (modeling one segment's disk dying
// while its siblings stay honest) or the epoch completes.
func crashSegmented(t *testing.T, k segCase, pub *Public, members []any, shape frameShape, dir string, segs, victim int, kind store.FaultKind, trip int) {
	t.Helper()
	ctx := context.Background()
	seg, err := store.OpenSegmentedLog(dir, segs)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	seg.SetBoard(victim, store.NewFaultLog(seg.Segment(victim), kind, trip))
	b := k.mustOpen(t, pub, SessionOptions{Rand: testSeed(70), Segmented: seg, Parallelism: 2}, segs, false)
	for _, err := range b.admitShaped(ctx, shape, members) {
		if injected(err) {
			return // the process is dead
		}
		if err != nil {
			t.Fatalf("pre-crash submit: %v", err)
		}
	}
	if _, err := b.finalize(ctx); err != nil && !injected(err) {
		t.Fatalf("pre-crash finalize: %v", err)
	}
}

// recoverSegmented reopens the crashed directory the honest way, resumes the
// session, replays the population (a segment that sealed before the crash
// refuses late submissions, a surviving record is a duplicate — both
// expected), completes the epoch and returns the merged digest with every
// segment's sealed roster size.
func recoverSegmented(t *testing.T, k segCase, pub *Public, members []any, shape frameShape, dir string, segs int) (digest []byte, rosters []int) {
	t.Helper()
	ctx := context.Background()
	seg, err := store.OpenSegmentedLog(dir, 0)
	if err != nil {
		t.Fatalf("recovery reopen: %v", err)
	}
	defer seg.Close()
	// Cells run in parallel and the sweep moves decodeAhead: every reader of
	// a cell runs under the sweep's lock.
	readerSweepMu.Lock()
	defer readerSweepMu.Unlock()
	for i := 0; i < segs; i++ {
		recs, err := seg.Segment(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		shard, shards := k.kind.pin(i, segs)
		sweepReaders(t, sweptLog{pub: pub, recs: recs, shard: shard, shards: shards})
	}
	b, err := k.open(pub, SessionOptions{Rand: testSeed(70), Segmented: seg, Parallelism: 2}, segs, true)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !b.Finalized() {
		for _, err := range b.admitShaped(ctx, shape, members) {
			if err != nil && !errors.Is(err, ErrClientReject) && !errors.Is(err, ErrBadConfig) {
				t.Fatalf("post-recovery submit: %v", err)
			}
		}
		if digest, err = b.finalize(ctx); err != nil {
			t.Fatalf("post-recovery finalize: %v", err)
		}
	}
	ts := b.sealedTranscripts(b.Epoch())
	if ts == nil {
		t.Fatal("recovered board is finalized without every segment's transcript")
	}
	if digest == nil {
		digest = MergedTranscriptDigest(pub, ts)
	}
	for _, tr := range ts {
		rosters = append(rosters, len(tr.Clients))
	}
	// The recovered directory as a third party sees it.
	if err := k.audit(ctx, pub, seg, segs, -1, 2); err != nil {
		t.Fatalf("segmented audit after recovery: %v", err)
	}
	return digest, rosters
}

// TestFaultInjectionSegmented extends the crash matrix to the segmented
// store, over both segment kinds and every victim segment: for every append
// the victim performs and every fault kind, a crash of that single segment —
// its siblings untouched — resumes, completes the epoch, and leaves a
// directory the offline segmented audit accepts; and the recovered merged
// digest is byte-identical to the uninterrupted run's.
//
// Sketch rows earn the digest half only where the lifecycle core is what the
// fault hit. Their admission fans a contribution out from row 0, so a crash
// that leaves a contribution's row-0 record on disk without its later rows
// strands that client: the retry meets row 0's duplicate guard and never
// reaches the rows that lack it. The matrix pins exactly that shape — row 0
// complete, at most the one in-flight frame's clients missing from later
// rows, the audit's row-subset rule still satisfied — so the gap is a stated
// cell, not an unexamined one (closing it is an admission change; see ROADMAP
// items 9(b) and 13).
//
// Every cell runs over every frame shape, so a fault at an append inside a
// frame's lock pass — sibling members already written, none acknowledged —
// is fenced like one between arrivals.
func TestFaultInjectionSegmented(t *testing.T) {
	const segs = 2
	for _, k := range segCases {
		pub := testPublic(t, 2, k.bins, 4)
		members := segmentedPopulation(t, k, pub, segs)
		for victim := 0; victim < segs; victim++ {
			want, appends := segmentedBaseline(t, k, pub, members, segs, victim)
			if appends < 3 {
				t.Fatalf("victim segment cost %d appends, too few crash points to matter", appends)
			}
			for _, shape := range frameShapes {
				// A crash can strand the whole frame in flight, not just one
				// contribution: the gap below, at the frame's width.
				inFlight := max(1, shape.size)
				for _, kind := range []store.FaultKind{store.FaultFail, store.FaultShortWrite, store.FaultTornAppend} {
					for trip := 0; trip < appends; trip++ {
						t.Run(fmt.Sprintf("%s/victim-%d/%s/%s/append-%d", k.name, victim, shape.name, kind, trip), func(t *testing.T) {
							t.Parallel() // cells share only the read-only population
							dir := t.TempDir()
							crashSegmented(t, k, pub, members, shape, dir, segs, victim, kind, trip)
							got, rosters := recoverSegmented(t, k, pub, members, shape, dir, segs)
							// stranded: clients some later row lacks (rows only — a
							// shard's roster is its own partition of the clients).
							stranded := 0
							if !k.kind.pinned {
								if rosters[0] != len(members) {
									t.Fatalf("%s at append %d: row 0 seats %d of %d clients after the replay", kind, trip, rosters[0], len(members))
								}
								for _, n := range rosters[1:] {
									stranded = max(stranded, len(members)-n)
								}
							}
							if stranded == 0 {
								if !bytes.Equal(got, want) {
									t.Fatalf("%s at segment append %d: recovered merged digest differs from the uninterrupted run", kind, trip)
								}
							} else if stranded > inFlight || trip >= appends-1 {
								t.Fatalf("%s at append %d: rosters %v — more than the one in-flight frame (%d) stranded, or stranded by a seal-phase fault",
									kind, trip, rosters, inFlight)
							}
						})
					}
				}
			}
		}
	}
}

// TestFaultInjectionSeeded sweeps seed-derived fault plans through the same
// harness — the entry point a future chaos runner would use: pick a seed,
// reproduce the exact crash.
func TestFaultInjectionSeeded(t *testing.T) {
	pub := testPublic(t, 2, 1, 4)
	subs := faultSubs(t, pub)
	want, appends := faultBaseline(t, pub, subs)

	for _, shape := range frameShapes {
		for seed := uint64(0); seed < 6; seed++ {
			kind, trip := store.FaultFromSeed(seed, appends)
			path := filepath.Join(t.TempDir(), "board.log")
			crashRun(t, pub, subs, shape, path, kind, trip)
			if got := recoverRun(t, pub, subs, shape, path); !bytes.Equal(got, want) {
				t.Fatalf("%s, seed %d (%s at append %d): recovered digest differs from the uninterrupted run",
					shape.name, seed, kind, trip)
			}
		}
	}
}

// TestFaultInjectionCompactBoundary crashes the snapshot append itself: a
// fault while compacting must either leave the epoch sealed-and-resumable
// (no snapshot) or complete the compaction — never a half-compacted log.
func TestFaultInjectionCompactBoundary(t *testing.T) {
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	subs := faultSubs(t, pub)
	want, appends := faultBaseline(t, pub, subs)

	for _, kind := range []store.FaultKind{store.FaultFail, store.FaultShortWrite, store.FaultTornAppend} {
		t.Run(kind.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "board.log")
			inner, err := store.OpenFileLog(path)
			if err != nil {
				t.Fatal(err)
			}
			// Trip on the append right after the seal: the snapshot record.
			fl := store.NewFaultLog(inner, kind, appends)
			sess, err := NewSession(pub, SessionOptions{Rand: testSeed(70), Store: fl, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range subs {
				if err := sess.Submit(ctx, sub); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sess.Finalize(ctx); err != nil {
				t.Fatal(err)
			}
			err = sess.Compact()
			if kind == store.FaultTornAppend {
				// The snapshot is durable even though the append reported
				// failure; Compact refuses to advance the epoch.
				if !errors.Is(err, store.ErrInjected) {
					t.Fatalf("Compact over a torn append returned %v", err)
				}
			} else if !errors.Is(err, store.ErrInjected) {
				t.Fatalf("Compact over an injected fault returned %v", err)
			}
			fl.Close()

			log, err := store.OpenFileLog(path)
			if err != nil {
				t.Fatalf("recovery reopen: %v", err)
			}
			defer log.Close()
			sweepLog(t, pub, log)
			sess2, err := ResumeSession(ctx, pub, SessionOptions{Rand: testSeed(70), Store: log, Parallelism: 2})
			if err != nil {
				t.Fatalf("resume after crashed Compact: %v", err)
			}
			switch kind {
			case store.FaultTornAppend:
				// The snapshot landed: the resumed session starts epoch 1.
				if sess2.Epoch() != 1 || sess2.Finalized() {
					t.Fatalf("resumed epoch %d finalized=%v, want open epoch 1", sess2.Epoch(), sess2.Finalized())
				}
			default:
				// No snapshot: the resumed session still holds sealed epoch 0.
				if sess2.Epoch() != 0 || !sess2.Finalized() {
					t.Fatalf("resumed epoch %d finalized=%v, want sealed epoch 0", sess2.Epoch(), sess2.Finalized())
				}
				if !bytes.Equal(TranscriptDigest(pub, sess2.SealedTranscript()), want) {
					t.Fatal("sealed digest lost across the crashed Compact")
				}
			}
			if err := AuditLog(ctx, pub, log, 0, 2); err != nil {
				t.Fatalf("audit after crashed Compact: %v", err)
			}
		})
	}
}

// TestFaultInjectionTornChunkedSeal pins the one shape where the grammar
// keeps the looser of the pre-unification rules. The store dies part-way
// through a chunked seal; the server reboots into the still-open epoch, a
// late client is admitted, and Finalize seals from chunk 0 again — leaving
// an abandoned chunk prefix followed by ordinary records. Every party is
// honest, so recovery, the offline audit and the live tail must all accept
// the log, at the digest of an uninterrupted run over the same clients. (A
// record spliced INTO a seal that then continues is still refused — see the
// chunk-interleave row of TestBoardGrammarConformance.)
func TestFaultInjectionTornChunkedSeal(t *testing.T) {
	shrinkSealChunks(t)
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	subs := faultSubs(t, pub)
	early, late := subs[:3], subs[3]
	want, _ := faultBaseline(t, pub, subs)

	for _, kind := range []store.FaultKind{store.FaultFail, store.FaultShortWrite, store.FaultTornAppend} {
		t.Run(kind.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "board.log")
			// Appends 0..5 are the early clients' records, 6 is seal chunk 0:
			// the store dies on chunk 1.
			crashRun(t, pub, early, frameShapes[0], path, kind, 2*len(early)+1)

			log, err := store.OpenFileLog(path)
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			sweepLog(t, pub, log)
			opts := SessionOptions{Rand: testSeed(70), Store: log, Parallelism: 2}
			sess, err := ResumeSession(ctx, pub, opts)
			if err != nil {
				t.Fatalf("resume over the torn seal: %v", err)
			}
			if sess.Finalized() || sess.Submitted() != len(early) {
				t.Fatalf("resumed finalized=%v with %d clients, want the open epoch with %d", sess.Finalized(), sess.Submitted(), len(early))
			}
			if err := sess.Submit(ctx, late); err != nil {
				t.Fatalf("late client after the torn seal: %v", err)
			}
			res, err := sess.Finalize(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(TranscriptDigest(pub, res.Transcript), want) {
				t.Fatal("recovered digest differs from the uninterrupted run")
			}

			sweepLog(t, pub, log)
			if err := AuditLog(ctx, pub, log, 0, 2); err != nil {
				t.Fatalf("offline audit of the honest log: %v", err)
			}
			a, err := TailAuditLog(pub, log, TailOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			pollUntilSealed(t, a)
			if !bytes.Equal(a.Digest(), want) {
				t.Fatal("live tail digest differs from the uninterrupted run")
			}
			again, err := ResumeSession(ctx, pub, opts)
			if err != nil {
				t.Fatalf("reboot after the retried seal: %v", err)
			}
			if !again.Finalized() || !bytes.Equal(TranscriptDigest(pub, again.SealedTranscript()), want) {
				t.Fatal("rebooted session lost the sealed epoch")
			}
		})
	}
}
