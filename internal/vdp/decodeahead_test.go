package vdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

// The Replay-driven readers (every audit and every resume funnels into
// auditLogEpoch and resumeSessionFromSource) decode a window of records
// ahead of the grammar, on several goroutines, and the audit's epoch
// verifier decides board proofs a window of submissions at a time. Nothing a
// reader returns may depend on where the windows fall or how many goroutines
// decode them: the reference is the window of one record on one worker,
// which is the record-by-record reader.

// sweptLog is one board log and what its readers are told about it.
type sweptLog struct {
	pub           *Public
	recs          []*store.Record
	opts          SessionOptions // Budget, DeferVerification; Store, Rand and Parallelism are the sweep's
	shard, shards int            // the grammar pin (0 of 1: none)
}

// readerSweepMu serialises readers that run in parallel subtests with the
// sweeps that move decodeAhead and auditWindow under them.
var readerSweepMu sync.Mutex

// readOutcome is everything one reader returned that a caller can see.
type readOutcome struct {
	err     error
	summary string // on success: the transcript digest, or the resumed session's state and what it appended
}

func (o readOutcome) same(p readOutcome) bool {
	var a, b *boardLogError
	if errors.As(o.err, &a) != errors.As(p.err, &b) || (a != nil && *a != *b) {
		return false
	}
	if (o.err == nil) != (p.err == nil) || (o.err != nil && o.err.Error() != p.err.Error()) {
		return false
	}
	return o.summary == p.summary
}

func (o readOutcome) String() string {
	if o.err != nil {
		return o.err.Error()
	}
	return "ok " + o.summary
}

// sweepReaders reads l with both readers at decode-ahead windows 1, 2, 7
// and 256 and at 1 and 4 workers — the audit also at epoch-verifier flush
// windows (auditWindow) 1, 2, 7 and 4096, paired with the decode windows in
// order and crossed at the extremes — and fails the test unless every
// combination returns what the record-by-record reader (all three at 1)
// returns: the same verdict, the same boardLogError{Index, Offset, Epoch,
// Reason}, and on success the same verified digest and sealed roster or the
// same resumed session and appended records. The caller must not be running
// other readers concurrently unless they hold readerSweepMu.
func sweepReaders(t testing.TB, l sweptLog) {
	t.Helper()
	ctx := context.Background()
	if l.shards == 0 {
		l.shards = 1
	}
	epochs := 0
	for _, rec := range l.recs {
		epochs = max(epochs, int(rec.Epoch)+1)
	}
	readers := map[string]func(workers int) readOutcome{
		"resume": func(workers int) readOutcome {
			log := memLogOf(t, l.recs)
			opts := l.opts
			opts.Store, opts.Rand, opts.Parallelism, opts.Segmented, opts.Shards = log, testSeed(9), workers, nil, 0
			root, err := newRandSource(opts.Rand)
			if err != nil {
				t.Fatal(err)
			}
			s, err := resumeSessionFromSource(ctx, l.pub, opts, root, l.shard, l.shards)
			if err != nil {
				return readOutcome{err: err}
			}
			after, _ := log.Snapshot()
			sum := fmt.Sprintf("epoch %d finalized %v submitted %d accepted %d rejected %d, appended:",
				s.Epoch(), s.Finalized(), s.Submitted(), s.Accepted(), len(s.Rejected()))
			for _, rec := range after[len(l.recs):] {
				sum += fmt.Sprintf(" %d/%d/%x", rec.Kind, rec.Epoch, rec.Payload)
			}
			return readOutcome{summary: sum}
		},
	}
	audits := map[string]bool{}
	for epoch := 0; epoch < epochs; epoch++ {
		who := fmt.Sprintf("audit of epoch %d", epoch)
		audits[who] = true
		readers[who] = func(workers int) readOutcome {
			digest, roster, err := auditLogEpoch(ctx, l.pub, memLogOf(t, l.recs), epoch, workers, l.shard, l.shards)
			if err != nil {
				return readOutcome{err: err}
			}
			return readOutcome{summary: fmt.Sprintf("%x %v", digest, roster)}
		}
	}
	oldAhead, oldAudit := decodeAhead, auditWindow
	defer func() { decodeAhead, auditWindow = oldAhead, oldAudit }()
	// (decode window, audit window): each of both, paired in order, then the
	// extremes crossed, which only the audit reads differently.
	windows := [][2]int{{1, 1}, {2, 2}, {7, 7}, {256, 4096}, {1, 4096}, {256, 1}}
	for who, read := range readers {
		decodeAhead, auditWindow = 1, 1
		want := read(1)
		for i, w := range windows {
			if i >= 4 && !audits[who] {
				continue
			}
			for _, workers := range []int{1, 4} {
				if w == windows[0] && workers == 1 {
					continue // the reference itself
				}
				decodeAhead, auditWindow = w[0], w[1]
				if got := read(workers); !got.same(want) {
					t.Fatalf("%s, window %d, audit window %d, %d workers: %v\nrecord by record: %v", who, w[0], w[1], workers, got, want)
				}
			}
		}
	}
}

// sweepLog is sweepReaders over an unpinned, unbudgeted log as it stands.
func sweepLog(t testing.TB, pub *Public, log store.BoardLog) {
	t.Helper()
	recs, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sweepReaders(t, sweptLog{pub: pub, recs: recs})
}

// decodeAheadBoard is an honest one-epoch, unchunked, sealed board of n
// clients, with the record index of every submission.
func decodeAheadBoard(t *testing.T, n int) (pub *Public, recs []*store.Record, subAt []int) {
	t.Helper()
	ctx := context.Background()
	pub = testPublic(t, 2, 1, 4)
	log := store.NewMemLog()
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(41), Store: log, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n; id++ {
		sub, err := pub.NewClientSubmission(id, id&1, testSeed(byte(140+id)))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	recs, _ = log.Snapshot()
	for i, rec := range recs {
		if rec.Kind == RecordSubmission {
			subAt = append(subAt, i)
		}
	}
	if len(subAt) != n || recs[len(recs)-1].Kind != RecordSeal {
		t.Fatalf("board has %d submission records and ends in kind %d, want %d and one seal record", len(subAt), recs[len(recs)-1].Kind, n)
	}
	return pub, recs, subAt
}

// TestDecodeAheadBlamesTheFirstRecord: every submission of a window is
// decoded before any record of it is fed, so a window can hold an
// undecodable submission and, after it, a record that breaks the grammar —
// or the other way round. The readers must blame whichever comes first in
// the log, at every window size, exactly as a reader that stops at the
// first bad record would. A verdict that contradicts its submission's board
// proof breaks no grammar rule: only the audit's verifier sees it, and its
// check waits for the verifier's next flush, so a grammar violation later in
// the same window must not take the blame from it either.
func TestDecodeAheadBlamesTheFirstRecord(t *testing.T) {
	ctx := context.Background()
	pub, honest, subAt := decodeAheadBoard(t, 5)
	sweepReaders(t, sweptLog{pub: pub, recs: honest})

	undecodable := func(recs []*store.Record, at int) {
		p := recs[at].Payload
		recs[at].Payload = p[:len(p)-3] // the last payload's opening is cut short
	}
	violations := []struct {
		name   string
		frag   string
		inject func(recs []*store.Record, at int) []*store.Record
		// verdict: the violation is the verdict after the submission at `at`,
		// which recovery, trusting logged verdicts, does not check.
		verdict bool
	}{
		{"unknown-kind", "unknown kind 99", func(recs []*store.Record, at int) []*store.Record {
			return insertAt(recs, at, &store.Record{Kind: 99})
		}, false},
		{"stale-epoch", "belongs to epoch 3", func(recs []*store.Record, at int) []*store.Record {
			cp := *recs[at]
			cp.Epoch = 3
			return insertAt(recs, at, &cp)
		}, false},
		{"verdict-for-unknown-client", "verdict for unknown client 77", func(recs []*store.Record, at int) []*store.Record {
			return insertAt(recs, at, &store.Record{Kind: RecordVerdict, Payload: encodeVerdict(77, nil, true)})
		}, false},
		{"verdict-contradicts-proof", "rejected on the board, but its board proof verifies", func(recs []*store.Record, at int) []*store.Record {
			// The verdict right after the submission at `at` flips to an
			// on-board rejection of a valid proof.
			id, _, _, err := decodeVerdict(recs[at+1].Payload)
			if err != nil || recs[at+1].Kind != RecordVerdict {
				t.Fatalf("record %d is not the verdict of the submission before it: %v", at+1, err)
			}
			recs[at+1] = &store.Record{Kind: RecordVerdict, Payload: encodeVerdict(id, ErrClientReject, true)}
			return recs
		}, true},
	}
	readers := map[string]func(recs []*store.Record, workers int) error{
		"audit": func(recs []*store.Record, workers int) error {
			return AuditLog(ctx, pub, memLogOf(t, recs), 0, workers)
		},
		"resume": func(recs []*store.Record, workers int) error {
			_, err := ResumeSession(ctx, pub, SessionOptions{Rand: testSeed(41), Store: memLogOf(t, recs), Parallelism: workers})
			return err
		},
	}
	oldAhead, oldAudit := decodeAhead, auditWindow
	defer func() { decodeAhead, auditWindow = oldAhead, oldAudit }()
	for _, v := range violations {
		for _, order := range []string{"undecodable-first", "violation-first"} {
			t.Run(v.name+"/"+order, func(t *testing.T) {
				recs := copyRecords(honest)
				// Both land between the second and the fourth submission: one
				// window at 7 and at 256, two or more at 1 and 2.
				type blame struct {
					at   int
					frag string
				}
				want := map[string]blame{"audit": {subAt[1], "submission:"}, "resume": {subAt[1], "submission:"}}
				if order == "undecodable-first" {
					undecodable(recs, subAt[1])
					recs = v.inject(recs, subAt[3])
				} else {
					undecodable(recs, subAt[3])
					recs = v.inject(recs, subAt[1])
					want["audit"], want["resume"] = blame{subAt[1], v.frag}, blame{subAt[1], v.frag}
					if v.verdict {
						want["audit"], want["resume"] = blame{subAt[1] + 1, v.frag}, blame{subAt[3], "submission:"}
					}
				}
				for who, read := range readers {
					for _, window := range []int{1, 2, 7, 256} {
						for _, workers := range []int{1, 4} {
							for _, flush := range []int{1, 2, 7, 4096} {
								decodeAhead, auditWindow = window, flush
								err := read(recs, workers)
								var pos *boardLogError
								if !errors.As(err, &pos) {
									t.Fatalf("%s, window %d, %d workers, audit window %d: no positional error: %v", who, window, workers, flush, err)
								}
								if w := want[who]; pos.Index != w.at || !strings.Contains(pos.Reason, w.frag) {
									t.Fatalf("%s, window %d, %d workers, audit window %d: blamed record %d (%s), want record %d (%s)",
										who, window, workers, flush, pos.Index, pos.Reason, w.at, w.frag)
								}
							}
						}
					}
				}
				sweepReaders(t, sweptLog{pub: pub, recs: recs})
			})
		}
	}
}

// TestAuditDecodesClientsOnce: the audit decodes every client once, from its
// arrival record, and never the seal's client section — the seal is parsed
// by decodeProverSection, which leaves the client blocks raw, and is digested
// from those bytes. That is sound only because the grammar has matched every
// sealed client block to its arrival record byte for byte: a seal whose block
// differs — by one byte, by being another perfectly valid submission of the
// same client, or by not decoding at all — is refused at the seal record by
// that comparison.
func TestAuditDecodesClientsOnce(t *testing.T) {
	ctx := context.Background()
	pub, honest, subAt := decodeAheadBoard(t, 3)
	sealAt := len(honest) - 1
	blockOf := func(rec *store.Record) []byte {
		r := versioned(rec.Payload)
		raw := r.Blob()
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		return raw
	}
	refused := func(t *testing.T, recs []*store.Record, position int) {
		t.Helper()
		for _, workers := range []int{1, 4} {
			err := AuditLog(ctx, pub, memLogOf(t, recs), 0, workers)
			var pos *boardLogError
			if !errors.As(err, &pos) || pos.Index != sealAt ||
				!strings.Contains(pos.Reason, fmt.Sprintf("seal position %d disagrees with the logged submission", position)) {
				t.Fatalf("%d workers: want the seal refused at position %d by the roster cross-check, got: %v", workers, position, err)
			}
		}
	}

	t.Run("one-byte", func(t *testing.T) {
		recs := copyRecords(honest)
		block := blockOf(recs[subAt[1]])
		at := bytes.Index(recs[sealAt].Payload, block)
		if at < 0 {
			t.Fatal("the seal does not carry client 1's arrival bytes")
		}
		recs[sealAt].Payload[at+len(block)-1] ^= 1
		refused(t, recs, 1)
	})

	t.Run("another-valid-submission", func(t *testing.T) {
		// Client 1 again, under fresh randomness: decodes, verifies, same
		// length — and is not what the log admitted.
		recs := copyRecords(honest)
		block := blockOf(recs[subAt[1]])
		other, err := pub.NewClientSubmission(1, 1, testSeed(199))
		if err != nil {
			t.Fatal(err)
		}
		swapped := pub.EncodeClientPublic(other.Public)
		if len(swapped) != len(block) || bytes.Equal(swapped, block) || pub.VerifyClient(other.Public) != nil {
			t.Fatal("the replacement is not a distinct valid submission of the same size")
		}
		at := bytes.Index(recs[sealAt].Payload, block)
		copy(recs[sealAt].Payload[at:], swapped)
		refused(t, recs, 1)
	})

	t.Run("undecodable", func(t *testing.T) {
		// The block's last point is no longer on the curve (or not
		// canonical): DecodeTranscript refuses the seal, the prover-section
		// parse the audit runs does not look, and the byte-compare refuses it.
		recs := copyRecords(honest)
		seal := recs[sealAt].Payload
		block := blockOf(recs[subAt[0]])
		at := bytes.Index(seal, block)
		for i := at + len(block) - 40; i < at+len(block)-8; i++ {
			seal[i] = 0xff
		}
		if _, err := pub.DecodeTranscript(seal); err == nil {
			t.Fatal("DecodeTranscript accepted a transcript with an undecodable client block")
		}
		if _, _, err := pub.decodeProverSection(seal); err != nil {
			t.Fatalf("the prover-section parse decoded a client block: %v", err)
		}
		refused(t, recs, 0)
	})

	t.Run("digested-raw", func(t *testing.T) {
		seal := honest[sealAt].Payload
		clients, tr, err := pub.decodeProverSection(seal)
		if err != nil {
			t.Fatal(err)
		}
		for i, raw := range clients {
			if !bytes.Equal(raw, blockOf(honest[subAt[i]])) {
				t.Fatalf("sealed client block %d is not its arrival record's bytes", i)
			}
		}
		full, err := pub.DecodeTranscript(seal)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sealDigest(pub, clients, tr), TranscriptDigest(pub, full)) {
			t.Fatal("the digest of the raw client section differs from TranscriptDigest of the decoded seal")
		}
	})
}
