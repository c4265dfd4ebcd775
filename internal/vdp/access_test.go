package vdp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/sigma"
	"repro/internal/store"
	"repro/internal/wire"
)

// Test-side accessors, openers and sequential references over vdp's
// product types. No program needs them; the tests read state through them
// and hold the pooled paths to the sequential ones.

// --- The sequential client filter: the reference filterValidClientsBatch is
// held to (TestBatchedClientVerifyForgery, BenchmarkBatchVerifyClients).

// FilterValidClients applies VerifyClient to each client in turn: the
// sequential reference for filterValidClientsBatch, which admission and the
// auditors use and which reaches the same verdicts with one
// random-linear-combination check over the whole board.
func (p *Public) FilterValidClients(pubs []*ClientPublic) (valid []*ClientPublic, rejected map[int]error) {
	rejected = make(map[int]error)
	for _, c := range pubs {
		if err := p.VerifyClient(c); err != nil {
			rejected[c.ID] = err
			continue
		}
		valid = append(valid, c)
	}
	return valid, rejected
}

// --- The sequential prover moves the pooled prover stage is built from.

// AcceptClient validates a client's private payload against the public
// commitment matrix and adds the client to this prover's roster. The
// legality proof is checked too — provers independently re-verify the
// public record ("the servers can independently validate the verifier's
// claims").
func (pr *Prover) AcceptClient(pub *ClientPublic, payload *ClientPayload) error {
	if err := pr.pub.VerifyClient(pub); err != nil {
		return err
	}
	if err := pr.pub.checkPayloadOpenings(pub, payload, pr.index); err != nil {
		return err
	}
	return pr.acceptChecked(pub, payload)
}

// CommitCoins runs Lines 4-5: sample nb private bits per bin, commit, and
// prove each commitment opens to a bit.
func (pr *Prover) CommitCoins(rnd io.Reader) (*CoinCommitMsg, error) {
	if pr.coins != nil {
		return nil, fmt.Errorf("%w: CommitCoins called twice", ErrBadConfig)
	}
	m := pr.pub.cfg.Bins
	nb := pr.pub.nb
	coins := make([][]*coin, m)
	proofs := make([][]*sigma.BitProof, m)
	for j := 0; j < m; j++ {
		coins[j] = make([]*coin, nb)
		proofs[j] = make([]*sigma.BitProof, nb)
		for l := 0; l < nb; l++ {
			cn, proof, err := pr.commitCoin(j, l, rnd)
			if err != nil {
				return nil, err
			}
			coins[j][l] = cn
			proofs[j][l] = proof
		}
	}
	return pr.installCoins(coins, proofs)
}

// --- Standalone codecs for the messages product code encodes only inside
// larger records; FuzzWire and the round-trip tests drive them.

// EncodeClientPayload serializes a private per-prover payload.
func (p *Public) EncodeClientPayload(pl *ClientPayload) []byte {
	var w wire.Writer
	p.putClientPayload(&w, pl)
	return w.Bytes()
}

// EncodeCoinCommitMsg serializes one prover's Lines 4-6 message: the noise
// coin commitments with their Σ-OR proofs.
func (p *Public) EncodeCoinCommitMsg(msg *CoinCommitMsg) []byte {
	var w wire.Writer
	p.putCoinCommitMsg(&w, msg)
	return w.Bytes()
}

// DecodeCoinCommitMsg parses and validates a coin-commitment message.
func (p *Public) DecodeCoinCommitMsg(b []byte) (*CoinCommitMsg, error) {
	var q pointDecodes
	msg, err := p.coinCommitMsg(b, &q)
	if err = q.run(p.pp.Group(), nil, 1, err); err != nil {
		return nil, err
	}
	return msg, nil
}

// EncodeMorraRecord serializes the public commit/reveal record of one
// prover's Πmorra instance.
func (p *Public) EncodeMorraRecord(rec *MorraRecord) []byte {
	var w wire.Writer
	p.putMorraRecord(&w, rec)
	return w.Bytes()
}

// DecodeMorraRecord parses and validates a Morra record.
func (p *Public) DecodeMorraRecord(b []byte) (*MorraRecord, error) {
	var q pointDecodes
	rec, err := p.morraRecord(b, &q)
	if err = q.run(p.pp.Group(), nil, 1, err); err != nil {
		return nil, err
	}
	return rec, nil
}

// --- Budget-ledger readers.

// digest returns a copy of the chain head.
func (l *budgetLedger) digest() []byte {
	return append([]byte(nil), l.head...)
}

// LedgerDigest returns the session's budget-ledger chain head: the genesis
// digest before any charge, and nil when the session runs without a budget.
// Two parties that replayed the same charge stream hold byte-identical
// digests — the acceptance handshake for resume and tail replays.
func (s *Session) LedgerDigest() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ledger == nil {
		return nil
	}
	return s.ledger.digest()
}

// BudgetSpent returns a client's replayed lifetime spend in micro-ε (0 when
// the session runs without a budget).
func (s *Session) BudgetSpent(clientID int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ledger == nil {
		return 0
	}
	return s.ledger.spent[clientID]
}

// LedgerDigest returns the budget ledger's chain head (the ledger lives on
// row 0; nil when the session runs without a budget).
func (hs *SketchSession) LedgerDigest() []byte { return hs.segs[0].LedgerDigest() }

// BudgetSpent returns the client's lifetime spend in µε (0 without a
// budget).
func (hs *SketchSession) BudgetSpent(clientID int) uint64 { return hs.segs[0].BudgetSpent(clientID) }

// --- Sharded client material.

// NewClientSubmission builds client material for the current epoch from the
// owning shard's deterministic substream (or crypto/rand when unseeded), the
// sharded counterpart of Session.NewClientSubmission.
func (ss *ShardedSession) NewClientSubmission(clientID, choice int) (*ClientSubmission, error) {
	return ss.segs[ss.ShardFor(clientID)].NewClientSubmission(clientID, choice)
}

// --- The live tail's opener and state readers, and its seal step alone.

// TailAuditLog opens a live tail on a board log from its first record: the
// returned auditor drains new records on every Poll.
func TailAuditLog(pub *Public, log store.Log, opts TailOptions) (*TailAuditor, error) {
	t, err := log.ReadFrom(0)
	if err != nil {
		return nil, err
	}
	a := newTailAuditor(pub, opts, shardSegments, 0, 1, tailWindow)
	a.tailer = t
	return a, nil
}

// Epoch returns the epoch the tail is currently following.
func (a *TailAuditor) Epoch() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.g.epoch
}

// Records returns how many records the tail has consumed.
func (a *TailAuditor) Records() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.g.fed
}

// Err returns the sticky audit failure, if any.
func (a *TailAuditor) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Clients returns the live roster-shadow size for the current epoch.
func (a *TailAuditor) Clients() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.g.roster)
}

// Sealed reports whether the current epoch's seal has been verified.
func (a *TailAuditor) Sealed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v.digest != nil
}

// Digest returns the current epoch's verified transcript digest (nil until
// the epoch seals cleanly). It equals TranscriptDigest over the sealed
// transcript.
func (a *TailAuditor) Digest() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v.digest
}

// LedgerDigest returns the tail's replayed budget-ledger chain head — the
// genesis digest before any charge. When the followed session runs a
// budget, this must equal Session.LedgerDigest byte for byte; a mismatch
// means the two replayed different charge streams.
func (a *TailAuditor) LedgerDigest() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.g.ledger.digest()
}

// ReverifySeal re-runs the epoch verifier's seal step — the one seal check
// every reader of a board log runs, against the client product folded so
// far — for the live epoch, without consuming a record or moving the
// grammar position. Feed/Poll callers never need it: it exists so
// BenchmarkTailSealVerify can time the seal step in isolation from the
// per-arrival work it rides on.
func (a *TailAuditor) ReverifySeal(sealBytes []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v.seal(context.Background(), sealBytes)
}
