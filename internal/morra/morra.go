// Package morra implements Πmorra (Algorithm 1 of the paper): a K-party
// commit-reveal protocol that securely samples public unbiased coins and
// uniform field elements in the presence of a dishonest majority of active
// participants. It realises the oracle functionality O_morra used by the
// verifiable DP protocol ΠBin: as long as a single participant samples its
// contribution honestly, the output X = Σ_k m_k mod q is uniform, and the
// hiding/binding properties of the commitments prevent any party from
// biasing the result after seeing others' values.
//
// The package models each participant as an explicit state machine (Party)
// exchanging serializable messages, so the protocol runs identically over
// the in-process bus used by the experiments and the TCP transport used by
// the demo binaries. Run executes a batch of honest parties locally.
package morra

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/field"
	"repro/internal/pedersen"
	"repro/internal/sigma"
)

// ErrCheat is wrapped by all failures attributable to a misbehaving party.
var ErrCheat = errors.New("morra: party misbehaved")

// CommitMsg is the first-phase broadcast: commitments to a batch of field
// elements, one commitment per coin to be generated.
type CommitMsg struct {
	Party       int
	Commitments []*pedersen.Commitment
}

// RevealMsg is the second-phase broadcast: the openings of a party's
// commitments, sent only after all commitments have been received. Algorithm
// 1 has parties reveal in reverse order of commitment arrival; the
// Coordinator below enforces that discipline, and in all orders the binding
// property already prevents a party from changing its value.
type RevealMsg struct {
	Party    int
	Openings []*pedersen.Opening
}

// Party is one Morra participant generating `batch` coins jointly with
// nParties-1 peers.
type Party struct {
	pp       *pedersen.Params
	index    int
	nParties int
	batch    int

	secrets []*pedersen.Opening // our sampled values and randomness
	sent    bool
}

// NewParty creates participant `index` of `nParties` for a batch of `batch`
// jointly sampled values under commitment parameters pp.
func NewParty(pp *pedersen.Params, index, nParties, batch int) (*Party, error) {
	if nParties < 2 {
		return nil, fmt.Errorf("morra: need at least 2 parties, got %d", nParties)
	}
	if index < 0 || index >= nParties {
		return nil, fmt.Errorf("morra: party index %d out of range [0,%d)", index, nParties)
	}
	if batch < 1 {
		return nil, fmt.Errorf("morra: batch must be positive, got %d", batch)
	}
	return &Party{pp: pp, index: index, nParties: nParties, batch: batch}, nil
}

// Commit runs step 1-2 of Algorithm 1: sample m_j uniformly, commit, and
// return the broadcast message. It may be called once per Party.
func (p *Party) Commit(rnd io.Reader) (*CommitMsg, error) {
	if p.secrets != nil {
		return nil, errors.New("morra: Commit called twice")
	}
	f := p.pp.ScalarField()
	msg := &CommitMsg{Party: p.index, Commitments: make([]*pedersen.Commitment, p.batch)}
	p.secrets = make([]*pedersen.Opening, p.batch)
	for j := 0; j < p.batch; j++ {
		m, err := f.Rand(rnd)
		if err != nil {
			return nil, fmt.Errorf("morra: sampling: %w", err)
		}
		c, r, err := p.pp.Commit(m, rnd)
		if err != nil {
			return nil, err
		}
		msg.Commitments[j] = c
		p.secrets[j] = &pedersen.Opening{X: m, R: r}
	}
	return msg, nil
}

// Reveal runs step 3: release the openings. The caller must ensure all
// commitments have been received before invoking Reveal (the Coordinator
// does this; over a network the transport layer gates it).
func (p *Party) Reveal() (*RevealMsg, error) {
	if p.secrets == nil {
		return nil, errors.New("morra: Reveal before Commit")
	}
	if p.sent {
		return nil, errors.New("morra: Reveal called twice")
	}
	p.sent = true
	return &RevealMsg{Party: p.index, Openings: p.secrets}, nil
}

// Combine verifies every party's openings against its commitments and
// produces the jointly sampled uniform field elements X_j = Σ_k m_{k,j}.
// Any party whose opening fails verification is identified in the error
// (step 3: "If this test fails for any k ... the protocol is aborted").
//
// Structural faults — a duplicate party, a wrong count, a missing reveal, a
// nil opening or one under other parameters — are refused before any group
// work. Every opening is folded into one sigma.BitBatch, checked with one
// multi-exponentiation over up to `workers` goroutines (<= 0 meaning
// GOMAXPROCS). Only if that check fails are the openings verified one by
// one, in party order, so the error names the first party and opening that
// does not match.
func Combine(pp *pedersen.Params, commits []*CommitMsg, reveals []*RevealMsg, workers int) ([]*field.Element, error) {
	if len(commits) < 2 {
		return nil, fmt.Errorf("morra: need commitments from at least 2 parties, got %d", len(commits))
	}
	if len(commits) != len(reveals) {
		return nil, fmt.Errorf("morra: %d commit messages but %d reveal messages", len(commits), len(reveals))
	}
	batch := len(commits[0].Commitments)
	byParty := make(map[int]*RevealMsg, len(reveals))
	for _, r := range reveals {
		if _, dup := byParty[r.Party]; dup {
			return nil, fmt.Errorf("%w: duplicate reveal from party %d", ErrCheat, r.Party)
		}
		byParty[r.Party] = r
	}
	f := pp.ScalarField()
	sums := make([]*field.Element, batch)
	for j := range sums {
		sums[j] = f.Zero()
	}
	fold := sigma.NewBitBatch(pp, nil)
	seen := make(map[int]bool, len(commits))
	for _, cm := range commits {
		if seen[cm.Party] {
			return nil, fmt.Errorf("%w: duplicate commitment from party %d", ErrCheat, cm.Party)
		}
		seen[cm.Party] = true
		if len(cm.Commitments) != batch {
			return nil, fmt.Errorf("%w: party %d committed to %d values, want %d", ErrCheat, cm.Party, len(cm.Commitments), batch)
		}
		rv, ok := byParty[cm.Party]
		if !ok {
			return nil, fmt.Errorf("%w: party %d never revealed (early exit)", ErrCheat, cm.Party)
		}
		if len(rv.Openings) != batch {
			return nil, fmt.Errorf("%w: party %d revealed %d values, want %d", ErrCheat, cm.Party, len(rv.Openings), batch)
		}
		for j, o := range rv.Openings {
			if !wellFormed(pp, cm.Commitments[j], o) {
				return nil, mismatch(cm.Party, j)
			}
			if err := fold.AddOpening(cm.Commitments[j], o.X, o.R); err != nil {
				return nil, fmt.Errorf("morra: %w", err)
			}
			sums[j] = sums[j].Add(o.X)
		}
	}
	if fold.Check(workers) != nil {
		for _, cm := range commits {
			for j, o := range byParty[cm.Party].Openings {
				if !pp.Verify(cm.Commitments[j], o.X, o.R) {
					return nil, mismatch(cm.Party, j)
				}
			}
		}
		return nil, fmt.Errorf("%w: combined opening check failed but every opening matches (astronomically unlikely)", ErrCheat)
	}
	return sums, nil
}

// wellFormed reports whether an opening can be folded at all: both halves
// present, the commitment under pp and the opening in pp's scalar field.
func wellFormed(pp *pedersen.Params, c *pedersen.Commitment, o *pedersen.Opening) bool {
	f := pp.ScalarField()
	return c != nil && pp.Equal(c.Params()) && o != nil && o.X != nil && o.R != nil &&
		f.Equal(o.X.Field()) && f.Equal(o.R.Field())
}

// mismatch is the refusal of one opening, with the same text whichever
// check finds it.
func mismatch(party, j int) error {
	return fmt.Errorf("%w: party %d opening %d does not match its commitment", ErrCheat, party, j)
}

// Bits converts jointly sampled field elements into coins by the threshold
// rule of Algorithm 1 step 4: the coin is 1 iff X > ⌈q/2⌉ (IsHigh). Since q
// is odd the coin carries a 1/(2q) bias toward 0 — about 2^-257 for the
// groups used here, far below the 2^-κ distinguishing advantage already
// conceded to the adversary.
func Bits(xs []*field.Element) []byte {
	out := make([]byte, len(xs))
	for i, x := range xs {
		if x.IsHigh() {
			out[i] = 1
		}
	}
	return out
}

// Run executes a complete honest Morra instance among nParties local
// parties and returns the batch of uniform field elements. This is the
// hybrid-world realisation of O_morra used by tests, the trusted-curator
// flow (prover and verifier are the two parties), and the experiments.
func Run(pp *pedersen.Params, nParties, batch int, rnd io.Reader) ([]*field.Element, error) {
	parties := make([]*Party, nParties)
	commits := make([]*CommitMsg, nParties)
	for k := 0; k < nParties; k++ {
		p, err := NewParty(pp, k, nParties, batch)
		if err != nil {
			return nil, err
		}
		parties[k] = p
		cm, err := p.Commit(rnd)
		if err != nil {
			return nil, err
		}
		commits[k] = cm
	}
	// All commitments are now "broadcast"; reveal in reverse order.
	reveals := make([]*RevealMsg, nParties)
	for k := nParties - 1; k >= 0; k-- {
		rv, err := parties[k].Reveal()
		if err != nil {
			return nil, err
		}
		reveals[k] = rv
	}
	return Combine(pp, commits, reveals, 1)
}

// RunBits is Run followed by thresholding into coins.
func RunBits(pp *pedersen.Params, nParties, batch int, rnd io.Reader) ([]byte, error) {
	xs, err := Run(pp, nParties, batch, rnd)
	if err != nil {
		return nil, err
	}
	return Bits(xs), nil
}
