package vdp

import (
	"errors"
	"fmt"

	"repro/internal/dp"
	"repro/internal/field"
	"repro/internal/group"
	"repro/internal/pedersen"
)

// Sentinel errors. Protocol failures wrap one of these so callers can
// distinguish "a client sent garbage" (drop the client, continue) from "a
// prover cheated" (abort and accuse) from "the transcript does not verify"
// (reject the release).
var (
	ErrBadConfig    = errors.New("vdp: invalid configuration")
	ErrClientReject = errors.New("vdp: client input rejected")
	ErrProverCheat  = errors.New("vdp: prover misbehaviour detected")
	ErrAuditFail    = errors.New("vdp: public transcript failed verification")
)

// Config describes a deployment of ΠBin.
type Config struct {
	// Group selects the commitment group: group.P256() or
	// group.Schnorr2048(). Defaults to P256 when nil.
	Group group.Group
	// Provers is K ≥ 1; K = 1 is the trusted-curator model.
	Provers int
	// Bins is M ≥ 1; M = 1 is the plain counting query, M ≥ 2 an M-bin
	// histogram over one-hot client inputs.
	Bins int
	// Epsilon and Delta are the per-prover differential privacy parameters
	// used to calibrate the number of noise coins via Lemma 2.1.
	Epsilon float64
	Delta   float64
	// Coins optionally overrides the calibrated coin count nb (used by
	// benchmarks reproducing the paper's literal workloads). When zero, nb
	// is derived from Epsilon and Delta.
	Coins int
}

// Public is the shared public state pp ← Setup(1^κ) plus the derived
// protocol constants. All parties hold an identical Public.
type Public struct {
	cfg Config
	pp  *pedersen.Params
	nb  int // noise coins per prover per bin
}

// Setup validates the configuration and derives the public parameters.
func Setup(cfg Config) (*Public, error) {
	if cfg.Group == nil {
		cfg.Group = group.P256()
	}
	if cfg.Provers < 1 {
		return nil, fmt.Errorf("%w: need at least 1 prover, got %d", ErrBadConfig, cfg.Provers)
	}
	if cfg.Bins < 1 {
		return nil, fmt.Errorf("%w: need at least 1 bin, got %d", ErrBadConfig, cfg.Bins)
	}
	nb := cfg.Coins
	if nb == 0 {
		n, err := dp.Params{Epsilon: cfg.Epsilon, Delta: cfg.Delta}.Coins()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		nb = n
	}
	if nb < 1 {
		return nil, fmt.Errorf("%w: coin count %d", ErrBadConfig, nb)
	}
	return &Public{cfg: cfg, pp: pedersen.Setup(cfg.Group), nb: nb}, nil
}

// Params returns the Pedersen commitment parameters.
func (p *Public) Params() *pedersen.Params { return p.pp }

// Field returns the scalar field Z_q.
func (p *Public) Field() *field.Field { return p.pp.ScalarField() }

// Bins returns M.
func (p *Public) Bins() int { return p.cfg.Bins }

// Coins returns nb, the number of private noise coins per prover per bin.
func (p *Public) Coins() int { return p.nb }

// Config returns a copy of the originating configuration.
func (p *Public) Config() Config { return p.cfg }

// NoiseMean returns the total additive bias K·M-wise: each bin's release
// carries K independent Binomial(nb, ½) noises, mean K·nb/2.
func (p *Public) NoiseMean() float64 {
	return float64(p.cfg.Provers) * float64(p.nb) / 2
}

// sessionContext produces the byte string binding all Σ-proofs to this
// protocol instance (group, K, M, nb), preventing cross-deployment replay.
func (p *Public) sessionContext() []byte {
	return []byte(fmt.Sprintf("vdp/pi-bin/v1|group=%s|K=%d|M=%d|nb=%d",
		p.cfg.Group.Name(), p.cfg.Provers, p.cfg.Bins, p.nb))
}

// clientContext scopes a client's proofs to its identity.
func (p *Public) clientContext(clientID int) []byte {
	return append(p.sessionContext(), []byte(fmt.Sprintf("|client=%d", clientID))...)
}

// proverContext scopes a prover's coin proofs to its index and bin.
func (p *Public) proverContext(prover, bin int) []byte {
	return append(p.sessionContext(), []byte(fmt.Sprintf("|prover=%d|bin=%d", prover, bin))...)
}
