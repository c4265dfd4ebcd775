package vdp

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/pedersen"
	"repro/internal/sigma"
)

// Verifier is the public verifying algorithm Vfr. It holds only public
// data; anyone can instantiate one from the bulletin board and reach the
// same verdicts, which is what Definition 7's public verifiability means in
// practice.
type Verifier struct {
	pub     *Public
	workers int // worker-pool width for batch checks (>= 1)
}

// NewVerifierParallel creates a verifier whose batch checks (coin
// commitments) chunk their multi-exponentiations across up to `workers`
// goroutines. workers <= 0 selects GOMAXPROCS. Verdicts are identical at
// every width; only wall-clock time changes.
func NewVerifierParallel(pub *Public, workers int) *Verifier {
	return &Verifier{pub: pub, workers: poolWidth(workers)}
}

// VerifyCoinCommitments runs Lines 5-6 for one prover: every noise-coin
// commitment must carry a valid Σ-OR proof. On failure the prover is
// publicly identified ("the veriﬁer aborts the protocol and publicly
// declares that Pv_k cheated").
func (v *Verifier) VerifyCoinCommitments(msg *CoinCommitMsg) error {
	if msg == nil {
		return fmt.Errorf("%w: missing coin commitments", ErrProverCheat)
	}
	m := v.pub.cfg.Bins
	nb := v.pub.nb
	if len(msg.Commitments) != m || len(msg.Proofs) != m {
		return fmt.Errorf("%w: prover %d coin message covers %d/%d bins, want %d",
			ErrProverCheat, msg.Prover, len(msg.Commitments), len(msg.Proofs), m)
	}
	// Fold every bin's proofs into ONE random-linear-combination batch —
	// M·nb Σ-OR proofs, a single multi-exponentiation chunked across the
	// verifier's workers. Much faster than per-proof (or even per-bin)
	// verification in the honest case.
	batch := sigma.NewBitBatch(v.pub.pp, nil)
	for j := 0; j < m; j++ {
		if len(msg.Commitments[j]) != nb || len(msg.Proofs[j]) != nb {
			return fmt.Errorf("%w: prover %d bin %d has %d commitments / %d proofs, want %d",
				ErrProverCheat, msg.Prover, j, len(msg.Commitments[j]), len(msg.Proofs[j]), nb)
		}
		ctx := v.pub.proverContext(msg.Prover, j)
		for l := 0; l < nb; l++ {
			if err := batch.Add(msg.Commitments[j][l], msg.Proofs[j][l], coinContext(ctx, l)); err != nil {
				return fmt.Errorf("%w: prover %d bin %d: index %d: %v", ErrProverCheat, msg.Prover, j, l, err)
			}
		}
	}
	if batch.Check(v.workers) == nil {
		return nil
	}
	// The batch failed: some proof is bad. Re-verify sequentially so the
	// public accusation names the offending bin and coin index.
	for j := 0; j < m; j++ {
		ctx := v.pub.proverContext(msg.Prover, j)
		for l := 0; l < nb; l++ {
			if err := sigma.VerifyBit(v.pub.pp, msg.Commitments[j][l], msg.Proofs[j][l], coinContext(ctx, l)); err != nil {
				return fmt.Errorf("%w: prover %d bin %d: index %d: %v", ErrProverCheat, msg.Prover, j, l, err)
			}
		}
	}
	return fmt.Errorf("%w: prover %d: batch equation failed but sequential pass succeeded (astronomically unlikely)",
		ErrProverCheat, msg.Prover)
}

// AdjustedCoinCommitments applies Line 12: for each coin, ĉ' = c' when the
// public bit is 0 and Com(1,0) ⊗ c'^{-1} when it is 1, so the verifier
// holds commitments to the XORed bits v̂ without learning them.
func (v *Verifier) AdjustedCoinCommitments(msg *CoinCommitMsg, publicBits [][]byte) ([][]*pedersen.Commitment, error) {
	m := v.pub.cfg.Bins
	nb := v.pub.nb
	if len(publicBits) != m {
		return nil, fmt.Errorf("%w: public coins cover %d bins, want %d", ErrBadConfig, len(publicBits), m)
	}
	one := v.pub.pp.OneNoRandomness()
	out := make([][]*pedersen.Commitment, m)
	for j := 0; j < m; j++ {
		if len(publicBits[j]) != nb {
			return nil, fmt.Errorf("%w: bin %d has %d public coins, want %d", ErrBadConfig, j, len(publicBits[j]), nb)
		}
		out[j] = make([]*pedersen.Commitment, nb)
		for l := 0; l < nb; l++ {
			c := msg.Commitments[j][l]
			if publicBits[j][l] == 1 {
				out[j][l] = one.Sub(c)
			} else {
				out[j][l] = c
			}
		}
	}
	return out, nil
}

// checkLine13 is Line 13 for one prover given its client factor: clients[j]
// is the product of the valid clients' share commitments for bin j in this
// prover's column, which with the adjusted coin commitments must open to
// Com(y_j, z_j) for every bin. Any tampering with the aggregate — biased
// output, perturbed randomness, dropped or phantom clients, skipped noise —
// breaks the equation unless the prover can break binding (Theorem 4.1,
// computational soundness). The prover stage and the seal check both pass
// a clientProduct's column.
func (v *Verifier) checkLine13(msg *CoinCommitMsg, publicBits [][]byte, out *ProverOutput, clients []*pedersen.Commitment) error {
	m := v.pub.cfg.Bins
	if len(out.Y) != m || len(out.Z) != m {
		return fmt.Errorf("%w: prover %d output covers %d/%d bins, want %d",
			ErrProverCheat, out.Prover, len(out.Y), len(out.Z), m)
	}
	adjusted, err := v.AdjustedCoinCommitments(msg, publicBits)
	if err != nil {
		return err
	}
	for j := 0; j < m; j++ {
		expected := clients[j]
		for _, c := range adjusted[j] {
			expected = expected.Add(c)
		}
		if !v.pub.pp.Verify(expected, out.Y[j], out.Z[j]) {
			return fmt.Errorf("%w: prover %d bin %d: commitment product does not open to reported (y, z)",
				ErrProverCheat, out.Prover, j)
		}
	}
	return nil
}

// clientProduct is Line 13's client factor for every prover: [pk][j] is the
// product of the valid roster clients' share commitments for prover pk, bin
// j. Commitment Add is immutable, so a product is shared freely.
type clientProduct [][]*pedersen.Commitment

// newClientProduct is the empty product.
func (p *Public) newClientProduct() clientProduct {
	prod := make(clientProduct, p.cfg.Provers)
	for pk := range prod {
		prod[pk] = make([]*pedersen.Commitment, p.cfg.Bins)
		for j := range prod[pk] {
			prod[pk][j] = p.pp.Zero()
		}
	}
	return prod
}

// add folds one valid client in.
func (prod clientProduct) add(cp *ClientPublic) {
	for pk := range prod {
		for j := range prod[pk] {
			prod[pk][j] = prod[pk][j].Add(cp.ShareCommitments[j][pk])
		}
	}
}

// Release is the verified protocol output: per-bin raw noisy counts
// y_j = Σ_k y_{j,k} (each carrying K·Binomial(nb, ½) noise) and the
// debiased point estimates.
type Release struct {
	// Raw[j] is the verified noisy count for bin j.
	Raw []int64
	// Estimate[j] = Raw[j] - K·nb/2, an unbiased estimate of the true
	// count.
	Estimate []float64
	// Stddev is the standard deviation of each estimate: sqrt(K·nb)/2.
	Stddev float64
}

// Aggregate combines the per-prover outputs into the final release
// ("we treat the y_k's as shares, and calculate y = Σ_k y_k as the noisy
// sum"). It requires exactly one output per prover. The field sums are
// interpreted as small non-negative integers, which is valid because
// n + K·nb ≪ q.
func (v *Verifier) Aggregate(outs []*ProverOutput) (*Release, error) {
	k := v.pub.cfg.Provers
	if len(outs) != k {
		return nil, fmt.Errorf("%w: have %d prover outputs, want %d", ErrBadConfig, len(outs), k)
	}
	seen := make(map[int]bool, k)
	m := v.pub.cfg.Bins
	f := v.pub.Field()
	sums := make([]*field.Element, m)
	for j := range sums {
		sums[j] = f.Zero()
	}
	for _, o := range outs {
		if o.Prover < 0 || o.Prover >= k || seen[o.Prover] {
			return nil, fmt.Errorf("%w: duplicate or out-of-range prover %d", ErrBadConfig, o.Prover)
		}
		seen[o.Prover] = true
		if len(o.Y) != m {
			return nil, fmt.Errorf("%w: prover %d output has %d bins", ErrBadConfig, o.Prover, len(o.Y))
		}
		for j := 0; j < m; j++ {
			sums[j] = sums[j].Add(o.Y[j])
		}
	}
	rel := &Release{
		Raw:      make([]int64, m),
		Estimate: make([]float64, m),
		Stddev:   stddev(k, v.pub.nb),
	}
	mean := v.pub.NoiseMean()
	for j := 0; j < m; j++ {
		raw, ok := sums[j].Int64()
		if !ok {
			return nil, fmt.Errorf("%w: bin %d aggregate does not fit in int64 (field wraparound?)", ErrBadConfig, j)
		}
		rel.Raw[j] = raw
		rel.Estimate[j] = float64(raw) - mean
	}
	return rel, nil
}

func stddev(k, nb int) float64 {
	return math.Sqrt(float64(k)*float64(nb)) / 2
}
