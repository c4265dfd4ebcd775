package vdp

import (
	"fmt"
	"io"

	"repro/internal/field"
	"repro/internal/pedersen"
	"repro/internal/sigma"
)

// CoinCommitMsg is a prover's Line 4 broadcast: commitments to its nb
// private noise bits per bin, each accompanied by a Σ-OR proof that the
// committed value is a bit (Line 5).
type CoinCommitMsg struct {
	Prover int
	// Commitments[j][l] commits to private bit v_{l} for bin j.
	Commitments [][]*pedersen.Commitment
	// Proofs[j][l] is the Σ-OR proof for Commitments[j][l].
	Proofs [][]*sigma.BitProof
}

// ProverOutput is a prover's Line 10-11 message: per-bin noisy share totals
// y_j and the matching aggregate commitment randomness z_j.
type ProverOutput struct {
	Prover int
	Y      []*field.Element // [M]
	Z      []*field.Element // [M]
}

// Malice configures deviations for adversarial provers in tests and the
// Table 2 property experiments. The zero value is an honest prover. Each
// deviation corresponds to a cheating strategy from the soundness proof of
// Theorem 4.1, and each must be detected by the verifier.
type Malice struct {
	// NonBitCoin commits the first noise coin to the value 2 instead of a
	// bit (cheat (a): "c'_{j,k} is not a commitment to a bit"). The
	// accompanying proof is necessarily bogus; detection happens at Line 6.
	NonBitCoin bool
	// BiasPrivateBits makes every private bit 1 instead of fair. This is
	// NOT cheating — the paper allows the prover's private coin to have
	// arbitrary bias; DP comes from the XOR with the public Morra coin.
	// Included to demonstrate that the protocol tolerates it.
	BiasPrivateBits bool
	// OutputBias adds this amount to every reported y_j while keeping z_j
	// honest (cheat (c): "Output messages y' ≠ y"). Detected at Line 13.
	OutputBias int64
	// RandomnessBias perturbs every reported z_j (the other half of cheat
	// (c)). Detected at Line 13.
	RandomnessBias bool
	// DropClient, when set, excludes client DropClientID's shares from
	// the aggregate — the Figure 1(a) exclusion attack. The client is on
	// the public valid roster, so the verifier's expected commitment
	// product still includes it and the Line 13 check fails.
	DropClient   bool
	DropClientID int
	// SkipNoise omits the noise terms from y_j and z_j (publishing the
	// exact count — a privacy violation the verifier must also catch,
	// since the adjusted coin commitments are part of the expected
	// product).
	SkipNoise bool
}

// NoMalice is the honest prover behaviour (the zero value).
var NoMalice = Malice{}

// coin is a prover-private noise bit with its commitment opening.
type coin struct {
	v *field.Element // the private bit
	s *field.Element // commitment randomness
	c *pedersen.Commitment
}

// Prover is prover Pv_k's state machine. Its stages run in order: clients
// accepted (acceptChecked), coins committed (commitCoin per coin, then
// installCoins), SetPublicCoins, Finalize.
type Prover struct {
	pub    *Public
	index  int
	malice Malice

	clients  []*ClientPublic        // accepted roster, in arrival order
	payloads map[int]*ClientPayload // by client ID
	coins    [][]*coin              // [M][nb]
	public   [][]byte               // [M][nb] Morra bits
}

// NewProver creates prover `index` (0-based) of the deployment.
func NewProver(pub *Public, index int) (*Prover, error) {
	if index < 0 || index >= pub.cfg.Provers {
		return nil, fmt.Errorf("%w: prover index %d out of [0,%d)", ErrBadConfig, index, pub.cfg.Provers)
	}
	return &Prover{pub: pub, index: index, malice: NoMalice, payloads: make(map[int]*ClientPayload)}, nil
}

// NewMaliciousProver creates a prover with the given deviations.
func NewMaliciousProver(pub *Public, index int, m Malice) (*Prover, error) {
	p, err := NewProver(pub, index)
	if err != nil {
		return nil, err
	}
	p.malice = m
	return p, nil
}

// acceptChecked installs a client whose board submission and payload the
// caller has already validated (admission's folded check of the board proof
// and the share openings). Only the duplicate-submission guard remains
// here. Not safe for concurrent use on the same prover.
func (pr *Prover) acceptChecked(pub *ClientPublic, payload *ClientPayload) error {
	if _, dup := pr.payloads[pub.ID]; dup {
		return fmt.Errorf("%w: duplicate submission from client %d", ErrClientReject, pub.ID)
	}
	pr.clients = append(pr.clients, pub)
	pr.payloads[pub.ID] = payload
	return nil
}

// commitCoin builds one noise coin: sample the private bit, commit, and
// prove the commitment opens to a bit. It does not touch prover state, so
// the prover stage can evaluate every (bin, coin) pair of every prover
// concurrently, each drawing from its own randomness substream.
func (pr *Prover) commitCoin(j, l int, rnd io.Reader) (*coin, *sigma.BitProof, error) {
	f := pr.pub.Field()
	v, err := pr.sampleBit(f, rnd)
	if err != nil {
		return nil, nil, err
	}
	if pr.malice.NonBitCoin && j == 0 && l == 0 {
		v = f.FromInt64(2)
	}
	c, s, err := pr.pub.pp.Commit(v, rnd)
	if err != nil {
		return nil, nil, err
	}
	coinCtx := coinContext(pr.pub.proverContext(pr.index, j), l)
	proof, err := sigma.ProveBit(pr.pub.pp, c, v, s, coinCtx, rnd)
	if err != nil {
		if !pr.malice.NonBitCoin {
			return nil, nil, err
		}
		// A cheating prover cannot produce a valid proof for a non-bit
		// commitment; it forges one by proving a throwaway commitment to 1
		// and transplanting the proof.
		decoy := pr.pub.pp.CommitWith(f.One(), s)
		proof, err = sigma.ProveBit(pr.pub.pp, decoy, f.One(), s, coinCtx, rnd)
		if err != nil {
			return nil, nil, err
		}
	}
	return &coin{v: v, s: s, c: c}, proof, nil
}

// installCoins records a full [M][nb] coin matrix (built by the prover
// stage's per-coin fan-out) and assembles the Line 4 broadcast. It enforces
// the once-only coin commitment.
func (pr *Prover) installCoins(coins [][]*coin, proofs [][]*sigma.BitProof) (*CoinCommitMsg, error) {
	if pr.coins != nil {
		return nil, fmt.Errorf("%w: coins committed twice", ErrBadConfig)
	}
	m := pr.pub.cfg.Bins
	nb := pr.pub.nb
	msg := &CoinCommitMsg{
		Prover:      pr.index,
		Commitments: make([][]*pedersen.Commitment, m),
		Proofs:      proofs,
	}
	for j := 0; j < m; j++ {
		if len(coins[j]) != nb || len(proofs[j]) != nb {
			return nil, fmt.Errorf("%w: coin matrix bin %d has %d/%d entries, want %d",
				ErrBadConfig, j, len(coins[j]), len(proofs[j]), nb)
		}
		msg.Commitments[j] = make([]*pedersen.Commitment, nb)
		for l := 0; l < nb; l++ {
			msg.Commitments[j][l] = coins[j][l].c
		}
	}
	pr.coins = coins
	return msg, nil
}

// sampleBit draws the prover's private coin: fair by default, constant 1
// under BiasPrivateBits (allowed — see Malice).
func (pr *Prover) sampleBit(f *field.Field, rnd io.Reader) (*field.Element, error) {
	if pr.malice.BiasPrivateBits {
		return f.One(), nil
	}
	var buf [1]byte
	e, err := f.Rand(rnd)
	if err != nil {
		return nil, err
	}
	buf[0] = byte(e.Bit(0))
	return f.FromInt64(int64(buf[0])), nil
}

// SetPublicCoins installs the Morra public bits (Lines 7-8). The layout
// must be [M][nb] with every entry 0 or 1.
func (pr *Prover) SetPublicCoins(bits [][]byte) error {
	if pr.coins == nil {
		return fmt.Errorf("%w: SetPublicCoins before the coins are committed", ErrBadConfig)
	}
	if pr.public != nil {
		return fmt.Errorf("%w: SetPublicCoins called twice", ErrBadConfig)
	}
	if len(bits) != pr.pub.cfg.Bins {
		return fmt.Errorf("%w: public coins cover %d bins, want %d", ErrBadConfig, len(bits), pr.pub.cfg.Bins)
	}
	for j, row := range bits {
		if len(row) != pr.pub.nb {
			return fmt.Errorf("%w: bin %d has %d public coins, want %d", ErrBadConfig, j, len(row), pr.pub.nb)
		}
		for _, b := range row {
			if b > 1 {
				return fmt.Errorf("%w: non-bit public coin", ErrBadConfig)
			}
		}
	}
	pr.public = bits
	return nil
}

// Finalize runs Lines 9-11: adjust each private bit by the public coin
// (v̂ = v ⊕ b, implemented as the linear map v̂ = 1-v when b = 1), then
// publish y_j = Σ_i ⟦x_i⟧ + Σ_l v̂_l and z_j = Σ_i r_i + Σ_l ±s_l. The
// flipped coins contribute -s_l because the verifier's adjusted commitment
// is ĉ' = Com(1,0) ⊗ c'^{-1} = Com(1-v, -s).
func (pr *Prover) Finalize() (*ProverOutput, error) {
	if pr.public == nil {
		return nil, fmt.Errorf("%w: Finalize before SetPublicCoins", ErrBadConfig)
	}
	f := pr.pub.Field()
	m := pr.pub.cfg.Bins
	out := &ProverOutput{Prover: pr.index, Y: make([]*field.Element, m), Z: make([]*field.Element, m)}
	for j := 0; j < m; j++ {
		y := f.Zero()
		z := f.Zero()
		for _, cl := range pr.clients {
			if pr.malice.DropClient && cl.ID == pr.malice.DropClientID {
				continue // Figure 1(a): silently exclude the honest client
			}
			o := pr.payloads[cl.ID].Openings[j]
			y = y.Add(o.X)
			z = z.Add(o.R)
		}
		if !pr.malice.SkipNoise {
			for l, cn := range pr.coins[j] {
				if pr.public[j][l] == 1 {
					y = y.Add(f.One().Sub(cn.v)) // v̂ = 1 - v
					z = z.Sub(cn.s)              // randomness negates
				} else {
					y = y.Add(cn.v)
					z = z.Add(cn.s)
				}
			}
		}
		if pr.malice.OutputBias != 0 {
			y = y.Add(f.FromInt64(pr.malice.OutputBias))
		}
		if pr.malice.RandomnessBias {
			z = z.Add(f.One())
		}
		out.Y[j] = y
		out.Z[j] = z
	}
	return out, nil
}

// coinContext scopes a Σ-OR proof to one coin index within a prover/bin
// context.
func coinContext(ctx []byte, l int) []byte {
	return append(append([]byte{}, ctx...), byte(l>>24), byte(l>>16), byte(l>>8), byte(l))
}
