package vdp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/field"
	"repro/internal/group"
	"repro/internal/pedersen"
	"repro/internal/share"
	"repro/internal/sigma"
)

// ClientPublic is the part of a client submission that goes on the public
// bulletin board: the commitment matrix to all shares and the legality
// proof over the derived per-bin commitments (Line 2 of Figure 2). Everyone
// — verifier, provers, outside auditors — sees it.
type ClientPublic struct {
	ID int
	// ShareCommitments[j][k] commits to the k'th share of bin j.
	ShareCommitments [][]*pedersen.Commitment
	// BitProof proves the derived commitment opens to a bit (M = 1).
	BitProof *sigma.BitProof
	// OneHotProof proves the derived commitments form a one-hot vector
	// (M ≥ 2).
	OneHotProof *sigma.OneHotProof
}

// ClientPayload is the private message a client sends to one prover: the
// openings of that prover's column of the commitment matrix — i.e. the
// shares themselves with their commitment randomness.
type ClientPayload struct {
	ClientID int
	Prover   int
	// Openings[j] opens ShareCommitments[j][Prover].
	Openings []*pedersen.Opening
}

// ClientSubmission bundles the public and private parts produced by a
// client.
type ClientSubmission struct {
	Public   *ClientPublic
	Payloads []*ClientPayload // one per prover
}

// NewClientSubmission prepares client clientID's submission for input
// `choice`. For M = 1 the input is a bit: choice 0 or 1 (the value itself).
// For M ≥ 2 the input is a one-hot vector with a 1 at index choice
// ∈ [0, M).
func (p *Public) NewClientSubmission(clientID, choice int, rnd io.Reader) (*ClientSubmission, error) {
	f := p.Field()
	m := p.cfg.Bins
	k := p.cfg.Provers

	vec := make([]*field.Element, m)
	if m == 1 {
		if choice != 0 && choice != 1 {
			return nil, fmt.Errorf("%w: counting-query input must be 0 or 1, got %d", ErrClientReject, choice)
		}
		vec[0] = f.FromInt64(int64(choice))
	} else {
		if choice < 0 || choice >= m {
			return nil, fmt.Errorf("%w: histogram choice %d out of [0,%d)", ErrClientReject, choice, m)
		}
		for j := range vec {
			vec[j] = f.Zero()
		}
		vec[choice] = f.One()
	}

	pub := &ClientPublic{ID: clientID, ShareCommitments: make([][]*pedersen.Commitment, m)}
	payloads := make([]*ClientPayload, k)
	for pk := 0; pk < k; pk++ {
		payloads[pk] = &ClientPayload{ClientID: clientID, Prover: pk, Openings: make([]*pedersen.Opening, m)}
	}

	// Derived per-bin commitments c_j = Π_k c_{j,k} = Com(x_j, Σ_k r_{j,k})
	// and their openings, which feed the legality proof.
	derived := make([]*pedersen.Commitment, m)
	derivedOpen := make([]*pedersen.Opening, m)

	for j := 0; j < m; j++ {
		shares, err := share.Additive(vec[j], k, rnd)
		if err != nil {
			return nil, err
		}
		pub.ShareCommitments[j] = make([]*pedersen.Commitment, k)
		sumR := f.Zero()
		for pk := 0; pk < k; pk++ {
			c, r, err := p.pp.Commit(shares[pk], rnd)
			if err != nil {
				return nil, err
			}
			pub.ShareCommitments[j][pk] = c
			payloads[pk].Openings[j] = &pedersen.Opening{X: shares[pk], R: r}
			sumR = sumR.Add(r)
		}
		derived[j] = pedersen.Sum(p.pp, pub.ShareCommitments[j]...)
		derivedOpen[j] = &pedersen.Opening{X: vec[j], R: sumR}
	}

	ctx := p.clientContext(clientID)
	if m == 1 {
		bp, err := sigma.ProveBit(p.pp, derived[0], derivedOpen[0].X, derivedOpen[0].R, ctx, rnd)
		if err != nil {
			return nil, err
		}
		pub.BitProof = bp
	} else {
		ohp, err := sigma.ProveOneHot(p.pp, derived, derivedOpen, ctx, rnd)
		if err != nil {
			return nil, err
		}
		pub.OneHotProof = ohp
	}
	return &ClientSubmission{Public: pub, Payloads: payloads}, nil
}

// derivedCommitments recomputes c_j = Π_k c_{j,k} from a public submission.
// With one prover c_j is c_{j,0} itself: commitments are immutable, so the
// share commitment is returned rather than a copy summed onto the identity.
func (p *Public) derivedCommitments(pub *ClientPublic) ([]*pedersen.Commitment, error) {
	if len(pub.ShareCommitments) != p.cfg.Bins {
		return nil, fmt.Errorf("%w: client %d committed %d bins, want %d",
			ErrClientReject, pub.ID, len(pub.ShareCommitments), p.cfg.Bins)
	}
	out := make([]*pedersen.Commitment, p.cfg.Bins)
	for j, row := range pub.ShareCommitments {
		if len(row) != p.cfg.Provers {
			return nil, fmt.Errorf("%w: client %d bin %d has %d share commitments, want %d",
				ErrClientReject, pub.ID, j, len(row), p.cfg.Provers)
		}
		if len(row) == 1 {
			out[j] = row[0]
			continue
		}
		out[j] = pedersen.Sum(p.pp, row...)
	}
	return out, nil
}

// VerifyClient runs the public legality check of Line 3 of Figure 2 against
// a client's bulletin-board submission. A nil return marks the client valid;
// an ErrClientReject-wrapped error gives the publicly attributable reason.
// Because the check uses only public data, every party reaches the same
// verdict — this is the public record that defeats the Figure 1 attacks
// (a prover cannot silently exclude a client that passed, nor include one
// that failed).
func (p *Public) VerifyClient(pub *ClientPublic) error {
	derived, err := p.derivedCommitments(pub)
	if err != nil {
		return err
	}
	ctx := p.clientContext(pub.ID)
	if p.cfg.Bins == 1 {
		if pub.BitProof == nil {
			return fmt.Errorf("%w: client %d missing bit proof", ErrClientReject, pub.ID)
		}
		if err := sigma.VerifyBit(p.pp, derived[0], pub.BitProof, ctx); err != nil {
			return fmt.Errorf("%w: client %d: %v", ErrClientReject, pub.ID, err)
		}
		return nil
	}
	if pub.OneHotProof == nil {
		return fmt.Errorf("%w: client %d missing one-hot proof", ErrClientReject, pub.ID)
	}
	if err := sigma.VerifyOneHot(p.pp, derived, pub.OneHotProof, ctx); err != nil {
		return fmt.Errorf("%w: client %d: %v", ErrClientReject, pub.ID, err)
	}
	return nil
}

// filterValidClientsBatch applies VerifyClient to a batch and partitions it
// into the accepted set and a map of rejection reasons. The accepted set is
// the public roster of inputs the protocol will aggregate; from Line 3 on,
// "the protocol only uses inputs from validated clients". Σ-OR
// verification is batched: foldClients folds every structurally sound
// client's legality proof into one BitBatch, one member per client, and a
// single (parallel) multi-exponentiation decides the honest case. Only when
// that combined check fails does the batch bisect (sigma.BitBatch.Narrow)
// to the clients whose own equations fail, and VerifyClient names each one's
// reason — so a single forged proof hidden among many valid ones is still
// pinned on exactly its author, at the price of about log₂ n range checks.
// Verdicts and rejection reasons are identical to the sequential reference
// (FilterValidClients, in the tests) regardless of worker count. A
// cancelled ctx aborts with ctx.Err() before any verdict is published, so
// cancellation can never be mistaken for a rejection. The readers judge the
// board with it; admission folds the share openings into the same batch
// (verifyBatch) and calls it only as the board-only re-check after a
// failed combined check.
func (p *Public) filterValidClientsBatch(ctx context.Context, pubs []*ClientPublic, workers int) (valid []*ClientPublic, rejected map[int]error, err error) {
	rejected = make(map[int]error)
	if len(pubs) == 0 {
		return nil, rejected, ctxErr(ctx)
	}
	fold, err := p.foldClients(ctx, pubs, workers)
	if err != nil {
		return nil, nil, err
	}
	inBatch := make([]bool, len(pubs))
	for i, c := range pubs {
		if fold.reject[i] != nil {
			rejected[c.ID] = fold.reject[i]
			continue
		}
		inBatch[i] = true
	}

	// One combined check. On failure, bisect to the suspects and re-verify
	// them individually (in parallel — verdicts are independent) to name
	// every cheater; the honest majority is still accepted.
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	if fold.batch.Check(workers) != nil {
		suspects := fold.batch.Narrow(workers)
		verdicts := make([]error, len(suspects))
		ferr := forEach(ctx, workers, len(suspects), func(k int) error {
			verdicts[k] = p.VerifyClient(pubs[fold.member[suspects[k]]])
			return nil
		})
		if ferr != nil {
			return nil, nil, ferr
		}
		for k, m := range suspects {
			if i := fold.member[m]; verdicts[k] != nil {
				rejected[pubs[i].ID] = verdicts[k]
				inBatch[i] = false
			}
		}
	}
	for i, c := range pubs {
		if inBatch[i] {
			valid = append(valid, c)
		}
	}
	return valid, rejected, nil
}

// clientFold is a window of board submissions folded into one BitBatch,
// not yet checked.
type clientFold struct {
	batch *sigma.BitBatch
	// reject[i] is member i's verdict when it never entered the batch (a
	// structural or scalar failure); nil means it is folded.
	reject []error
	// first[i] is the held commitment (sigma.BitBatch.Held) of a folded
	// member's bin 0; bin j's derived commitment is first[i]+j.
	first []int
	// member[m] is the index of the batch's member m (sigma.BitBatch.Mark).
	member []int
}

// foldClients folds every structurally sound member's legality proof into
// one BitBatch, leaving the combined check to the caller.
func (p *Public) foldClients(ctx context.Context, pubs []*ClientPublic, workers int) (*clientFold, error) {
	fold := &clientFold{
		batch:  sigma.NewBitBatch(p.pp, nil),
		reject: make([]error, len(pubs)),
		first:  make([]int, len(pubs)),
	}
	// Pass 1 (parallel, pure): recompute derived per-bin commitments and
	// check proof presence. Structural failures are attributable on the
	// spot and never enter the batch.
	derived := make([][]*pedersen.Commitment, len(pubs))
	ferr := forEach(ctx, workers, len(pubs), func(i int) error {
		c := pubs[i]
		d, err := p.derivedCommitments(c)
		if err != nil {
			fold.reject[i] = err
			return nil
		}
		if p.cfg.Bins == 1 && c.BitProof == nil {
			fold.reject[i] = fmt.Errorf("%w: client %d missing bit proof", ErrClientReject, c.ID)
			return nil
		}
		if p.cfg.Bins > 1 && c.OneHotProof == nil {
			fold.reject[i] = fmt.Errorf("%w: client %d missing one-hot proof", ErrClientReject, c.ID)
			return nil
		}
		derived[i] = d
		return nil
	})
	if ferr != nil {
		return nil, ferr
	}
	// The fold hashes every derived commitment's encoding into its
	// Fiat-Shamir challenge: one shared inversion for the batch here, not
	// one per commitment there. A lone commitment has nothing to share.
	if n := len(pubs) * p.cfg.Bins; n > 1 {
		elems := make([]group.Element, 0, n)
		for _, d := range derived {
			for _, c := range d {
				elems = append(elems, c.Element())
			}
		}
		group.NormalizeBatch(p.pp.Group(), elems)
	}

	// Pass 2 (sequential, scalar-only): fold every remaining proof into the
	// batch. Fiat-Shamir recomputation rejects malformed proofs here with
	// the same verdict the per-client verifier would reach.
	for i, c := range pubs {
		if fold.reject[i] != nil {
			continue
		}
		fold.first[i] = fold.batch.Held()
		var err error
		if p.cfg.Bins == 1 {
			err = fold.batch.Add(derived[i][0], c.BitProof, p.clientContext(c.ID))
		} else {
			err = fold.batch.AddOneHot(derived[i], c.OneHotProof, p.clientContext(c.ID))
		}
		if err != nil {
			fold.reject[i] = fmt.Errorf("%w: client %d: %v", ErrClientReject, c.ID, err)
			continue
		}
		fold.batch.Mark()
		fold.member = append(fold.member, i)
	}
	return fold, nil
}

// foldOpenings folds a member's share openings, every prover's column of
// them, into the batch that holds its board proof. At K = 1 a share
// commitment is its bin's derived commitment, which the batch already holds:
// the opening adds no term. At K ≥ 2 the derived commitment takes the summed
// opening and shares 0..K−2 join as terms of their own; share K−1 follows,
// since c_{j,K−1} = derived_j ⊘ Π_{k<K−1} c_{j,k}. The payloads must be
// openable.
func (p *Public) foldOpenings(fold *clientFold, i int, sub *ClientSubmission) error {
	k := p.cfg.Provers
	for j := 0; j < p.cfg.Bins; j++ {
		x, r := sub.Payloads[0].Openings[j].X, sub.Payloads[0].Openings[j].R
		for pk := 1; pk < k; pk++ {
			o := sub.Payloads[pk].Openings[j]
			x, r = x.Add(o.X), r.Add(o.R)
		}
		if err := fold.batch.AddOpeningAt(fold.first[i]+j, x, r); err != nil {
			return err
		}
		for pk := 0; pk < k-1; pk++ {
			o := sub.Payloads[pk].Openings[j]
			if err := fold.batch.AddOpening(sub.Public.ShareCommitments[j][pk], o.X, o.R); err != nil {
				return err
			}
		}
	}
	return nil
}

// openable reports whether a member's payloads pass every check of
// checkPayloads but the opening values: one payload per prover, each of the
// right shape, with an opening per bin. Only such a member's openings are
// folded; any other keeps checkPayloads' verdict.
func (p *Public) openable(sub *ClientSubmission) bool {
	if len(sub.Payloads) != p.cfg.Provers {
		return false
	}
	for k, payload := range sub.Payloads {
		if p.payloadShape(sub.Public, payload, k) != nil {
			return false
		}
		for _, o := range payload.Openings {
			if o == nil {
				return false
			}
		}
	}
	return true
}

// checkPayloads is a board-valid member's payload verdict, checked without
// the fold: the payload count, then each prover's column in prover order,
// the lowest failing prover naming the reason.
func (p *Public) checkPayloads(sub *ClientSubmission) error {
	if len(sub.Payloads) != p.cfg.Provers {
		return fmt.Errorf("%w: client %d supplied %d per-prover payloads, want %d",
			ErrClientReject, sub.Public.ID, len(sub.Payloads), p.cfg.Provers)
	}
	for k, payload := range sub.Payloads {
		if err := p.checkPayloadOpenings(sub.Public, payload, k); err != nil {
			return err
		}
	}
	return nil
}

// payloadShape checks one payload's identity fields and bin count against
// prover column `prover`.
func (p *Public) payloadShape(pub *ClientPublic, payload *ClientPayload, prover int) error {
	if payload == nil || payload.ClientID != pub.ID {
		return fmt.Errorf("%w: payload/public ID mismatch for client %d", ErrClientReject, pub.ID)
	}
	if payload.Prover != prover {
		return fmt.Errorf("%w: payload for prover %d delivered to prover %d", ErrClientReject, payload.Prover, prover)
	}
	if len(payload.Openings) != p.cfg.Bins {
		return fmt.Errorf("%w: client %d payload has %d bins, want %d",
			ErrClientReject, pub.ID, len(payload.Openings), p.cfg.Bins)
	}
	return nil
}

// checkPayloadOpenings validates one client's private payload for prover
// column `prover` against the public commitment matrix: its shape, then
// every share opening with one fixed-base commitment each. Admission folds
// the openings instead (foldOpenings) and runs this check only where the
// fold cannot give the verdict: a member that is not openable, or a frame
// whose folded check failed.
func (p *Public) checkPayloadOpenings(pub *ClientPublic, payload *ClientPayload, prover int) error {
	if err := p.payloadShape(pub, payload, prover); err != nil {
		return err
	}
	// The openings must match the public commitments in this prover's
	// column; otherwise the client equivocated between board and payload.
	for j := 0; j < p.cfg.Bins; j++ {
		c := pub.ShareCommitments[j][prover]
		o := payload.Openings[j]
		if o == nil || !p.pp.Verify(c, o.X, o.R) {
			return fmt.Errorf("%w: client %d share opening for bin %d does not match its public commitment",
				ErrClientReject, pub.ID, j)
		}
	}
	return nil
}
