package vdp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// Per-client privacy-budget ledger.
//
// Multi-epoch telemetry spends privacy: every epoch a client contributes to
// costs ε under composition. The ledger makes that spend part of the board's
// durable evidence: a session with SessionOptions.Budget debits each
// client's budget at Submit time — inside the roster lock, as a
// RecordBudgetCharge appended between the client's submission record and its
// acknowledgement — and refuses clients whose next charge would exceed their
// lifetime cap with a board-recorded verdict (attributable, like every other
// refusal). Charges are digest-chained: each record carries the chain head
// it extends, so ResumeSession, AuditLog, and a TailAuditor all replay the
// charge stream to a byte-identical chain digest, and a dropped, injected,
// or reordered charge breaks the chain at the first divergent record.
//
// Amounts are fixed-point micro-ε (1 µε = 1e-6 ε): integer arithmetic keeps
// the chain digest deterministic across platforms, which float ε would not.

// RecordBudgetCharge is the board-log record kind of one ledger debit:
// payload = client ID, epoch, amount, cumulative spend, previous chain
// digest. It extends the record-kind namespace of store.go.
const RecordBudgetCharge uint8 = 9

// BudgetConfig enables the per-client privacy-budget ledger on a session.
type BudgetConfig struct {
	// EpochCost is the charge, in micro-ε, debited from a client's budget
	// the first time it is admitted in an epoch. One charge covers the
	// client's whole contribution to that epoch (all sketch rows included).
	EpochCost uint64
	// Total is the client's lifetime budget in micro-ε. A submission whose
	// charge would push the client past Total is refused with an
	// attributable board verdict and is never charged.
	Total uint64
}

// validate rejects configurations under which no client could ever submit.
func (b *BudgetConfig) validate() error {
	if b == nil {
		return nil
	}
	if b.EpochCost == 0 {
		return fmt.Errorf("%w: budget epoch cost must be positive", ErrBadConfig)
	}
	if b.Total < b.EpochCost {
		return fmt.Errorf("%w: budget total %d µε is below the per-epoch cost %d µε — no client could ever submit",
			ErrBadConfig, b.Total, b.EpochCost)
	}
	return nil
}

// ParseBudget parses the -ledger flag form "epochε,totalε" — two decimal
// ε amounts, e.g. "0.5,2" for half an ε per epoch under a lifetime cap of
// 2 — into the fixed-point µε policy. Rounding to whole µε happens here,
// once, at the flag boundary; everything past it is integer arithmetic.
func ParseBudget(s string) (*BudgetConfig, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return nil, fmt.Errorf("%w: ledger %q is not of the form epochEps,totalEps (e.g. 0.5,2)", ErrBadConfig, s)
	}
	var ue [2]uint64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: ledger %q: %q is not a number", ErrBadConfig, s, p)
		}
		// The µε fixed point caps representable ε well below any meaningful
		// privacy budget; 1e9 ε is already "no privacy" many times over.
		if !(f > 0) || f > 1e9 {
			return nil, fmt.Errorf("%w: ledger %q: ε amount %q out of range (0, 1e9]", ErrBadConfig, s, p)
		}
		ue[i] = uint64(math.Round(f * 1e6))
	}
	cfg := &BudgetConfig{EpochCost: ue[0], Total: ue[1]}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// budgetReasonMarker appears in every budget refusal's verdict reason, so
// replaying auditors can tell a budget refusal from a payload dispute (the
// other off-board refusal) without a record-format change.
const budgetReasonMarker = "privacy budget exhausted"

// budgetRefusalError builds the attributable refusal verdict.
func budgetRefusalError(id int, spent, cost, total uint64) error {
	return fmt.Errorf("%w: client %d %s: %d of %d µε spent, next epoch costs %d µε",
		ErrClientReject, id, budgetReasonMarker, spent, total, cost)
}

// isBudgetRefusalReason recognizes a budget refusal from its recorded
// verdict reason.
func isBudgetRefusalReason(reason string) bool {
	return strings.Contains(reason, budgetReasonMarker)
}

// ledgerGenesis is the chain head before any charge.
func ledgerGenesis() []byte {
	d := sha256.Sum256([]byte("vdp/budget-ledger/1|genesis"))
	return d[:]
}

// encodeBudgetCharge serializes a charge record body: version | u32 client |
// u32 epoch | u64 amount | u64 cumulative | blob(previous chain digest).
func encodeBudgetCharge(id, epoch int, amount, cum uint64, prev []byte) []byte {
	var w wire.Writer
	w.U8(WireVersion)
	w.U32(uint32(id))
	w.U32(uint32(epoch))
	w.U64(amount)
	w.U64(cum)
	w.Blob(prev)
	return w.Bytes()
}

// decodeBudgetCharge parses a charge record body.
func decodeBudgetCharge(b []byte) (id, epoch int, amount, cum uint64, prev []byte, err error) {
	r := versioned(b)
	id = int(r.U32())
	epoch = int(r.U32())
	amount = r.U64()
	cum = r.U64()
	prev = r.Blob()
	if ferr := r.Finish(); ferr != nil {
		return 0, 0, 0, 0, nil, ferr
	}
	if len(prev) != sha256.Size {
		return 0, 0, 0, 0, nil, fmt.Errorf("vdp: budget charge carries a %d-byte chain digest, want %d", len(prev), sha256.Size)
	}
	return id, epoch, amount, cum, prev, nil
}

// chargeDigest advances the chain: SHA-256 over a domain tag and the full
// encoded charge (which itself embeds the previous head).
func chargeDigest(payload []byte) []byte {
	h := sha256.New()
	h.Write([]byte("vdp/budget-charge/1"))
	h.Write(payload)
	return h.Sum(nil)
}

// budgetLedger is the replayable charge state: per-client lifetime spend,
// the set of clients already charged in the current epoch, and the chain
// head. The same type backs the live session, resume-time replay, and the
// audit tails — one implementation, so all parties converge byte for byte.
type budgetLedger struct {
	cfg     *BudgetConfig // nil = chain verification only, no policy checks
	spent   map[int]uint64
	head    []byte
	count   int
	epoch   int          // epoch of the newest charge seen
	charged map[int]bool // clients charged in that epoch
}

// newBudgetLedger creates an empty ledger. cfg may be nil for auditors that
// verify chain integrity without knowing the deployment's budget policy.
func newBudgetLedger(cfg *BudgetConfig) *budgetLedger {
	return &budgetLedger{
		cfg:     cfg,
		spent:   make(map[int]uint64),
		head:    ledgerGenesis(),
		charged: make(map[int]bool),
	}
}

// advanceTo moves the per-epoch charged set forward; charges never flow
// backwards in epochs, so an older epoch is an error for appliers to raise.
func (l *budgetLedger) advanceTo(epoch int) {
	if epoch != l.epoch {
		l.epoch = epoch
		l.charged = make(map[int]bool)
	}
}

// chargedInEpoch reports whether a client has already been charged in the
// given epoch.
func (l *budgetLedger) chargedInEpoch(epoch, id int) bool {
	return epoch == l.epoch && l.charged[id]
}

// canCharge reports whether a client's next epoch charge fits its budget.
// Already-charged clients (this epoch) trivially fit — the charge is spent.
func (l *budgetLedger) canCharge(epoch, id int) bool {
	if l.cfg == nil {
		return true
	}
	if l.chargedInEpoch(epoch, id) {
		return true
	}
	return l.spent[id]+l.cfg.EpochCost <= l.cfg.Total
}

// prepareCharge builds the charge record for a client without mutating the
// ledger, returning the encoded payload and a commit closure that applies
// it. A client already charged this epoch yields (nil, nil): nothing to
// append, nothing to commit. The caller appends the payload to the log and
// commits only if the append succeeded, so a failed store never desyncs the
// in-memory chain from the durable one.
func (l *budgetLedger) prepareCharge(epoch, id int) (payload []byte, commit func()) {
	if l.cfg == nil || l.chargedInEpoch(epoch, id) {
		return nil, nil
	}
	amount := l.cfg.EpochCost
	cum := l.spent[id] + amount
	payload = encodeBudgetCharge(id, epoch, amount, cum, l.head)
	next := chargeDigest(payload)
	return payload, func() {
		l.advanceTo(epoch)
		l.spent[id] = cum
		l.charged[id] = true
		l.head = next
		l.count++
	}
}

// apply replays one charge record, verifying it extends the chain exactly:
// the embedded previous digest must equal the current head, the cumulative
// spend must equal the client's replayed spend plus the amount, epochs must
// not flow backwards, no client is charged twice in one epoch, and — when
// the ledger knows the policy — the amount and cap must match it.
func (l *budgetLedger) apply(payload []byte) error {
	id, epoch, amount, cum, prev, err := decodeBudgetCharge(payload)
	if err != nil {
		return err
	}
	if !bytes.Equal(prev, l.head) {
		return fmt.Errorf("vdp: budget charge for client %d does not extend the ledger chain", id)
	}
	if epoch < l.epoch {
		return fmt.Errorf("vdp: budget charge for client %d belongs to epoch %d, ledger is at epoch %d", id, epoch, l.epoch)
	}
	if l.chargedInEpoch(epoch, id) {
		return fmt.Errorf("vdp: client %d charged twice in epoch %d", id, epoch)
	}
	if want := l.spent[id] + amount; cum != want {
		return fmt.Errorf("vdp: budget charge for client %d claims cumulative %d µε, replay says %d", id, cum, want)
	}
	if l.cfg != nil {
		if amount != l.cfg.EpochCost {
			return fmt.Errorf("vdp: budget charge for client %d debits %d µε, policy charges %d", id, amount, l.cfg.EpochCost)
		}
		if cum > l.cfg.Total {
			return fmt.Errorf("vdp: budget charge for client %d exceeds its %d µε cap (cumulative %d)", id, l.cfg.Total, cum)
		}
	}
	next := chargeDigest(payload)
	l.advanceTo(epoch)
	l.spent[id] = cum
	l.charged[id] = true
	l.head = next
	l.count++
	return nil
}
