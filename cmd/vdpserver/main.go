// Command vdpserver runs a verifiable-DP aggregation service in the
// trusted-curator model, built on the streaming Session API: client
// submissions arriving over TCP are decoded and verified *as they land on
// the socket* — each client gets its accept/reject verdict in the reply to
// its own frame — and once the expected number have been accepted (or the
// process receives SIGINT/SIGTERM) the open session is finalized: noise
// generation, Σ-OR proving, Morra and the audit transcript all run over the
// already-verified client set, and the verified release is printed.
//
// Batched admission: a "submit-batch" frame carries up to
// vdp.MaxBatchClients full submissions in one message (vdpclient -batch N
// sends them). The whole batch is admitted under a single roster-lock pass,
// persisted inside one group-commit fsync window, and verified by one
// folded Σ-OR batch check running concurrently with the fsync; the reply is
// one "batch-verdicts" frame with a per-client verdict each, so one bad
// client in a batch is rejected individually while its neighbours land.
//
// Sharding: with -shards N the bulletin board is split across N independent
// sub-sessions, consistent-hashed by client ID (vdp.ShardOf), so concurrent
// submissions routed to different shards never contend on a shared roster
// lock or board log. Finalize closes every shard in parallel and merges the
// per-shard transcripts into one combined release pinned by the merged
// transcript digest.
//
// Durability: with -store-dir set, the bulletin board is an append-only,
// checksummed log on disk (internal/store) — one file for an unsharded
// server, a manifest plus one segment per shard for a sharded one. Every
// accepted submission and verdict is fsync'd before the client hears back,
// and Finalize seals the epoch's transcript(s) into the same store. A
// vdpserver killed mid-epoch and restarted with the same -store-dir
// recovers the session from the log — same roster, same board order — and
// finishes the epoch as if it had never died. A segmented layout is
// detected by its manifest and adopted with its recorded shard count, so
// -shards need not be repeated on restart (a mismatching explicit count is
// refused — the shard map is fixed at creation); the sealed transcript can
// then be audited offline with `vdpclient -audit-store <dir>`, which
// detects the layout the same way. Without -store-dir the board lives in
// memory and a crash discards the epoch.
//
// Privacy-budget ledger: with -ledger "epochEps,totalEps" every first
// admission of a client in an epoch debits its lifetime ε budget as a
// digest-chained RecordBudgetCharge on the board, and a client whose next
// charge would breach the cap is refused with an attributable, board-recorded
// verdict. The ledger composes with every mode (plain, -shards, cluster
// node, -sketch) and is replayed — and re-verified — on recovery and by every
// auditor.
//
// Heavy-hitters mode: with -sketch RxWxD the board is a SketchSession — R
// ΠBin sub-sessions of W bins each — fed by W-row committed one-hot
// contributions (vdpclient -sketch -item), and Finalize releases a
// verifiable noisy count-min sketch instead of a histogram. The release is
// served: for -serve-queries the listener keeps answering vdpclient -query
// frames (top:K / point:ITEM) with estimates carrying the sketch's error
// bound.
//
// Graceful shutdown: on SIGINT/SIGTERM the listener closes, in-flight
// submissions drain, the session is finalized with whatever clients were
// accepted so far (or abandoned cleanly when none were), and the board log
// is flushed and closed.
//
// The deployment configuration flags must match the ones clients use, since
// the Σ-proof session context binds submissions to the exact deployment.
//
// Example (two shells):
//
//	vdpserver -addr 127.0.0.1:7001 -clients 3 -bins 2 -coins 32 -shards 4 -store-dir /var/lib/vdp
//	for i in 0 1 2; do vdpclient -addr 127.0.0.1:7001 -id $i -choice 1 -bins 2 -coins 32; done
//	vdpclient -audit-store /var/lib/vdp -bins 2 -coins 32   # offline audit
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/store"
	"repro/internal/vdp"
)

// boardLogName is the log file created under -store-dir for an unsharded
// server; a sharded server lays out a manifest plus per-shard segments in
// the same directory instead.
const boardLogName = "board.log"

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7001", "listen address")
		clients  = flag.Int("clients", 3, "number of accepted client submissions to wait for")
		bins     = flag.Int("bins", 1, "histogram bins (1 = counting query)")
		coins    = flag.Int("coins", 64, "noise coins nb (0 = calibrate from -eps/-delta)")
		eps      = flag.Float64("eps", 1.0, "epsilon (used when -coins 0)")
		delta    = flag.Float64("delta", 1e-6, "delta (used when -coins 0)")
		grace    = flag.Duration("grace", 30*time.Second, "shutdown grace period for draining and finalizing")
		storeDir = flag.String("store-dir", "", "directory for the durable board log (empty = in-memory board)")
		shards   = flag.Int("shards", 1, "independent board shards (client IDs are consistent-hashed across them)")
		shardIdx = flag.Int("shard-index", -1, "cluster node mode: serve this shard of -shard-count behind a vdprouter")
		shardCnt = flag.Int("shard-count", 0, "cluster node mode: total shards in the cluster (requires -shard-index)")
		standby  = flag.String("standby", "", "cluster node mode: mirror every log record to the standby at this address before acking")
		replica  = flag.String("replica-of", "", "cluster standby mode: run as the warm standby of the primary at this address (no admissions until promoted)")
		ledger   = flag.String("ledger", "", "privacy-budget ledger policy \"epochEps,totalEps\" (e.g. 0.5,2; empty = no ledger)")
		sketchSp = flag.String("sketch", "", "heavy-hitters mode: serve a RxWxD count-min sketch (e.g. 4x16x1024; overrides -bins with W)")
		serveQ   = flag.Duration("serve-queries", 0, "sketch mode: keep answering -query frames this long after the release (0 = exit)")
	)
	flag.Parse()
	if *shards < 1 {
		log.Fatalf("-shards must be at least 1, got %d", *shards)
	}
	budget, err := parseLedgerFlag(*ledger)
	if err != nil {
		log.Fatal(err)
	}

	binsEff := *bins
	var layout sketch.Layout
	if *sketchSp != "" {
		if layout, err = sketch.ParseLayout(*sketchSp); err != nil {
			log.Fatal(err)
		}
		// Each sketch row is its own ΠBin instance over the row's buckets, so
		// the deployment's bin count is the layout's width, not -bins.
		if *bins != 1 && *bins != layout.Width {
			log.Printf("-sketch %s sets the bin count to the row width %d; ignoring -bins %d", *sketchSp, layout.Width, *bins)
		}
		binsEff = layout.Width
	}

	pub, err := vdp.Setup(vdp.Config{Provers: 1, Bins: binsEff, Coins: *coins, Epsilon: *eps, Delta: *delta})
	if err != nil {
		log.Fatal(err)
	}

	// ctx is cancelled on SIGINT/SIGTERM; every in-flight Submit observes it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	nodeMode := *shardCnt > 0 || *shardIdx >= 0
	switch {
	case nodeMode && (*shardIdx < 0 || *shardIdx >= *shardCnt):
		log.Fatalf("-shard-index %d out of range for -shard-count %d", *shardIdx, *shardCnt)
	case nodeMode && *shards != 1:
		// The node's board is a single sub-session; in-process sharding does
		// not compose with it.
		log.Fatalf("-shards cannot be combined with cluster node mode (-shard-index/-shard-count)")
	case nodeMode && *sketchSp != "":
		log.Fatalf("-sketch cannot be combined with cluster node mode (-shard-index/-shard-count)")
	case *standby != "" && *replica != "":
		log.Fatalf("-standby and -replica-of are mutually exclusive: a process is a primary or a standby, not both")
	case !nodeMode && (*standby != "" || *replica != ""):
		log.Fatalf("-standby/-replica-of require cluster node mode (-shard-index/-shard-count)")
	case *sketchSp != "" && *shards != 1:
		// The segmented store's segments are rows, not client-hash shards.
		log.Fatalf("-shards cannot be combined with -sketch (the sketch's rows are the segments)")
	case *replica != "":
		runStandby(ctx, pub, *addr, *storeDir, budget, *shardIdx, *shardCnt, *replica, *grace)
	case nodeMode:
		runNode(ctx, pub, *addr, *storeDir, budget, *shardIdx, *shardCnt, *standby, *grace)
	case *sketchSp != "":
		runSketch(ctx, pub, layout, budget, *addr, *storeDir, *clients, *grace, *serveQ)
	default:
		runStandalone(ctx, pub, budget, *addr, *storeDir, *shards, *clients, *grace)
	}
}

// serve runs the dispatch's serve loop and fails the process when the
// listener cannot be opened.
func serve(ctx context.Context, addr string, d *server.Dispatch, grace time.Duration, role, detail string) (drain func()) {
	drain, err := d.Serve(ctx, addr, grace, role, detail)
	if err != nil {
		log.Fatal(err)
	}
	return drain
}

// epochBoard is the lifecycle surface the open-or-recover turnover needs;
// vdp.Session, vdp.ShardedSession and vdp.SketchSession all have it.
type epochBoard interface {
	Epoch() int
	Accepted() int
	Finalized() bool
	Compact() error
	Reset() error
}

// openOrRecover is the one open-or-recover turnover: an empty store starts a
// fresh session; one holding records recovers the interrupted session — same
// roster, same board order — and, when the previous incarnation had sealed
// its epoch, compacts it: the snapshot pins the sealed digest and becomes the
// epoch boundary, so the next restart boots from it instead of replaying the
// whole log. A finalized epoch whose seal was lost mid-append cannot be
// snapshotted; Reset closes it the old way. closeStore (nil for a memory
// board) is handed back on success and called on failure.
func openOrRecover[B epochBoard](what string, empty bool, closeStore func() error, fresh, resume func() (B, error)) (B, func() error, error) {
	open := resume
	if empty {
		open = fresh
	}
	b, err := open()
	switch {
	case err != nil || empty: // nothing recovered
	case !b.Finalized():
		log.Printf("recovered %s: resuming epoch %d with %d accepted", what, b.Epoch(), b.Accepted())
	default:
		if err = b.Compact(); err != nil {
			err = b.Reset()
		}
		if err == nil {
			log.Printf("recovered %s: last epoch sealed, compacted, opening epoch %d", what, b.Epoch())
		}
	}
	if err != nil {
		if closeStore != nil {
			closeStore()
		}
		return b, nil, fmt.Errorf("opening %s: %w", what, err)
	}
	return b, closeStore, nil
}

// openSegments opens the segmented store (a manifest plus n segments; n = 0
// adopts the manifest's recorded count) a sharded or sketch board writes to;
// an empty storeDir keeps the board in memory (nil store).
func openSegments(storeDir string, n int) (seg *store.SegmentedLog, closeStore func() error, err error) {
	if storeDir == "" {
		return nil, nil, nil
	}
	// An unsharded incarnation's board must be recovered as such, not buried
	// under a fresh manifest.
	if _, err := os.Stat(filepath.Join(storeDir, boardLogName)); err == nil {
		return nil, nil, fmt.Errorf("%s holds an unsharded board log; restart without -shards/-sketch to recover it", storeDir)
	}
	if seg, err = store.OpenSegmentedLog(storeDir, n); err != nil {
		return nil, nil, err
	}
	return seg, seg.Close, nil
}

// runStandalone serves one epoch of the self-finalizing curator: admit until
// -clients are accepted (or a signal), drain, finalize with whatever was
// accepted, print and self-audit the release.
func runStandalone(ctx context.Context, pub *vdp.Public, budget *vdp.BudgetConfig, addr, storeDir string, shards, clients int, grace time.Duration) {
	var (
		board interface {
			server.Board
			Accepted() int
		}
		finalize   func(context.Context)
		closeStore func() error
	)
	// A directory laid out by a sharded incarnation (even with one shard —
	// OpenSegmentedLog(dir, 1) is valid library usage) must be recovered
	// through the segmented path, never shadowed by a fresh unsharded board
	// next to the old evidence. Adopt the manifest's recorded shard count.
	if shards == 1 && storeDir != "" && store.IsSegmented(storeDir) {
		log.Printf("%s holds a segmented board log; adopting its recorded shard count", storeDir)
		shards = 0
	}
	if shards == 1 {
		sess, cs, err := openSession(ctx, pub, storeDir, budget)
		if err != nil {
			log.Fatal(err)
		}
		board, closeStore, finalize = sess, cs, func(ctx context.Context) { finalizeSession(ctx, pub, sess, storeDir) }
	} else {
		ss, cs, err := openShardedSession(ctx, pub, storeDir, budget, shards)
		if err != nil {
			log.Fatal(err)
		}
		shards = ss.Shards()
		board, closeStore, finalize = ss, cs, func(ctx context.Context) { finalizeSharded(ctx, pub, ss, storeDir) }
	}
	if closeStore != nil {
		defer closeStore()
	}

	d := server.New(ctx, pub, server.Of(board), server.Options{Accepted: board.Accepted(), Target: clients, Logf: log.Printf})
	drain := serve(ctx, addr, d, grace, "verifiable-dp curator", fmt.Sprintf("K=1, M=%d, nb=%d, shards=%d, ledger=%s, store=%s",
		pub.Bins(), pub.Coins(), shards, ledgerDesc(budget), storeDesc(storeDir)))
	drain()

	n := d.Accepted()
	if n == 0 {
		log.Printf("no accepted submissions; aborting session without a release")
		return
	}
	if n < clients {
		log.Printf("finalizing early with %d/%d clients", n, clients)
	}
	finalizeCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	finalize(finalizeCtx)
}

// finalizeSession closes an unsharded epoch, prints the release and
// self-audits the transcript.
func finalizeSession(ctx context.Context, pub *vdp.Public, sess *vdp.Session, storeDir string) {
	res, err := sess.Finalize(ctx)
	if err != nil {
		log.Fatalf("protocol finalize failed: %v", err)
	}
	printRelease(res.Release)
	if err := vdp.AuditContext(ctx, pub, res.Transcript); err != nil {
		log.Fatalf("self-audit failed: %v", err)
	}
	fmt.Println("transcript audit: PASSED")
	if storeDir != "" {
		fmt.Printf("epoch %d sealed in %s; audit offline with: vdpclient -audit-store %s\n",
			sess.Epoch(), filepath.Join(storeDir, boardLogName), storeDir)
	}
}

// finalizeSharded closes every shard in parallel, prints the merged release
// with the per-shard breakdown, and self-audits the merged epoch.
func finalizeSharded(ctx context.Context, pub *vdp.Public, sharded *vdp.ShardedSession, storeDir string) {
	res, err := sharded.Finalize(ctx)
	if err != nil {
		log.Fatalf("protocol finalize failed: %v", err)
	}
	printRelease(res.Release)
	for i, sr := range res.Shards {
		fmt.Printf("  shard %d: %d clients on its board\n", i, len(sr.Transcript.Clients))
	}
	if err := vdp.AuditMerged(ctx, pub, res.Transcripts(), res.Release, 0); err != nil {
		log.Fatalf("merged self-audit failed: %v", err)
	}
	fmt.Printf("merged transcript audit: PASSED (digest %x...)\n", res.Digest[:8])
	if storeDir != "" {
		fmt.Printf("epoch %d sealed across %d segments in %s; audit offline with: vdpclient -audit-store %s\n",
			sharded.Epoch(), sharded.Shards(), storeDir, storeDir)
	}
}

func printRelease(rel *vdp.Release) {
	fmt.Println("verified release:")
	for j, raw := range rel.Raw {
		fmt.Printf("  bin %d: raw=%d estimate=%.1f (±%.1f)\n", j, raw, rel.Estimate[j], rel.Stddev)
	}
}

// openFileLog opens (or creates) one durable log under storeDir, reporting a
// torn tail left by an interrupted append.
func openFileLog(storeDir, name string) (*store.FileLog, error) {
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	l, err := store.OpenFileLog(filepath.Join(storeDir, name))
	if err == nil && l.Truncated() > 0 {
		log.Printf("%s: discarded %d torn-tail bytes from an interrupted append", name, l.Truncated())
	}
	return l, err
}

// openSession opens the unsharded board: one log file under storeDir, or
// memory when storeDir is empty. A non-nil budget enables the privacy-budget
// ledger — on the resume path it is also the policy the recorded charge chain
// is re-checked against.
func openSession(ctx context.Context, pub *vdp.Public, storeDir string, budget *vdp.BudgetConfig) (*vdp.Session, func() error, error) {
	opts := vdp.SessionOptions{Budget: budget}
	empty, closeStore := true, (func() error)(nil)
	if storeDir != "" {
		boardLog, err := openFileLog(storeDir, boardLogName)
		if err != nil {
			return nil, nil, err
		}
		opts.Store, empty, closeStore = boardLog, boardLog.Len() == 0, boardLog.Close
	}
	return openOrRecover("board log", empty, closeStore,
		func() (*vdp.Session, error) { return vdp.NewSession(pub, opts) },
		func() (*vdp.Session, error) { return vdp.ResumeSession(ctx, pub, opts) })
}

// openShardedSession is openSession's sharded counterpart: the store is a
// segmented log (manifest + one segment per shard) under storeDir; shards = 0
// adopts the count an earlier incarnation recorded.
func openShardedSession(ctx context.Context, pub *vdp.Public, storeDir string, budget *vdp.BudgetConfig, shards int) (*vdp.ShardedSession, func() error, error) {
	seg, closeStore, err := openSegments(storeDir, shards)
	if err != nil {
		return nil, nil, err
	}
	opts := vdp.SessionOptions{Shards: shards, Segmented: seg, Budget: budget}
	return openOrRecover("segmented board log", seg == nil || seg.Empty(), closeStore,
		func() (*vdp.ShardedSession, error) { return vdp.NewShardedSession(pub, opts) },
		func() (*vdp.ShardedSession, error) { return vdp.ResumeShardedSession(ctx, pub, opts) })
}

func storeDesc(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}

// parseLedgerFlag turns the -ledger flag into a budget policy (nil when the
// flag is empty: no ledger).
func parseLedgerFlag(s string) (*vdp.BudgetConfig, error) {
	if s == "" {
		return nil, nil
	}
	return vdp.ParseBudget(s)
}

// ledgerDesc renders the policy for the startup banner.
func ledgerDesc(b *vdp.BudgetConfig) string {
	if b == nil {
		return "off"
	}
	return fmt.Sprintf("%gε/epoch of %gε", float64(b.EpochCost)/1e6, float64(b.Total)/1e6)
}
