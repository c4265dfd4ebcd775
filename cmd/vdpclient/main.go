// Command vdpclient submits one client input to a vdpserver curator: it
// secret-shares the input (trivially, for K = 1), commits to the shares,
// attaches the zero-knowledge legality proof, and sends the bundle over
// TCP. The deployment flags must match the server's.
//
// With -batch N it floods instead: N full submissions (IDs -id through
// -id+N-1, all with the same -choice) travel in ONE "submit-batch" frame,
// the server admits them under a single lock pass + fsync window + folded
// Σ-OR check, and the reply is one frame with a per-client verdict each.
// This is both the load generator for throughput measurements and the
// natural mode for a gateway submitting on behalf of many devices.
//
// With -audit-store it instead plays the third-party auditor, entirely
// offline: the server's durable board log is replayed, a sealed epoch's
// transcript is decoded, every proof and the final aggregate are
// re-verified, and the seal is cross-checked against the log's own
// per-arrival records. No network, no server cooperation — the log file is
// the whole input.
//
// With -follow it plays the auditor live: given the cluster's node
// addresses in shard order, it tails every node's bulletin board while the
// epoch is still open — each poll reads, over ranged node-log RPCs, only the
// records past its cursor — verifies each submission as it arrives, and
// certifies each merged epoch the instant its seals land: the paper's
// public verifiability made continuous, with no trust in the router or any
// single node.
//
// With -sketch RxWxD it speaks to a heavy-hitters server: -item sends a
// whole sketch contribution (one committed one-hot vector per count-min
// row, all in one batch frame), -query top:K / point:ITEM reads estimates
// back from the finalized, released sketch, and -audit-store re-verifies a
// sketch store offline — rows, roster containment, budget chain and merged
// seal.
//
// Examples:
//
//	vdpclient -addr 127.0.0.1:7001 -id 0 -choice 1 -bins 2 -coins 32
//	vdpclient -addr 127.0.0.1:7001 -sketch 4x16x1024 -id 7 -item 42 -coins 8
//	vdpclient -addr 127.0.0.1:7001 -query top:10
//	vdpclient -sketch 4x16x1024 -audit-store /var/lib/vdp -coins 8
//	vdpclient -addr 127.0.0.1:7001 -id 100 -batch 64 -choice 1 -bins 2 -coins 32
//	vdpclient -audit-store /var/lib/vdp -bins 2 -coins 32          # latest epoch
//	vdpclient -audit-store /var/lib/vdp -epoch 0 -bins 2 -coins 32 # specific epoch
//	vdpclient -follow 127.0.0.1:7410,127.0.0.1:7411,127.0.0.1:7412 -bins 2 -coins 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/sketch"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7001", "server address")
		id         = flag.Int("id", 0, "client ID (unique per deployment)")
		choice     = flag.Int("choice", 0, "input: the bit for -bins 1, else the bin index")
		bins       = flag.Int("bins", 1, "histogram bins (must match server)")
		coins      = flag.Int("coins", 64, "noise coins (must match server)")
		eps        = flag.Float64("eps", 1.0, "epsilon (must match server when -coins 0)")
		delta      = flag.Float64("delta", 1e-6, "delta (must match server when -coins 0)")
		timeout    = flag.Duration("timeout", 30*time.Second, "submission round-trip deadline (0 = none)")
		retries    = flag.Int("retries", 0, "redial attempts after a transient dial failure (0 = fail on first error)")
		backoff    = flag.Duration("backoff", 100*time.Millisecond, "initial retry backoff (doubles per attempt, capped at 2s)")
		batch      = flag.Int("batch", 0, "flood mode: send this many submissions (IDs -id..) in one batch frame")
		auditStore = flag.String("audit-store", "", "audit a server's board log directory offline instead of submitting")
		epoch      = flag.Int("epoch", -1, "epoch to audit with -audit-store (-1 = latest sealed)")
		follow     = flag.String("follow", "", "live-audit mode: comma-separated node addresses in shard order")
		followN    = flag.Int("follow-epochs", 1, "with -follow, exit after this many merged epochs verify (0 = follow forever)")
		interval   = flag.Duration("interval", 200*time.Millisecond, "with -follow, the poll interval between log fetches")
		sketchSp   = flag.String("sketch", "", "heavy-hitters deployment RxWxD (must match vdpserver -sketch; overrides -bins with W)")
		item       = flag.Int("item", -1, "with -sketch: contribute this item (one committed one-hot vector per row)")
		query      = flag.String("query", "", "query a finalized sketch server: \"top:K\" or \"point:ITEM\"")
	)
	flag.Parse()

	binsEff := *bins
	var layout sketch.Layout
	if *sketchSp != "" {
		var err error
		if layout, err = sketch.ParseLayout(*sketchSp); err != nil {
			log.Fatal(err)
		}
		binsEff = layout.Width
	}

	pub, err := vdp.Setup(vdp.Config{Provers: 1, Bins: binsEff, Coins: *coins, Epsilon: *eps, Delta: *delta})
	if err != nil {
		log.Fatal(err)
	}

	opts := transport.ClientOptions{
		Timeout: *timeout,
		Retry:   transport.RetryPolicy{Retries: *retries, Backoff: *backoff, MaxBackoff: 2 * time.Second},
	}
	if *follow != "" {
		followCluster(pub, cluster.SplitList(*follow, ","), *followN, *interval, opts)
		return
	}
	if *auditStore != "" {
		// The -timeout default is sized for a network round trip, not for
		// re-verifying a whole epoch; only bound the offline audit when the
		// operator set the flag explicitly.
		auditDeadline := time.Duration(0)
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "timeout" {
				auditDeadline = *timeout
			}
		})
		auditOffline(pub, layout, *auditStore, *epoch, auditDeadline)
		return
	}
	if *query != "" {
		querySketch(*addr, *query, opts)
		return
	}
	if *sketchSp != "" {
		if *item < 0 || *item >= layout.Domain {
			log.Fatalf("-sketch needs -item in [0, %d) (got %d)", layout.Domain, *item)
		}
		n := *batch
		if n == 0 {
			n = 1
		}
		submitSketch(pub, layout, *addr, *id, *item, n, opts)
		return
	}
	if *batch > 0 {
		submitBatch(pub, *addr, *id, *choice, *batch, opts)
		return
	}
	sub, err := pub.NewClientSubmission(*id, *choice, nil)
	if err != nil {
		log.Fatalf("building submission: %v", err)
	}

	// Dial retries ride the shared backoff policy; once connected, the
	// server verifies eagerly and answers on this connection, so each frame
	// leg gets the -timeout deadline.
	c, err := transport.DialClient(*addr, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	reply, err := c.RoundTrip(&transport.Frame{Kind: "submit", Sender: *id, Payload: pub.EncodeClientSubmission(sub)})
	if err != nil {
		log.Fatalf("submitting: %v", err)
	}
	switch reply.Kind {
	case "ack":
		fmt.Printf("client %d: submission accepted (%s)\n", *id, reply.Payload)
	case "error":
		log.Fatalf("client %d: server rejected submission: %s", *id, reply.Payload)
	default:
		log.Fatalf("client %d: unexpected reply %q", *id, reply.Kind)
	}
}

// submitBatch builds n full submissions and sends them in one
// "submit-batch" frame, then reports the server's per-client verdicts. One
// connection, one frame, one reply — the round trip a gateway aggregating
// many devices (or a load generator) pays per n clients.
func submitBatch(pub *vdp.Public, addr string, firstID, choice, n int, opts transport.ClientOptions) {
	if n > vdp.MaxBatchClients {
		log.Fatalf("-batch %d exceeds the per-frame limit of %d", n, vdp.MaxBatchClients)
	}
	subs, err := buildFrame(pub, n, func(i int) ([]*vdp.ClientSubmission, error) {
		sub, err := pub.NewClientSubmission(firstID+i, choice, nil)
		if err != nil {
			return nil, fmt.Errorf("building submission %d: %v", firstID+i, err)
		}
		return []*vdp.ClientSubmission{sub}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	ok, _, elapsed := sendBatch(pub, addr, firstID, subs, opts, "batch", "REJECTED")
	fmt.Printf("batch of %d: %d accepted, %d rejected in %v (%.0f submissions/sec)\n",
		n, ok, n-ok, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	if ok < n {
		os.Exit(1)
	}
}

// submitSketch builds n whole sketch contributions — layout.Rows committed
// one-hot vectors each, bucketed by the shared row hashes of -item — and
// sends them in one "submit-batch" frame. The server reassembles the rows
// into contributions and answers one verdict per contribution, so a budget
// refusal (or any other rejection) names the client, not a row.
func submitSketch(pub *vdp.Public, layout sketch.Layout, addr string, firstID, item, n int, opts transport.ClientOptions) {
	if n*layout.Rows > vdp.MaxBatchClients {
		log.Fatalf("-batch %d needs %d row submissions, exceeding the per-frame limit of %d", n, n*layout.Rows, vdp.MaxBatchClients)
	}
	subs, err := buildFrame(pub, n, func(i int) ([]*vdp.ClientSubmission, error) {
		c, err := pub.NewSketchContribution(layout, firstID+i, item, nil)
		if err != nil {
			return nil, fmt.Errorf("building contribution %d: %v", firstID+i, err)
		}
		return c.Rows, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	ok, n, _ := sendBatch(pub, addr, firstID, subs, opts, "contribution(s)", "REFUSED")
	fmt.Printf("%d of %d contribution(s) for item %d accepted (%d rows each)\n", ok, n, item, layout.Rows)
	if ok < n {
		os.Exit(1)
	}
}

// buildFrame builds the submissions of n clients for one "submit-batch"
// frame, client i's by build(i). Every client of a frame encodes to the same
// size, so the first client's encoding sizes the whole frame: a -batch over
// the transport's limit is refused before the other n-1 clients are proved.
func buildFrame(pub *vdp.Public, n int, build func(i int) ([]*vdp.ClientSubmission, error)) ([]*vdp.ClientSubmission, error) {
	var subs []*vdp.ClientSubmission
	for i := range n {
		one, err := build(i)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			if err := frameFits(pub, one, n); err != nil {
				return nil, err
			}
			subs = make([]*vdp.ClientSubmission, 0, n*len(one))
		}
		subs = append(subs, one...)
	}
	return subs, nil
}

// sendBatch sends subs in one "submit-batch" frame and prints a line per
// refused client, labelled refused; what names the frame in a fatal line. It
// returns how many verdicts came back, how many of them accept, and the time
// from sending the frame to decoding the verdicts.
func sendBatch(pub *vdp.Public, addr string, sender int, subs []*vdp.ClientSubmission, opts transport.ClientOptions, what, refused string) (ok, n int, elapsed time.Duration) {
	body := pub.EncodeSubmissionBatch(subs)
	c, err := transport.DialClient(addr, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	reply, err := c.RoundTrip(&transport.Frame{Kind: "submit-batch", Sender: sender, Payload: body})
	if err != nil {
		log.Fatalf("submitting %s: %v", what, err)
	}
	switch reply.Kind {
	case "batch-verdicts":
	case "error":
		log.Fatalf("server rejected %s: %s", what, reply.Payload)
	default:
		log.Fatalf("unexpected reply %q", reply.Kind)
	}
	verdicts, err := vdp.DecodeBatchVerdicts(reply.Payload)
	if err != nil {
		log.Fatalf("decoding verdicts: %v", err)
	}
	elapsed = time.Since(start)
	for _, v := range verdicts {
		if v.Accepted {
			ok++
		} else {
			fmt.Printf("client %d: %s: %s\n", v.ID, refused, v.Reason)
		}
	}
	return ok, len(verdicts), elapsed
}

// frameFits refuses a -batch of clients whose "submit-batch" frame would be
// over transport.MaxFrameSize, sizing the frame from one client's
// submissions (one, or a sketch contribution's rows), and names the largest
// -batch that fits.
func frameFits(pub *vdp.Public, one []*vdp.ClientSubmission, clients int) error {
	head := len(pub.EncodeSubmissionBatch(nil))
	per := len(pub.EncodeSubmissionBatch(one)) - head
	if size := head + clients*per; size > transport.MaxFrameSize {
		return fmt.Errorf("-batch %d encodes to a %d-byte frame, over the %d-byte frame limit; the largest -batch that fits is %d",
			clients, size, transport.MaxFrameSize, (transport.MaxFrameSize-head)/per)
	}
	return nil
}

// querySketch sends one "top:K" or "point:ITEM" query to a sketch-mode
// server and prints the estimates with their error bound. The server only
// answers once its epoch has finalized — estimates come from the released,
// publicly-auditable sketch, never from a board still in flight.
func querySketch(addr, spec string, opts transport.ClientOptions) {
	kind, argStr, ok := strings.Cut(spec, ":")
	if !ok {
		log.Fatalf("-query %q is not of the form top:K or point:ITEM", spec)
	}
	arg, err := strconv.Atoi(strings.TrimSpace(argStr))
	if err != nil || arg < 0 {
		log.Fatalf("-query %q: %q is not a non-negative integer", spec, argStr)
	}
	q := &vdp.SketchQuery{Arg: arg}
	switch strings.TrimSpace(kind) {
	case "top":
		q.Kind = vdp.SketchQueryTopK
	case "point":
		q.Kind = vdp.SketchQueryPoint
	default:
		log.Fatalf("-query %q: unknown kind %q (want top or point)", spec, kind)
	}
	c, err := transport.DialClient(addr, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	reply, err := c.RoundTrip(&transport.Frame{Kind: "sketch-query", Payload: vdp.EncodeSketchQuery(q)})
	if err != nil {
		log.Fatalf("querying: %v", err)
	}
	switch reply.Kind {
	case "sketch-estimates":
		items, err := vdp.DecodeItemEstimates(reply.Payload)
		if err != nil {
			log.Fatalf("decoding estimates: %v", err)
		}
		if q.Kind == vdp.SketchQueryPoint {
			for _, it := range items {
				fmt.Printf("item %d: estimate %.1f (±%.1f)\n", it.Item, it.Estimate, it.Bound)
			}
			return
		}
		fmt.Printf("top %d item(s):\n", len(items))
		for rank, it := range items {
			fmt.Printf("  #%-2d item %d: estimate %.1f (±%.1f)\n", rank+1, it.Item, it.Estimate, it.Bound)
		}
	case "error":
		log.Fatalf("server refused query: %s", reply.Payload)
	default:
		log.Fatalf("unexpected reply %q", reply.Kind)
	}
}

// auditOffline plays the third-party auditor against a server's store,
// entirely offline. The store is opened read-only: the auditor never
// creates, truncates, or otherwise touches the evidence, so a write-protected
// published copy audits fine. The layout picks the audit: one board log is
// replayed and a sealed epoch re-verified against the per-arrival records
// (vdp.AuditLog); a sharded server's manifest and segments are re-verified
// shard by shard, the shard map checked and the merged digest held to the
// manifest seal (vdp.AuditSegmentedLog); and a sketch store (layout.Rows >
// 0, from -sketch) the same way row by row, with every row's roster held to
// row 0's and the budget chain replayed (vdp.AuditSketchLog).
func auditOffline(pub *vdp.Public, layout sketch.Layout, dir string, epoch int, timeout time.Duration) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	which := fmt.Sprintf("epoch %d", epoch)
	if epoch < 0 {
		which = "latest merged-sealed epoch"
	}
	var what, checks string
	var audit func() error
	if layout.Rows == 0 && !store.IsSegmented(dir) {
		boardLog, err := store.OpenFileLogReadOnly(filepath.Join(dir, "board.log"))
		if err != nil {
			log.Fatal(err)
		}
		defer boardLog.Close()
		if tb := boardLog.Truncated(); tb > 0 {
			log.Printf("note: log ends in a %d-byte torn tail (interrupted append); auditing the intact prefix", tb)
		}
		sealed, err := vdp.SealedEpochs(boardLog)
		if err != nil {
			log.Fatalf("replaying board log: %v", err)
		}
		fmt.Printf("board log: %d records, sealed epochs %v\n", boardLog.Len(), sealed)
		if epoch < 0 && len(sealed) > 0 {
			// Resolve "latest" here so AuditLog needn't rescan the log for it.
			epoch = sealed[len(sealed)-1]
			which = fmt.Sprintf("latest sealed epoch (%d)", epoch)
		}
		what, checks = "offline audit", "every proof, coin and aggregate checks out,\nand the sealed transcript matches the per-arrival submission records"
		audit = func() error { return vdp.AuditLog(ctx, pub, boardLog, epoch, 0) }
	} else {
		seg, err := store.OpenSegmentedLogReadOnly(dir)
		if err != nil {
			log.Fatal(err)
		}
		defer seg.Close()
		if layout.Rows > 0 {
			fmt.Printf("sketch board log: %d row segments\n", seg.Shards())
			what, checks = "offline sketch audit", "every row's proofs, coins and aggregate check out,\nevery seated client traces to a row-0 admission, and the merged digest matches the manifest seal"
			audit = func() error { return vdp.AuditSketchLog(ctx, pub, layout, seg, epoch, 0) }
		} else {
			fmt.Printf("segmented board log: %d shards\n", seg.Shards())
			what, checks = "offline sharded audit", "every shard's proofs, coins and aggregate check out,\nevery client sits on its assigned shard, and the merged digest matches the manifest seal"
			audit = func() error { return vdp.AuditSegmentedLog(ctx, pub, seg, epoch, 0) }
		}
	}
	if err := audit(); err != nil {
		log.Fatalf("%s FAILED: %v", what, err)
	}
	fmt.Printf("%s of %s: PASSED — %s\n", what, which, checks)
}

// followCluster live-audits a running cluster: it tails every node's board
// log over RPC, verifying records as they are appended, and certifies
// merged epochs as their seals land. With epochs > 0 it exits successfully
// after that many certifications; any divergence — a bad proof, a forged
// record, disagreeing merged seals — kills it with the offending record's
// shard and offset.
func followCluster(pub *vdp.Public, addrs []string, epochs int, interval time.Duration, opts transport.ClientOptions) {
	backends := make([]*cluster.Backend, len(addrs))
	for i, addr := range addrs {
		backends[i] = cluster.NewBackend(cluster.SplitList(addr, "~"), i, opts)
	}
	f, err := cluster.NewTailFollower(pub, backends, vdp.TailOptions{})
	if err != nil {
		log.Fatalf("live audit: %v", err)
	}
	fmt.Printf("live audit: following %d shards\n", len(addrs))
	certified := 0
	for {
		n, err := f.Poll()
		if err != nil {
			// Evidence failures (bad proof, rewritten history, forked seal)
			// are fatal; a node being down is not — the cluster may be mid
			// failover, so keep polling and let the follower switch replicas.
			if errors.Is(err, vdp.ErrAuditFail) {
				log.Fatalf("live audit FAILED: %v", err)
			}
			fmt.Printf("live audit: shard unreachable (%v), retrying\n", err)
			time.Sleep(interval)
			continue
		}
		if n > 0 {
			recs := f.Records()
			total := 0
			for _, r := range recs {
				total += r
			}
			fmt.Printf("live audit: +%d records (%d total)\n", n, total)
		}
		for {
			epoch, digest, ready, err := f.VerifyNext()
			if err != nil {
				if errors.Is(err, vdp.ErrAuditFail) {
					log.Fatalf("live audit FAILED: %v", err)
				}
				fmt.Printf("live audit: shard unreachable (%v), retrying\n", err)
				break
			}
			if !ready {
				break
			}
			certified++
			fmt.Printf("live audit: merged epoch %d PASSED (digest %x..., %d shards)\n",
				epoch, digest[:8], len(addrs))
			if epochs > 0 && certified >= epochs {
				fmt.Printf("live audit: %d merged epoch(s) certified — every record verified at arrival\n", certified)
				return
			}
		}
		time.Sleep(interval)
	}
}
