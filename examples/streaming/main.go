// Streaming: a long-lived aggregation service built on the Session API.
//
// A metrics endpoint receives client submissions one at a time — there is
// no moment when "all inputs" exist, so the batch Run shape does not fit.
// A Session admits each submission as it arrives, verifies its proofs
// eagerly on the worker pool (the client learns accept/reject immediately),
// and produces a verifiable release per epoch: Finalize closes the window,
// Reset opens the next one, and the same session keeps serving.
//
// The example streams three epochs of a yes/no health metric, slips one
// forged submission into the second epoch (rejected at the door, with a
// publicly attributable reason), and audits every epoch's transcript.
//
// Run with: go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"

	verifiabledp "repro"
)

func main() {
	pub, err := verifiabledp.Setup(verifiabledp.Config{Provers: 1, Bins: 1, Coins: 32})
	if err != nil {
		log.Fatal(err)
	}

	// One session, many releases. Submissions are verified as they arrive;
	// Finalize never re-checks a client.
	sess, err := verifiabledp.NewSession(pub, verifiabledp.SessionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Per-epoch report streams: epoch e gets 20 + 10·e reports, ~40% "yes".
	for epoch := 0; epoch < 3; epoch++ {
		n := 20 + 10*epoch
		trueCount := 0
		for i := 0; i < n; i++ {
			bit := 0
			if i%5 < 2 {
				bit = 1
				trueCount++
			}
			// In production the submission arrives over the network, built
			// remotely by Public.NewClientSubmission (see cmd/vdpclient).
			sub, err := pub.NewClientSubmission(i, bit, nil)
			if err != nil {
				log.Fatal(err)
			}
			if epoch == 1 && i == 7 {
				// A tampered submission: proof transplanted from another
				// client. Eager verification turns it away on the spot.
				forged, err := pub.NewClientSubmission(99, 1, nil)
				if err != nil {
					log.Fatal(err)
				}
				sub.Public.BitProof = forged.Public.BitProof
				trueCount -= bit
			}
			if err := sess.Submit(ctx, sub); err != nil {
				fmt.Printf("  [epoch %d] client %d rejected on arrival: %v\n", epoch, i, err)
			}
		}

		res, err := sess.Finalize(ctx)
		if err != nil {
			log.Fatalf("epoch %d finalize: %v", epoch, err)
		}
		if err := verifiabledp.Audit(pub, res.Transcript); err != nil {
			log.Fatalf("epoch %d audit: %v", epoch, err)
		}
		fmt.Printf("epoch %d: %d submitted, %d rejected — true=%d raw=%d estimate=%.1f (±%.1f) — audit PASSED\n",
			epoch, n, len(res.RejectedClients), trueCount,
			res.Release.Raw[0], res.Release.Estimate[0], res.Release.Stddev)

		if err := sess.Reset(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("three verifiable releases from one session — no batch restarts, no re-verification")
}
