package vdp

import (
	"context"
	"os"
	"testing"

	"repro/internal/store"
)

// testdata/v1board.log is a board log written before arrival records carried
// point hints (record version 1: each submission record is the client's
// bytes alone), kept so that every reader stays able to read such logs
// (TestV1BoardStillReads). TestWriteV1Board wrote it, run at the last commit
// that wrote version-1 records:
//
//	VDP_WRITE_V1_BOARD=$PWD/internal/vdp/testdata/v1board.log go test ./internal/vdp -run '^TestWriteV1Board$'
//
// A later build writes version-2 records, so the test refuses to finish a log
// whose arrival records are not the client's bytes alone. The log holds two
// epochs: epoch 0 sealed with three clients; epoch 1 open, with two decided
// clients, a client withdrawn after its submission record landed (a store
// failure mid-batch) and a last arrival whose verdict a crash lost.
func TestWriteV1Board(t *testing.T) {
	path := os.Getenv("VDP_WRITE_V1_BOARD")
	if path == "" {
		t.Skip("set VDP_WRITE_V1_BOARD to the file to write")
	}
	ctx := context.Background()
	pub := testPublic(t, 2, 1, 4)
	log, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if log.Len() != 0 {
		t.Fatalf("%s already holds %d records", path, log.Len())
	}
	sess, err := NewSession(pub, SessionOptions{Rand: testSeed(71), Store: log, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	client := func(id int) *ClientSubmission {
		sub, err := pub.NewClientSubmission(id, id%2, testSeed(byte(170+id)))
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	for id := 0; id < 5; id++ {
		if id == 3 {
			if _, err := sess.Finalize(ctx); err != nil {
				t.Fatal(err)
			}
			if err := sess.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Submit(ctx, client(id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range []*store.Record{
		{Kind: RecordSubmission, Epoch: 1, Payload: pub.EncodeClientSubmission(client(5))},
		{Kind: RecordWithdraw, Epoch: 1, Payload: encodeWithdraw(5)},
		{Kind: RecordSubmission, Epoch: 1, Payload: pub.EncodeClientSubmission(client(6))},
	} {
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.Kind != RecordSubmission {
			continue
		}
		if _, hints := splitArrival(rec.Payload); len(hints) != 0 {
			t.Fatalf("record %d is not a version-1 arrival record (this build writes hints)", i)
		}
	}
}
