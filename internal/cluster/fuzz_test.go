package cluster

import (
	"bytes"
	"testing"

	"repro/internal/store"
)

// FuzzRPC drives every cluster RPC codec from one target: the first byte
// picks the codec, the rest is its payload. A node decodes these straight off
// a socket, so a decoder may refuse anything but must never panic or size an
// allocation from a count, and whatever it accepts must re-encode to exactly
// the payload bytes.
func FuzzRPC(f *testing.F) {
	recs := []*store.Record{{Kind: 1, Epoch: 0, Payload: []byte("alpha")}, {Kind: 3, Epoch: 2}}
	must := func(b []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	codecs := []struct {
		seeds     [][]byte
		roundTrip func(b []byte) ([]byte, error)
	}{
		{[][]byte{encodeStatus(&NodeStatus{Shard: 2, Shards: 5, Epoch: 3, Submitted: 40, Accepted: 37, Durable: true, Standby: true, LogLen: 9})},
			func(b []byte) ([]byte, error) {
				st, err := decodeStatus(b)
				if err != nil {
					return nil, err
				}
				return encodeStatus(st), nil
			}},
		{[][]byte{encodeEpochReq(7)}, func(b []byte) ([]byte, error) {
			epoch, err := decodeEpochReq(b)
			return encodeEpochReq(epoch), err
		}},
		{[][]byte{encodeTranscriptReply(3, []byte("transcript"))}, func(b []byte) ([]byte, error) {
			epoch, tr, err := decodeTranscriptReply(b)
			return encodeTranscriptReply(epoch, tr), err
		}},
		{[][]byte{encodeMergedSeal(4, 3, bytes.Repeat([]byte{0xab}, 32))}, func(b []byte) ([]byte, error) {
			epoch, shards, digest, err := decodeMergedSeal(b)
			return encodeMergedSeal(epoch, shards, digest), err
		}},
		{[][]byte{encodeMergedGetReq(-1), encodeMergedGetReq(9)}, func(b []byte) ([]byte, error) {
			epoch, latest, err := decodeMergedGetReq(b)
			if latest {
				epoch = -1
			}
			return encodeMergedGetReq(epoch), err
		}},
		{[][]byte{must(encodeLogReply(recs)), {rpcVersion, 0xff, 0xff, 0xff, 0xff}}, func(b []byte) ([]byte, error) {
			log, err := decodeLogReply(b)
			if err != nil {
				return nil, err
			}
			got, err := log.Snapshot()
			if err != nil {
				return nil, err
			}
			return encodeLogReply(got)
		}},
		{[][]byte{must(encodeReplicate(1, 2, ReplLogSeal, 5, recs)), must(encodeReplicate(0, 1, ReplLogBoard, 0, nil))},
			func(b []byte) ([]byte, error) {
				shard, shards, logID, start, got, err := decodeReplicate(b)
				if err != nil {
					return nil, err
				}
				return encodeReplicate(shard, shards, logID, start, got)
			}},
		{[][]byte{encodeReplicateOK(ReplLogSeal, 42)}, func(b []byte) ([]byte, error) {
			logID, n, err := decodeReplicateOK(b)
			return encodeReplicateOK(logID, n), err
		}},
		{[][]byte{encodePromoteReq(-1, 10), encodePromoteReq(3, 0)}, func(b []byte) ([]byte, error) {
			epoch, minLen, err := decodePromoteReq(b)
			return encodePromoteReq(epoch, minLen), err
		}},
	}
	for i, c := range codecs {
		for _, seed := range c.seeds {
			f.Add(append([]byte{byte(i)}, seed...))
			f.Add(append([]byte{byte(i)}, seed[:len(seed)-1]...))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		sel := int(b[0]) % len(codecs)
		again, err := codecs[sel].roundTrip(b[1:])
		if err == nil && !bytes.Equal(again, b[1:]) {
			t.Fatalf("codec %d: accepted payload is not canonical: %x re-encodes to %x", sel, b[1:], again)
		}
	})
}
