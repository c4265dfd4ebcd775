#!/bin/sh
# check_allocs.sh — allocation regression guards for the hot paths.
#
# Each guard runs one Go benchmark and pins its allocs/op under a ceiling
# set within 10 % of the count reached (the counts repeat to ±1 from run to
# run), so a refactor that reintroduces an allocation per element fails CI;
# a change that legitimately moves a count re-measures and moves the
# ceiling with it:
#
#   commit        BenchmarkCommit/p256 (internal/pedersen). The fp256 fast
#                 backend brought this from 4161 allocs/op (math/big) to 1;
#                 the ceiling catches the big.Int path coming back.
#   decode        BenchmarkDecodeSubmissionBatch (internal/vdp): one
#                 64-submission batch frame of hinted members through the
#                 wire decoder. 2049 allocs/op (32 per submission, the
#                 hint cursor one of them); the ceiling catches a per-byte
#                 or per-element allocation pattern sneaking into the parse
#                 loop.
#   record-decode BenchmarkDecodeArrivalRecords/v2 (internal/vdp): 64
#                 bench-shape v2 arrival records (three points each)
#                 through decodeSubmission, the decode every board-log
#                 reader runs per record. 2048 allocs/op (32 per record,
#                 one more than the v1 decode: the hint cursor); the
#                 ceiling catches the hinted decode allocating per point.
#   seal-decode   BenchmarkDecodeProverSection/v2 (internal/vdp): a
#                 bench-shape v2 seal (one prover, one bin, 256 coins:
#                 768 queued decodes over 1280 hinted points) through
#                 decodeProverSection, the parse every seal reader runs.
#                 9776 allocs/op, the same as its v1 decode: each decode's
#                 hint cursor lives in its queue slot; the ceiling catches
#                 the hinted decode allocating per span or per point.
#   submit-batch  BenchmarkSubmitBatch (internal/vdp): a 64-client batch
#                 through Session.SubmitBatch (admission + folded Σ-OR
#                 verification, every share opening folded into the same
#                 check). 3131 allocs/op at two cores (≈49 per client; the
#                 frame's multi-exponentiation adds two per extra worker);
#                 the ceiling catches the batch path degenerating into
#                 per-client engine tasks, per-client encode buffers or
#                 per-claim scalar temporaries in the fold.
#   submit        BenchmarkSessionSubmit/eager (root package): 64 single
#                 arrivals through Session.Submit, each a batch of one
#                 through the same SubmitBatch. 5782 allocs/op (≈90 per
#                 arrival, ≈7 of them the one-element slices and the sync
#                 channel a batch of one still sets up); the ceiling
#                 catches the wrapper growing a per-arrival allocation
#                 storm of its own.
#
# Usage: check_allocs.sh [commit-ceiling]   (default 16)
set -eu
commit_ceiling="${1:-16}"
decode_ceiling=2150
record_ceiling=2250
seal_ceiling=10750
submit_ceiling=3400
single_ceiling=6100

fail=0

# check <label> <package> <bench-regex> <bench-name-prefix> <ceiling> <hint>
check() {
    label="$1"; pkg="$2"; bench="$3"; prefix="$4"; ceiling="$5"; hint="$6"
    out=$(go test "$pkg" -run '^$' -bench "$bench" -benchmem -benchtime 50x -count=1)
    echo "$out"
    allocs=$(echo "$out" | awk -v p="$prefix" '$1 ~ "^"p {
        for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i-1)
    }')
    if [ -z "$allocs" ]; then
        echo "alloc check FAILED: could not find ${prefix} allocs/op in output"
        fail=1
        return
    fi
    echo "${label} allocs/op: ${allocs} (ceiling ${ceiling})"
    if [ "$allocs" -gt "$ceiling" ]; then
        echo "alloc check FAILED: ${label} at ${allocs} allocs/op exceeds the ${ceiling} ceiling — ${hint}"
        fail=1
    fi
}

check "commit" ./internal/pedersen 'BenchmarkCommit/p256' 'BenchmarkCommit/p256' \
    "$commit_ceiling" "the big.Int path is back on the P-256 commit hot path"
check "decode" ./internal/vdp 'BenchmarkDecodeSubmissionBatch' 'BenchmarkDecodeSubmissionBatch' \
    "$decode_ceiling" "the batch-frame decoder is allocating per element again"
check "record-decode" ./internal/vdp 'BenchmarkDecodeArrivalRecords/v2$' 'BenchmarkDecodeArrivalRecords/v2' \
    "$record_ceiling" "the hinted arrival-record decode is allocating per point"
check "seal-decode" ./internal/vdp 'BenchmarkDecodeProverSection/v2$' 'BenchmarkDecodeProverSection/v2' \
    "$seal_ceiling" "the hinted seal decode is allocating per span or per point"
check "submit-batch" ./internal/vdp 'BenchmarkSubmitBatch$' 'BenchmarkSubmitBatch' \
    "$submit_ceiling" "SubmitBatch is back to per-client tasks or per-client buffers"
check "submit" . 'BenchmarkSessionSubmit/eager$' 'BenchmarkSessionSubmit/eager' \
    "$single_ceiling" "a single arrival costs far more than its share of a batch"

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "alloc checks passed"
