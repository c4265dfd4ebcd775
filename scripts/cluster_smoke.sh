#!/bin/bash
# cluster_smoke.sh — multi-process cluster integration smoke.
#
# Boots a real 3-node cluster as separate OS processes: three vdpserver
# backends in node mode (one shard each, durable board + merged-seal logs),
# one vdprouter in front. Floods batched submissions through vdpclient
# against the router, lets the router drive the finalize-merge handshake on
# shutdown, then runs the cross-node audit (vdprouter -audit) against the
# restarted backends — the same sequence an operator runs, so a regression
# anywhere in the wire path, the routing, the merge RPC, or the audit
# fetch fails here even when the in-process tests pass.
#
# Two more lanes follow the main one: a failover lane (replica pairs, the
# primary of shard 0 SIGKILLed mid-flood) and a standalone lane (vdpserver
# without -shard-index: -shards 2 over a durable store, SIGKILLed mid-epoch,
# restarted, released, audited offline) — so every serving mode of the one
# frame dispatch has a binary-level fence.
#
# Usage: scripts/cluster_smoke.sh [clients] [batch]
set -eu

CLIENTS="${1:-48}"
BATCH="${2:-16}"
NODES=3
BINS=2
COINS=8

WORK="$(mktemp -d)"
BIN="$WORK/bin"
mkdir -p "$BIN"
PIDS=""

cleanup() {
    # shellcheck disable=SC2086
    [ -n "$PIDS" ] && kill $PIDS 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

say() { printf '\n== %s\n' "$*"; }

say "building binaries"
go build -o "$BIN/vdpserver" ./cmd/vdpserver
go build -o "$BIN/vdprouter" ./cmd/vdprouter
go build -o "$BIN/vdpclient" ./cmd/vdpclient

# Wait until a TCP endpoint accepts connections (the binaries log their
# listen line before serving, so poll the port itself).
wait_port() {
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then
            exec 3>&- 3<&- 2>/dev/null || true
            return 0
        fi
        sleep 0.1
    done
    echo "port $1 never came up" >&2
    return 1
}

say "booting $NODES backend nodes"
BACKENDS=""
i=0
while [ "$i" -lt "$NODES" ]; do
    port=$((7410 + i))
    mkdir -p "$WORK/node$i"
    "$BIN/vdpserver" -addr "127.0.0.1:$port" -store-dir "$WORK/node$i" \
        -shard-index "$i" -shard-count "$NODES" \
        -bins "$BINS" -coins "$COINS" >"$WORK/node$i.log" 2>&1 &
    PIDS="$PIDS $!"
    BACKENDS="${BACKENDS:+$BACKENDS,}127.0.0.1:$port"
    i=$((i + 1))
done
i=0
while [ "$i" -lt "$NODES" ]; do wait_port $((7410 + i)); i=$((i + 1)); done

say "booting router in front of $BACKENDS"
"$BIN/vdprouter" -addr 127.0.0.1:7400 -backends "$BACKENDS" \
    -clients "$CLIENTS" -bins "$BINS" -coins "$COINS" \
    -retries 5 -backoff 50ms >"$WORK/router.log" 2>&1 &
ROUTER_PID=$!
PIDS="$PIDS $ROUTER_PID"
wait_port 7400

say "starting live audit tail against the backend nodes"
# The follower attaches before any submission exists, verifies every record
# at arrival while the flood runs, and exits 0 once it has certified the
# merged epoch — the vdpclient -follow mode an external auditor would run.
"$BIN/vdpclient" -follow "$BACKENDS" -follow-epochs 1 \
    -bins "$BINS" -coins "$COINS" -retries 3 -backoff 50ms \
    >"$WORK/follow.log" 2>&1 &
FOLLOW_PID=$!
PIDS="$PIDS $FOLLOW_PID"

say "flooding $CLIENTS submissions in batches of $BATCH through the router"
id=0
while [ "$id" -lt "$CLIENTS" ]; do
    n=$BATCH
    [ $((id + n)) -gt "$CLIENTS" ] && n=$((CLIENTS - id))
    "$BIN/vdpclient" -addr 127.0.0.1:7400 -id "$id" -batch "$n" \
        -choice $((id % BINS)) -bins "$BINS" -coins "$COINS" \
        -retries 3 -backoff 50ms
    id=$((id + n))
done

say "router reached its target; waiting for finalize-merge"
# The router exits on its own after -clients accepted submissions: it seals
# every node, merges the transcripts in shard order, replicates the merged
# seal, and self-audits before exiting 0.
router_ok=0
for _ in $(seq 1 300); do
    if ! kill -0 "$ROUTER_PID" 2>/dev/null; then router_ok=1; break; fi
    sleep 0.1
done
if [ "$router_ok" -ne 1 ]; then
    echo "router did not finalize after the flood" >&2
    cat "$WORK/router.log" >&2
    exit 1
fi
if ! wait "$ROUTER_PID"; then
    echo "router exited non-zero" >&2
    cat "$WORK/router.log" >&2
    exit 1
fi
grep -E "merged transcript audit: PASSED" "$WORK/router.log" || {
    echo "router log missing merged-audit line" >&2
    cat "$WORK/router.log" >&2
    exit 1
}

say "waiting for the live audit tail to certify the merged epoch"
follow_ok=0
for _ in $(seq 1 300); do
    if ! kill -0 "$FOLLOW_PID" 2>/dev/null; then follow_ok=1; break; fi
    sleep 0.1
done
if [ "$follow_ok" -ne 1 ] || ! wait "$FOLLOW_PID"; then
    echo "live audit tail did not certify the merged epoch" >&2
    cat "$WORK/follow.log" >&2
    exit 1
fi
grep -E "live audit: merged epoch 0 PASSED" "$WORK/follow.log" || {
    echo "follow log missing live-audit certification line" >&2
    cat "$WORK/follow.log" >&2
    exit 1
}

say "cross-node audit against the live backends"
"$BIN/vdprouter" -backends "$BACKENDS" -bins "$BINS" -coins "$COINS" -audit \
    | tee "$WORK/audit.log"
grep -q "cross-node audit: PASSED" "$WORK/audit.log"

say "offline per-node audit of each backend's durable board log"
i=0
while [ "$i" -lt "$NODES" ]; do
    "$BIN/vdpclient" -audit-store "$WORK/node$i" -bins "$BINS" -coins "$COINS"
    i=$((i + 1))
done

# ---------------------------------------------------------------------------
# Failover lane: two shards as primary~standby replica pairs, every ack
# mirrored to the standby before the client hears it. Halfway through the
# flood shard 0's primary is killed — no operator action follows: the router
# must promote the standby through the fenced handshake and keep admitting,
# the live follower must ride the replica switch and still certify the
# merged epoch, and the promoted standby's durable store must pass the
# offline audit as an ordinary node directory.
# ---------------------------------------------------------------------------
RSHARDS=2
RCLIENTS=$((CLIENTS / 2))
[ "$RCLIENTS" -lt 8 ] && RCLIENTS=8
RBATCH=$((RCLIENTS / 4))

say "failover lane: booting $RSHARDS replica pairs (primary~standby, mirrored acks)"
RSPECS=""
i=0
while [ "$i" -lt "$RSHARDS" ]; do
    pport=$((7420 + i))
    sport=$((7430 + i))
    mkdir -p "$WORK/rpr$i" "$WORK/rsb$i"
    "$BIN/vdpserver" -addr "127.0.0.1:$sport" -store-dir "$WORK/rsb$i" \
        -shard-index "$i" -shard-count "$RSHARDS" \
        -replica-of "127.0.0.1:$pport" \
        -bins "$BINS" -coins "$COINS" >"$WORK/rsb$i.log" 2>&1 &
    PIDS="$PIDS $!"
    wait_port "$sport"
    "$BIN/vdpserver" -addr "127.0.0.1:$pport" -store-dir "$WORK/rpr$i" \
        -shard-index "$i" -shard-count "$RSHARDS" \
        -standby "127.0.0.1:$sport" \
        -bins "$BINS" -coins "$COINS" >"$WORK/rpr$i.log" 2>&1 &
    pid=$!
    PIDS="$PIDS $pid"
    [ "$i" -eq 0 ] && RPR0_PID=$pid
    wait_port "$pport"
    RSPECS="${RSPECS:+$RSPECS,}127.0.0.1:$pport~127.0.0.1:$sport"
    i=$((i + 1))
done

say "failover lane: booting router in front of $RSPECS"
"$BIN/vdprouter" -addr 127.0.0.1:7401 -backends "$RSPECS" \
    -clients "$RCLIENTS" -bins "$BINS" -coins "$COINS" \
    -retries 5 -backoff 50ms -probe 200ms >"$WORK/rrouter.log" 2>&1 &
RROUTER_PID=$!
PIDS="$PIDS $RROUTER_PID"
wait_port 7401

say "failover lane: live audit tail against the replica pairs"
"$BIN/vdpclient" -follow "$RSPECS" -follow-epochs 1 \
    -bins "$BINS" -coins "$COINS" -retries 3 -backoff 50ms \
    >"$WORK/rfollow.log" 2>&1 &
RFOLLOW_PID=$!
PIDS="$PIDS $RFOLLOW_PID"

say "failover lane: flooding $RCLIENTS submissions, killing shard 0's primary mid-flood"
id=0
killed=0
while [ "$id" -lt "$RCLIENTS" ]; do
    if [ "$killed" -eq 0 ] && [ "$id" -ge $((RCLIENTS / 2)) ]; then
        # SIGKILL: a crash, not a drain — a SIGTERM'd primary keeps answering
        # (with errors) through its grace window, which is maintenance, not
        # the failure this lane drills.
        kill -9 "$RPR0_PID" 2>/dev/null || true
        killed=1
        echo "-- killed shard 0 primary (pid $RPR0_PID) after $id submissions"
    fi
    n=$RBATCH
    [ $((id + n)) -gt "$RCLIENTS" ] && n=$((RCLIENTS - id))
    "$BIN/vdpclient" -addr 127.0.0.1:7401 -id "$id" -batch "$n" \
        -choice $((id % BINS)) -bins "$BINS" -coins "$COINS" \
        -retries 5 -backoff 100ms
    id=$((id + n))
done

say "failover lane: waiting for the router to finalize across the failover"
rrouter_ok=0
for _ in $(seq 1 300); do
    if ! kill -0 "$RROUTER_PID" 2>/dev/null; then rrouter_ok=1; break; fi
    sleep 0.1
done
if [ "$rrouter_ok" -ne 1 ] || ! wait "$RROUTER_PID"; then
    echo "router did not finalize across the failover" >&2
    cat "$WORK/rrouter.log" >&2
    exit 1
fi
grep -E "merged transcript audit: PASSED" "$WORK/rrouter.log" || {
    echo "failover router log missing merged-audit line" >&2
    cat "$WORK/rrouter.log" >&2
    exit 1
}

say "failover lane: requiring promotion evidence from the standby"
grep -E "standby PROMOTED" "$WORK/rsb0.log" || {
    echo "shard 0's standby was never promoted" >&2
    cat "$WORK/rsb0.log" >&2
    exit 1
}
if grep -E "standby PROMOTED" "$WORK/rsb1.log" >/dev/null 2>&1; then
    echo "the healthy shard's standby was promoted too" >&2
    exit 1
fi

say "failover lane: waiting for the live audit tail (it rode through the failover)"
rfollow_ok=0
for _ in $(seq 1 300); do
    if ! kill -0 "$RFOLLOW_PID" 2>/dev/null; then rfollow_ok=1; break; fi
    sleep 0.1
done
if [ "$rfollow_ok" -ne 1 ] || ! wait "$RFOLLOW_PID"; then
    echo "live audit tail did not certify the failed-over epoch" >&2
    cat "$WORK/rfollow.log" >&2
    exit 1
fi
grep -E "live audit: merged epoch 0 PASSED" "$WORK/rfollow.log" || {
    echo "failover follow log missing live-audit certification line" >&2
    cat "$WORK/rfollow.log" >&2
    exit 1
}

say "failover lane: cross-node audit across the surviving topology"
# Shard 0 is now served by its promoted standby; the audit lists it directly.
"$BIN/vdprouter" -backends "127.0.0.1:7430,127.0.0.1:7421" \
    -bins "$BINS" -coins "$COINS" -audit | tee "$WORK/raudit.log"
grep -q "cross-node audit: PASSED" "$WORK/raudit.log"

say "failover lane: offline audit of the promoted standby's durable store"
"$BIN/vdpclient" -audit-store "$WORK/rsb0" -bins "$BINS" -coins "$COINS"
"$BIN/vdpclient" -audit-store "$WORK/rpr1" -bins "$BINS" -coins "$COINS"

# ---------------------------------------------------------------------------
# Standalone lane: vdpserver without -shard-index — the curator that counts
# to -clients, finalizes on its own and prints the release. Half the epoch is
# submitted, the server is SIGKILLed, restarted on the same -store-dir (the
# segmented layout is adopted from its manifest, so -shards is not repeated),
# fed the other half, and must release, self-audit and leave a store the
# offline auditor accepts.
# ---------------------------------------------------------------------------
SPORT=7440
SDIR="$WORK/standalone"

standalone_submit() {
    for id in "$@"; do
        "$BIN/vdpclient" -addr "127.0.0.1:$SPORT" -id "$id" \
            -choice $((id % BINS)) -bins "$BINS" -coins "$COINS" \
            -retries 5 -backoff 100ms
    done
}

say "standalone lane: vdpserver -clients 6 -shards 2, three submits, kill -9"
"$BIN/vdpserver" -addr "127.0.0.1:$SPORT" -clients 6 -shards 2 -store-dir "$SDIR" \
    -bins "$BINS" -coins "$COINS" >"$WORK/standalone0.log" 2>&1 &
SPID=$!
PIDS="$PIDS $SPID"
wait_port "$SPORT"
standalone_submit 0 1 2
kill -9 "$SPID" 2>/dev/null || true
wait "$SPID" 2>/dev/null || true

say "standalone lane: restart on the same store, three more submits"
"$BIN/vdpserver" -addr "127.0.0.1:$SPORT" -clients 6 -store-dir "$SDIR" \
    -bins "$BINS" -coins "$COINS" >"$WORK/standalone1.log" 2>&1 &
SPID=$!
PIDS="$PIDS $SPID"
wait_port "$SPORT"
grep -E "resuming epoch 0 with 3 " "$WORK/standalone1.log" || {
    echo "restarted standalone server did not resume the interrupted epoch" >&2
    cat "$WORK/standalone1.log" >&2
    exit 1
}
standalone_submit 3 4 5
standalone_ok=0
for _ in $(seq 1 300); do
    if ! kill -0 "$SPID" 2>/dev/null; then standalone_ok=1; break; fi
    sleep 0.1
done
if [ "$standalone_ok" -ne 1 ] || ! wait "$SPID"; then
    echo "standalone server did not release after the sixth submission" >&2
    cat "$WORK/standalone1.log" >&2
    exit 1
fi
for want in "verified release:" "merged transcript audit: PASSED"; do
    grep -E "$want" "$WORK/standalone1.log" || {
        echo "standalone server log missing \"$want\"" >&2
        cat "$WORK/standalone1.log" >&2
        exit 1
    }
done

say "standalone lane: offline audit of the recovered store"
"$BIN/vdpclient" -audit-store "$SDIR" -bins "$BINS" -coins "$COINS" | tee "$WORK/saudit.log"
grep -q "offline sharded audit of .*: PASSED" "$WORK/saudit.log"

say "cluster smoke passed: $CLIENTS clients across $NODES nodes, merged, audited; failover lane promoted shard 0's standby mid-flood with zero lost submissions; standalone lane recovered a killed -shards 2 curator and released"
