#!/usr/bin/env bash
# Boot a 4-node Setchain TCP cluster on localhost, run the remote
# quorum-client example against it, and tear everything down — with a hard
# timeout so a wedged cluster can never hang CI. Used by the `smoke_tcp_cluster`
# ctest target and the CI "TCP cluster smoke" step.
#
#   usage: tcp_cluster_smoke.sh <setchain_node> <remote_quorum_client> \
#          [setchain_loadgen] [algo]
#
# Every phase boots a fresh cluster (the daemons order blocks by consensus).
# When a setchain_loadgen binary is given, phase 5 additionally drives a
# 60-second open-loop rollup load against a fresh cluster.
set -euo pipefail

NODE_BIN=${1:?path to setchain_node}
CLIENT_BIN=${2:?path to remote_quorum_client}
LOADGEN_BIN=${3:-}
ALGO=${4:-hashchain}

N=4
F=1
SEED=42
HOST=127.0.0.1
# Randomized base port keeps parallel ctest invocations off each other.
PORT_BASE=$(( 21000 + RANDOM % 20000 ))
LOG_DIR=$(mktemp -d)
PIDS=()

cleanup() {
  local code=$?
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  for pid in "${PIDS[@]:-}"; do
    wait "$pid" 2>/dev/null || true
  done
  if [ "$code" -ne 0 ]; then
    echo "--- daemon logs (${LOG_DIR}) ---" >&2
    tail -n 20 "${LOG_DIR}"/*node*.log >&2 || true
    if [ -s "${LOG_DIR}/loadgen.json" ]; then
      echo "--- loadgen report ---" >&2
      cat "${LOG_DIR}/loadgen.json" >&2 || true
    fi
  fi
  rm -rf "${LOG_DIR}" "${DATA_DIR:-}"
  exit "$code"
}
trap cleanup EXIT INT TERM

PEER_ARGS=()
for i in $(seq 0 $((N - 1))); do
  PEER_ARGS+=(--peer "${HOST}:$((PORT_BASE + i))")
done

for i in $(seq 0 $((N - 1))); do
  "$NODE_BIN" --id "$i" --n "$N" --f "$F" --algo "$ALGO" --seed "$SEED" \
    --timeout-propose-ms 800 \
    --listen "${HOST}:$((PORT_BASE + i))" "${PEER_ARGS[@]}" \
    --collector 8 --collector-timeout-ms 150 --block-interval-ms 120 \
    >"${LOG_DIR}/node${i}.log" 2>&1 &
  PIDS+=($!)
done

NODE_ARGS=()
for i in $(seq 0 $((N - 1))); do
  NODE_ARGS+=(--node "${HOST}:$((PORT_BASE + i))")
done

# Hard timeout: the client self-checks (adds, quorum get, f+1 commit proof)
# and exits nonzero on any failure or stall.
timeout --kill-after=10 90 \
  "$CLIENT_BIN" --n "$N" --f "$F" --algo "$ALGO" --seed "$SEED" \
  --count 24 --wait-seconds 45 "${NODE_ARGS[@]}"

echo "tcp_cluster_smoke: PASS (${ALGO}, n=${N})"

# ---- Phase 2: proposer SIGKILL --------------------------------------------
# Fresh cluster on fresh ports. Commit part of a workload, then SIGKILL the
# round-0 proposer of the next heights (node 1 = proposer_for(1,0)) and
# demand a second client run — minting FRESH element ids via --first-seq —
# still commits end to end: the paper's f-tolerance.
for pid in "${PIDS[@]}"; do
  kill "$pid" 2>/dev/null || true
done
for pid in "${PIDS[@]}"; do
  wait "$pid" 2>/dev/null || true
done
PIDS=()

PORT_BASE=$(( PORT_BASE + 100 ))
PEER_ARGS=()
for i in $(seq 0 $((N - 1))); do
  PEER_ARGS+=(--peer "${HOST}:$((PORT_BASE + i))")
done

declare -A NODE_PID
for i in $(seq 0 $((N - 1))); do
  "$NODE_BIN" --id "$i" --n "$N" --f "$F" --algo "$ALGO" --seed "$SEED" \
    --timeout-propose-ms 800 \
    --listen "${HOST}:$((PORT_BASE + i))" "${PEER_ARGS[@]}" \
    --collector 8 --collector-timeout-ms 150 --block-interval-ms 120 \
    >"${LOG_DIR}/failover_node${i}.log" 2>&1 &
  PIDS+=($!)
  NODE_PID[$i]=$!
done

NODE_ARGS=()
for i in $(seq 0 $((N - 1))); do
  NODE_ARGS+=(--node "${HOST}:$((PORT_BASE + i))")
done

# First client run against the healthy cluster.
timeout --kill-after=10 90 \
  "$CLIENT_BIN" --n "$N" --f "$F" --algo "$ALGO" --seed "$SEED" \
  --count 12 --wait-seconds 45 "${NODE_ARGS[@]}"

# SIGKILL the round-0 proposer mid-cluster — no shutdown handler runs.
kill -9 "${NODE_PID[1]}" 2>/dev/null || true
wait "${NODE_PID[1]}" 2>/dev/null || true

# Second run with fresh element ids: the survivors must round-skip past the
# corpse at every height it would have proposed and still commit everything.
timeout --kill-after=10 90 \
  "$CLIENT_BIN" --n "$N" --f "$F" --algo "$ALGO" --seed "$SEED" \
  --count 12 --first-seq 12 --wait-seconds 60 "${NODE_ARGS[@]}"

echo "tcp_cluster_smoke: PASS (${ALGO}, n=${N}, proposer SIGKILL)"

# ---- Phase 3: durable storage + whole-cluster SIGKILL restart -------------
# Fresh cluster with per-node --data-dir: commit a workload, then
# SIGKILL EVERY node (no shutdown handler — the WAL tail is all that
# survives), restart all four from their data dirs on the same ports, and
# demand a second client run commit end to end WITHOUT --first-seq: the
# client must derive fresh element ids from the recovered quorum view, which
# only works if recovery actually restored the committed set from disk.
for pid in "${PIDS[@]}"; do
  kill "$pid" 2>/dev/null || true
done
for pid in "${PIDS[@]}"; do
  wait "$pid" 2>/dev/null || true
done
PIDS=()

PORT_BASE=$(( PORT_BASE + 100 ))
DATA_DIR=$(mktemp -d)
PEER_ARGS=()
for i in $(seq 0 $((N - 1))); do
  PEER_ARGS+=(--peer "${HOST}:$((PORT_BASE + i))")
  mkdir -p "${DATA_DIR}/node${i}"
done

# NODE_PID is the (already declared) pid map from phase 2; reuse it.
boot_durable() {
  local phase=$1
  NODE_PID=()
  for i in $(seq 0 $((N - 1))); do
    "$NODE_BIN" --id "$i" --n "$N" --f "$F" --algo "$ALGO" --seed "$SEED" \
      --timeout-propose-ms 800 \
      --listen "${HOST}:$((PORT_BASE + i))" "${PEER_ARGS[@]}" \
      --collector 8 --collector-timeout-ms 150 --block-interval-ms 120 \
      --data-dir "${DATA_DIR}/node${i}" --snapshot-epochs 2 \
      >"${LOG_DIR}/durable_${phase}_node${i}.log" 2>&1 &
    PIDS+=($!)
    NODE_PID[$i]=$!
  done
}

boot_durable boot1

NODE_ARGS=()
for i in $(seq 0 $((N - 1))); do
  NODE_ARGS+=(--node "${HOST}:$((PORT_BASE + i))")
done

# First run fills the ledger (and, at --snapshot-epochs 2, the snapshots).
timeout --kill-after=10 90 \
  "$CLIENT_BIN" --n "$N" --f "$F" --algo "$ALGO" --seed "$SEED" \
  --count 16 --wait-seconds 45 "${NODE_ARGS[@]}"

# SIGKILL the entire cluster: nothing survives but the data dirs.
for i in $(seq 0 $((N - 1))); do
  kill -9 "${NODE_PID[$i]}" 2>/dev/null || true
  wait "${NODE_PID[$i]}" 2>/dev/null || true
done
PIDS=()

boot_durable boot2

# Every node must report a recovery with state (snapshot or WAL replay).
sleep 2
for i in $(seq 0 $((N - 1))); do
  if ! grep -q "recovered:" "${LOG_DIR}/durable_boot2_node${i}.log"; then
    echo "FAIL: node ${i} did not log a recovery line" >&2
    exit 1
  fi
done

# Second run with NO --first-seq: the client derives it from the recovered
# view — fresh ids mint and commit only if the restart restored everything.
timeout --kill-after=10 120 \
  "$CLIENT_BIN" --n "$N" --f "$F" --algo "$ALGO" --seed "$SEED" \
  --count 16 --wait-seconds 60 "${NODE_ARGS[@]}" \
  | tee "${LOG_DIR}/durable_client2.log"

if ! grep -q "derived --first-seq 16" "${LOG_DIR}/durable_client2.log"; then
  echo "FAIL: client did not derive --first-seq 16 from the recovered view" >&2
  exit 1
fi

echo "tcp_cluster_smoke: PASS (${ALGO}, n=${N}, durable whole-cluster restart)"

# ---- Phase 4: one Byzantine node ------------------------------------------
# Fresh cluster where node 1 — the round-0 proposer of height 1 —
# runs --byz-consensus (its honest ledger behind the ByzantineTransport
# decorator): it equivocates proposals, double-votes, forges votes
# and serves junk sync, all signed with its real key. The client workload
# must still commit end to end on the honest majority, and the honest nodes'
# shutdown summaries must report the equivocator detected and masked.
for pid in "${PIDS[@]}"; do
  kill "$pid" 2>/dev/null || true
done
for pid in "${PIDS[@]}"; do
  wait "$pid" 2>/dev/null || true
done
PIDS=()

PORT_BASE=$(( PORT_BASE + 100 ))
PEER_ARGS=()
for i in $(seq 0 $((N - 1))); do
  PEER_ARGS+=(--peer "${HOST}:$((PORT_BASE + i))")
done

for i in $(seq 0 $((N - 1))); do
  BYZ_ARGS=()
  if [ "$i" -eq 1 ]; then
    BYZ_ARGS=(--byz-consensus)
  fi
  "$NODE_BIN" --id "$i" --n "$N" --f "$F" --algo "$ALGO" --seed "$SEED" \
    --timeout-propose-ms 800 "${BYZ_ARGS[@]}" \
    --listen "${HOST}:$((PORT_BASE + i))" "${PEER_ARGS[@]}" \
    --collector 8 --collector-timeout-ms 150 --block-interval-ms 120 \
    >"${LOG_DIR}/byz_node${i}.log" 2>&1 &
  PIDS+=($!)
done

NODE_ARGS=()
for i in $(seq 0 $((N - 1))); do
  NODE_ARGS+=(--node "${HOST}:$((PORT_BASE + i))")
done

timeout --kill-after=10 120 \
  "$CLIENT_BIN" --n "$N" --f "$F" --algo "$ALGO" --seed "$SEED" \
  --count 12 --wait-seconds 60 "${NODE_ARGS[@]}"

# Graceful stop so every daemon prints its consensus counters, then demand
# that at least one honest node detected and masked the equivocator.
for pid in "${PIDS[@]}"; do
  kill "$pid" 2>/dev/null || true
done
for pid in "${PIDS[@]}"; do
  wait "$pid" 2>/dev/null || true
done
PIDS=()

DETECTED=0
for i in 0 2 3; do
  if grep -E "consensus: equivocations=[1-9][0-9]* masked=[1-9]" \
      "${LOG_DIR}/byz_node${i}.log" >/dev/null; then
    DETECTED=1
  fi
done
if [ "$DETECTED" -ne 1 ]; then
  echo "FAIL: no honest node reported the Byzantine peer detected+masked" >&2
  grep -h "consensus:" "${LOG_DIR}"/byz_node*.log >&2 || true
  exit 1
fi

echo "tcp_cluster_smoke: PASS (${ALGO}, n=${N}, Byzantine node masked)"

# ---- Phase 5: 60-second open-loop rollup load -----------------------------
# Fresh cluster, then the load harness: an open-loop client fleet
# (Poisson arrivals, hundreds of concurrent TCP sessions) submitting L2
# token txs while the rollup operator/verifier agents post and audit epoch
# commitments through the same cluster. The loadgen's --check gate fails on
# shed arrivals, framing damage, or a bad rollup verdict; afterwards every
# daemon's shutdown counters must report zero drops and zero decode errors,
# so generator overload cannot masquerade as a pass.
if [ -n "${LOADGEN_BIN}" ]; then
  for pid in "${PIDS[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  for pid in "${PIDS[@]}"; do
    wait "$pid" 2>/dev/null || true
  done
  PIDS=()

  PORT_BASE=$(( PORT_BASE + 100 ))
  PEER_ARGS=()
  for i in $(seq 0 $((N - 1))); do
    PEER_ARGS+=(--peer "${HOST}:$((PORT_BASE + i))")
  done

  # Bigger collectors than the earlier phases: at hundreds of elements/sec a
  # tiny collector mints an epoch every few milliseconds, and since the rollup
  # operator posts one commitment per tx-bearing epoch, that amplifies the
  # element stream and bloats every quorum-view poll the verifier makes.
  for i in $(seq 0 $((N - 1))); do
    "$NODE_BIN" --id "$i" --n "$N" --f "$F" --algo "$ALGO" --seed "$SEED" \
      --timeout-propose-ms 800 \
      --listen "${HOST}:$((PORT_BASE + i))" "${PEER_ARGS[@]}" \
      --collector 64 --collector-timeout-ms 250 --block-interval-ms 120 \
      >"${LOG_DIR}/load_node${i}.log" 2>&1 &
    PIDS+=($!)
  done

  NODE_ARGS=()
  for i in $(seq 0 $((N - 1))); do
    NODE_ARGS+=(--node "${HOST}:$((PORT_BASE + i))")
  done

  # --settle-s 60: after the 60 s load phase the trailing commitments still
  # need to consolidate and be audited; on a loaded single-core runner each
  # settle poll re-verifies a multi-thousand-epoch quorum view, so the default
  # 20 s budget is flaky-tight here.
  sleep 1
  timeout --kill-after=10 200 \
    "$LOADGEN_BIN" "${NODE_ARGS[@]}" --algo "$ALGO" \
    --seed "$SEED" --workload rollup --sessions 256 --rate 300 \
    --duration-s 60 --settle-s 60 --check >"${LOG_DIR}/loadgen.json"

  # Graceful stop so every daemon prints its transport counters.
  for pid in "${PIDS[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  for pid in "${PIDS[@]}"; do
    wait "$pid" 2>/dev/null || true
  done
  PIDS=()

  for i in $(seq 0 $((N - 1))); do
    if ! grep -q "drops(peer=0 client=0)" "${LOG_DIR}/load_node${i}.log"; then
      echo "FAIL: node ${i} dropped frames under load" >&2
      grep -h "stopped:" "${LOG_DIR}/load_node${i}.log" >&2 || true
      exit 1
    fi
    if ! grep -q "decode_errors=0" "${LOG_DIR}/load_node${i}.log"; then
      echo "FAIL: node ${i} saw framing errors under load" >&2
      grep -h "stopped:" "${LOG_DIR}/load_node${i}.log" >&2 || true
      exit 1
    fi
  done

  # Under sustained load some node always receives the next height's
  # proposal before it commits the current one: the lookahead buffer must
  # have held at least one, or the stall it removes is back.
  BUFFERED=0
  for i in $(seq 0 $((N - 1))); do
    COUNT=$(grep -oE "proposals_buffered=[0-9]+" "${LOG_DIR}/load_node${i}.log" \
      | tail -n 1 | cut -d= -f2)
    BUFFERED=$(( BUFFERED + ${COUNT:-0} ))
  done
  if [ "$BUFFERED" -eq 0 ]; then
    echo "FAIL: no load node buffered a next-height proposal" >&2
    grep -h "consensus:" "${LOG_DIR}"/load_node*.log >&2 || true
    exit 1
  fi

  echo "tcp_cluster_smoke: PASS (${ALGO}, n=${N}, 60 s open-loop rollup load, ${BUFFERED} proposals buffered)"
fi
