#!/usr/bin/env bash
# Durable soak: boot a 4-node setchain_node cluster on localhost, every
# daemon with a --data-dir (default --snapshot-epochs 8), and drive it with
# setchain_loadgen open-loop in fixed phases. Per phase it prints acked /
# offered, ack p50 / p99, each daemon's VmRSS and the snapshot bytes the
# cluster wrote per acked element (mean per node). Exits 1 if any phase
# acked fewer adds than it was offered; RSS and snapshot growth are
# reported, not gated. Takes phases x phase_s seconds of load (5 min by
# default) plus element pre-signing, so it is not part of tier-1.
#
#   usage: durable_soak.sh <setchain_node> <setchain_loadgen> [algo] \
#          [phases] [rate] [phase_s] [json_out]
#   defaults: hashchain, 10 phases, 1500 el/s, 30 s phases, no JSON file
#
# Snapshot bytes are read off the data dirs: a poller records each new
# snap-*.snap file once, with its size. A node keeps its two newest
# snapshots and cuts at most one per 400 ms sync tick, so a snapshot file
# lives for at least two ticks and a 100 ms poll sees every one. The
# daemons' shutdown `storage:` lines give the exact totals to compare.
set -euo pipefail

NODE_BIN=${1:?path to setchain_node}
LOADGEN_BIN=${2:?path to setchain_loadgen}
ALGO=${3:-hashchain}
PHASES=${4:-10}
RATE=${5:-1500}
PHASE_S=${6:-30}
JSON_OUT=${7:-}

N=4
F=1
SEED=42
HOST=127.0.0.1
# Below Linux's default ephemeral range (32768-60999), where an outgoing
# socket could already hold a listen port.
PORT_BASE=$(( 20000 + RANDOM % 12000 ))
WORK_DIR=$(mktemp -d)
PIDS=()

cleanup() {
  local code=$?
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  for pid in "${PIDS[@]:-}"; do
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "${WORK_DIR}"
  exit "$code"
}
trap cleanup EXIT INT TERM

PEER_ARGS=()
NODE_ARGS=()
for i in $(seq 0 $((N - 1))); do
  PEER_ARGS+=(--peer "${HOST}:$((PORT_BASE + i))")
  NODE_ARGS+=(--node "${HOST}:$((PORT_BASE + i))")
done

# The loadgen's own cluster parameters (setchain_loadgen.cpp), so element
# flow and epoch sizes match its self-booted runs and commitbench.
for i in $(seq 0 $((N - 1))); do
  mkdir -p "${WORK_DIR}/node${i}"
  "$NODE_BIN" --id "$i" --n "$N" --f "$F" --algo "$ALGO" --seed "$SEED" \
    --listen "${HOST}:$((PORT_BASE + i))" "${PEER_ARGS[@]}" \
    --collector 64 --collector-timeout-ms 50 --block-interval-ms 50 \
    --data-dir "${WORK_DIR}/node${i}" \
    >"${WORK_DIR}/node${i}.log" 2>&1 &
  PIDS+=($!)
done
sleep 1

RATES=$(python3 -c "print(','.join(['${RATE}'] * ${PHASES}))")
set +e
python3 - "$WORK_DIR" "$N" "$ALGO" "$RATE" "$PHASE_S" "${JSON_OUT}" "${PIDS[@]}" \
    -- "$LOADGEN_BIN" "${NODE_ARGS[@]}" --algo "$ALGO" --seed "$SEED" \
    --workload kv --sessions 64 --window 64 --rates "$RATES" \
    --duration-s "$PHASE_S" <<'PY'
import json, os, re, subprocess, sys, threading, time

sep = sys.argv.index("--")
work, n, algo, rate, phase_s, json_out = sys.argv[1:7]
n = int(n)
pids = [int(p) for p in sys.argv[7:sep]]
cmd = sys.argv[sep + 1:]

seen = {}  # (node, file name) -> size
lock = threading.Lock()
done = threading.Event()

def poll():
    while not done.is_set():
        for i in range(n):
            d = os.path.join(work, "node%d" % i)
            try:
                names = os.listdir(d)
            except OSError:
                continue
            for name in names:
                if not (name.startswith("snap-") and name.endswith(".snap")):
                    continue
                with lock:
                    if (i, name) in seen:
                        continue
                try:
                    size = os.path.getsize(os.path.join(d, name))
                except OSError:
                    continue
                with lock:
                    seen[(i, name)] = size
        time.sleep(0.1)

def rss_mb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return float("nan")

def snap_bytes():
    with lock:
        return sum(seen.values())

poller = threading.Thread(target=poll, daemon=True)
poller.start()
with open(os.path.join(work, "loadgen.json"), "w") as out:
    lg = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE, text=True)
    phases = []
    last_bytes = 0
    pat = re.compile(r"phase (\d+): offered=(\d+) acked=(\d+) "
                     r"ack_p50_ms=([\d.]+) ack_p99_ms=([\d.]+)")
    for line in lg.stderr:
        m = pat.search(line)
        if not m:
            sys.stderr.write(line)
            continue
        b = snap_bytes()
        ph = {
            "phase": int(m.group(1)),
            "offered": int(m.group(2)),
            "acked": int(m.group(3)),
            "ack_p50_ms": float(m.group(4)),
            "ack_p99_ms": float(m.group(5)),
            "rss_mb": [round(rss_mb(p), 1) for p in pids],
            "snapshot_bytes_per_elem":
                round((b - last_bytes) / n / max(1, int(m.group(3))), 1),
        }
        last_bytes = b
        phases.append(ph)
        print("phase %2d: acked %6d / offered %6d  ack p50 %8.1f ms  p99 %8.1f ms  "
              "rss_mb %s  snap_B/elem %.1f" % (
                  ph["phase"], ph["acked"], ph["offered"], ph["ack_p50_ms"],
                  ph["ack_p99_ms"], ph["rss_mb"], ph["snapshot_bytes_per_elem"]),
              flush=True)
    code = lg.wait()
done.set()
poller.join()

short = [p["phase"] for p in phases if p["acked"] < p["offered"]]
result = {
    "algo": algo, "nodes": n, "rate": float(rate), "phase_s": float(phase_s),
    "loadgen_exit": code, "phases": phases,
    "snapshot_files_seen": len(seen), "snapshot_bytes_seen": snap_bytes(),
    "phases_short": short,
}
if json_out:
    with open(json_out, "w") as f:
        json.dump(result, f, indent=1)
if code != 0 or not phases:
    print("durable_soak: FAIL (setchain_loadgen exited %d)" % code)
    sys.exit(1)
if short:
    print("durable_soak: FAIL (phases %s acked less than offered)" % short)
    sys.exit(1)
print("durable_soak: PASS (%s, %d phases at %s el/s)" % (algo, len(phases), rate))
PY
VERDICT=$?
set -e

# Graceful stop: each daemon prints its exact storage totals.
for pid in "${PIDS[@]}"; do
  kill -TERM "$pid" 2>/dev/null || true
done
for pid in "${PIDS[@]}"; do
  wait "$pid" 2>/dev/null || true
done
PIDS=()
grep -h "storage:" "${WORK_DIR}"/node*.log || true
exit "$VERDICT"
