#!/usr/bin/env bash
# End-to-end smoke test for the serving daemon (tools/cobra_serverd.cc).
#
# Exercises the full robustness loop against real processes over real TCP:
#   1. seed a snapshot directory and start cobra_serverd on an ephemeral
#      port (parsed from its READY line);
#   2. serve an AssignBatch through cobra_client, then 300-scenario ones
#      that the daemon streams in windows — no-delta scenarios, and
#      scenarios that each set a meta-variable, every row checked against a
#      one-scenario call — and refuse a NaN delta on both paths, and a
#      streamed request with a repeated name or an unknown variable in its
#      last scenario;
#   3. drop a NEW snapshot version and assert the daemon hot-swaps to it;
#   4. drop a CORRUPTED snapshot (full-size, interior bytes flipped — a
#      checksum mismatch, i.e. permanent damage, not a torn write) and
#      assert it is quarantined as *.rejected, the rejection is logged, and
#      the daemon keeps serving the last good version;
#   5. SIGTERM the daemon and assert it drains and exits 0.
#
# A verifier-rejected artifact (structurally parseable, semantically bad)
# with its VerifyReport surfaced is covered by serve_watcher_test, which
# can build one in-process; producing one from shell would mean
# re-implementing the checksum, so this script sticks to byte corruption.
#
# Usage: scripts/serve_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD=${1:-build}
WORK=$(mktemp -d)
SNAPDIR="$WORK/snapshots"
LOG="$WORK/serverd.log"
SERVERD_PID=""
cleanup() {
  [[ -n "$SERVERD_PID" ]] && kill -9 "$SERVERD_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- serverd log ---" >&2
  cat "$LOG" >&2 || true
  exit 1
}

# Wait (up to ~5s) until the daemon's stderr log matches a pattern.
wait_for_log() {
  local pattern=$1
  for _ in $(seq 1 100); do
    grep -q "$pattern" "$LOG" 2>/dev/null && return 0
    sleep 0.05
  done
  return 1
}

mkdir -p "$SNAPDIR"

# 1. A known-good snapshot, produced by the snapshot bench's save mode
#    (core::SaveSnapshot — the exact format the watcher loads).
COBRA_A8_MODE=save COBRA_A8_PATH="$WORK/good.snap" COBRA_A8_SCENARIOS=8 \
  "$BUILD/bench_a8_snapshot" >/dev/null
cp "$WORK/good.snap" "$SNAPDIR/v001.snap"

"$BUILD/cobra_serverd" --dir "$SNAPDIR" --poll-ms 50 \
  >"$WORK/serverd.out" 2>"$LOG" &
SERVERD_PID=$!

# READY is printed after the initial load; parse the ephemeral port.
for _ in $(seq 1 100); do
  grep -q '^READY ' "$WORK/serverd.out" 2>/dev/null && break
  kill -0 "$SERVERD_PID" 2>/dev/null || fail "daemon exited before READY"
  sleep 0.05
done
grep -q '^READY ' "$WORK/serverd.out" || fail "no READY line"
PORT=$(sed -n 's/^READY port=\([0-9]*\).*/\1/p' "$WORK/serverd.out")
grep -q 'snapshot=v001.snap' "$WORK/serverd.out" \
  || fail "daemon did not load the seeded v001.snap"

# 2. A batch request serves values from v001. The snapshot's meta-variable
#    names are compression artifacts, so the smoke sends a baseline
#    (no-delta) scenario — the unit suites cover delta binding.
"$BUILD/cobra_client" --port "$PORT" batch baseline: >"$WORK/batch1.out" \
  || fail "batch against v001 failed"
grep -q '^ok version=1 ' "$WORK/batch1.out" \
  || fail "batch response did not come from version 1"
grep -q 'full=' "$WORK/batch1.out" || fail "batch response carried no values"

# 2b. 300 no-delta scenarios: over the daemon's deadline_check_scenarios
#     (256), so the request streams through one AssignStream in windows.
#     Every scenario must answer exactly the one-scenario baseline.
# shellcheck disable=SC2046  # one argument per scenario spec
"$BUILD/cobra_client" --port "$PORT" batch $(seq -f 'b%g:' 0 299) \
  >"$WORK/batch300.out" || fail "streamed 300-scenario batch failed"
grep -q '^ok version=1 scenarios=300 ' "$WORK/batch300.out" \
  || fail "streamed batch did not answer 300 scenarios from version 1"
[[ $(grep -c '^b[0-9]*:$' "$WORK/batch300.out") -eq 300 ]] \
  || fail "streamed batch did not name 300 scenarios"
grep '^  ' "$WORK/batch1.out" >"$WORK/baseline.rows"
for _ in $(seq 1 300); do cat "$WORK/baseline.rows"; done >"$WORK/expected300.rows"
grep '^  ' "$WORK/batch300.out" | cmp -s - "$WORK/expected300.rows" \
  || fail "a streamed scenario's full=/compressed= differs from the baseline"

# 2c. 300 scenarios that each set a meta-variable, so the daemon lowers
#     every streamed window from the request frame. The tree's bucket
#     nodes og<k> are pool variables only where the cut kept them, so the
#     smoke probes for three. Scenario i sets META[i % 3] to VALUES[i % 5];
#     its rows must equal the one-scenario call with the same delta.
META=()
for g in $(seq 0 200); do
  if "$BUILD/cobra_client" --port "$PORT" batch "probe:og$g=1.1" \
      >/dev/null 2>&1; then
    META+=("og$g")
    [[ ${#META[@]} -eq 3 ]] && break
  fi
done
[[ ${#META[@]} -eq 3 ]] || fail "found fewer than 3 meta-variables og<k>"
VALUES=(0.5 0.8 1.25 1.5 2)
SPECS=()
for i in $(seq 0 299); do
  SPECS+=("m$i:${META[$((i % 3))]}=${VALUES[$((i % 5))]}")
done
"$BUILD/cobra_client" --port "$PORT" batch "${SPECS[@]}" \
  >"$WORK/meta300.out" || fail "streamed 300-scenario meta-variable batch failed"
grep -q '^ok version=1 scenarios=300 ' "$WORK/meta300.out" \
  || fail "streamed meta-variable batch did not answer 300 scenarios"
MOVED=0
for k in $(seq 0 14); do
  "$BUILD/cobra_client" --port "$PORT" batch \
    "one:${META[$((k % 3))]}=${VALUES[$((k % 5))]}" >"$WORK/one.out" \
    || fail "one-scenario call ${META[$((k % 3))]}=${VALUES[$((k % 5))]} failed"
  grep '^  ' "$WORK/one.out" >"$WORK/one$k.rows"
  cmp -s "$WORK/one$k.rows" "$WORK/baseline.rows" || MOVED=1
done
[[ "$MOVED" -eq 1 ]] || fail "no meta-variable delta moved the answer"
for i in $(seq 0 299); do cat "$WORK/one$((i % 15)).rows"; done \
  >"$WORK/expected_meta.rows"
grep '^  ' "$WORK/meta300.out" | cmp -s - "$WORK/expected_meta.rows" \
  || fail "a streamed meta-variable row differs from its one-scenario call"

# 2d. A streamed request whose last scenario repeats a name is refused
#     before admission, naming the name. cobra_client refuses to build such
#     a request, so the frame is written by hand.
python3 - "$PORT" >"$WORK/dup.out" <<'PY' || fail "duplicate-name frame exchange failed"
import socket, struct, sys
names = [f"d{i}" for i in range(299)] + ["d7"]
body = struct.pack("<I", len(names))
for name in names:
    body += struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", 0)
payload = struct.pack("<HHQI", 1, 2, 77, 0) + body  # version, batch, id, deadline
sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
sock.sendall(struct.pack("<I", len(payload)) + payload)
def read(n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            sys.exit("connection closed")
        data += chunk
    return data
reply = read(struct.unpack("<I", read(4))[0])
_, _, request_id, code, _, length = struct.unpack_from("<HHQHII", reply)
print(f"id={request_id} code={code} {reply[22:22 + length].decode()}")
PY
grep -q '^id=77 code=1 .*duplicate scenario name "d7"' "$WORK/dup.out" \
  || fail "duplicate name not refused under its request id: $(cat "$WORK/dup.out")"
"$BUILD/cobra_client" --port "$PORT" ping >"$WORK/ping.out" \
  || fail "ping after a refused duplicate-name request failed"
grep -q '^ok version=1 ' "$WORK/ping.out" \
  || fail "daemon not serving after a refused duplicate-name request"

# 2e. An unknown variable in the last of 300 scenarios fails that request
#     in its last window, naming the scenario and the variable.
# shellcheck disable=SC2046  # one argument per scenario spec
if "$BUILD/cobra_client" --port "$PORT" batch $(seq -f 'b%g:' 0 298) \
    last:NoSuchVar=1.1 >"$WORK/unknown.out" 2>"$WORK/unknown.err"; then
  fail "a request with an unknown variable was served"
fi
grep -q 'scenario "last": unknown variable: NoSuchVar' "$WORK/unknown.err" \
  || fail "unknown-variable refusal does not name the scenario and variable: $(cat "$WORK/unknown.err")"
"$BUILD/cobra_client" --port "$PORT" ping >"$WORK/ping.out" \
  || fail "ping after an unknown-variable request failed"
grep -q '^ok version=1 ' "$WORK/ping.out" \
  || fail "daemon not serving after an unknown-variable request"

# 2f. A NaN delta is refused at decode on both serving paths — alone, as a
#     whole batch, and inside a 300-scenario request the daemon would
#     stream — with an error naming the value; the daemon keeps serving.
for spec_count in 0 299; do
  # shellcheck disable=SC2046  # one argument per scenario spec
  if "$BUILD/cobra_client" --port "$PORT" batch \
      $(seq -f 'b%g:' 1 "$spec_count") bad:x=nan \
      >"$WORK/nan.out" 2>"$WORK/nan.err"; then
    fail "a NaN delta was served ($((spec_count + 1)) scenarios)"
  fi
  grep -q 'non-finite value nan' "$WORK/nan.err" \
    || fail "NaN refusal ($((spec_count + 1)) scenarios) does not name the value: $(cat "$WORK/nan.err")"
  "$BUILD/cobra_client" --port "$PORT" ping >"$WORK/ping.out" \
    || fail "ping after a refused NaN request failed"
  grep -q '^ok version=1 ' "$WORK/ping.out" \
    || fail "daemon not serving after a refused NaN request"
done

# 3. A new version appears (write-tmp-then-rename, the publish convention):
#    the watcher must verify it and hot-swap.
cp "$WORK/good.snap" "$SNAPDIR/.v002.tmp"
mv "$SNAPDIR/.v002.tmp" "$SNAPDIR/v002.snap"
wait_for_log 'watcher: swapped to v002.snap' || fail "no swap to v002"
"$BUILD/cobra_client" --port "$PORT" ping >"$WORK/ping.out" \
  || fail "ping after swap failed"
grep -q 'snapshot=v002.snap' "$WORK/ping.out" \
  || fail "daemon not serving v002 after swap"

# 4. A corrupted version appears: full size, eight interior bytes flipped,
#    so the checksum cannot match. It must be quarantined exactly once and
#    the daemon must keep serving v002.
SIZE=$(wc -c <"$WORK/good.snap")
cp "$WORK/good.snap" "$SNAPDIR/.v003.tmp"
printf 'CORRUPT!' | dd of="$SNAPDIR/.v003.tmp" bs=1 seek=$((SIZE / 2)) \
  count=8 conv=notrunc status=none
mv "$SNAPDIR/.v003.tmp" "$SNAPDIR/v003.snap"
wait_for_log 'watcher: rejected v003.snap' || fail "corrupt v003 not rejected"
grep -q 'quarantined as v003.snap.rejected' "$LOG" \
  || fail "rejection log does not name the quarantine file"
[[ -f "$SNAPDIR/v003.snap.rejected" ]] || fail "v003 not renamed to .rejected"
[[ ! -f "$SNAPDIR/v003.snap" ]] || fail "corrupt v003.snap left in place"
"$BUILD/cobra_client" --port "$PORT" ping >"$WORK/ping2.out" \
  || fail "ping after quarantine failed"
grep -q 'snapshot=v002.snap' "$WORK/ping2.out" \
  || fail "daemon fell off v002 after the corrupt drop"

# 5. SIGTERM: drain and exit 0.
kill -TERM "$SERVERD_PID"
EXIT=0
wait "$SERVERD_PID" || EXIT=$?
SERVERD_PID=""
[[ "$EXIT" -eq 0 ]] || fail "daemon exited $EXIT on SIGTERM"
grep -q 'serverd: drained and stopped' "$LOG" \
  || fail "daemon did not log a clean drain"

echo "serve_smoke: OK (port $PORT, swap + quarantine + drain verified)"
