#!/usr/bin/env bash
# Distributed-serving smoke (docs/OPERATIONS.md "Distributed serving"):
# start TWO `rankhow_cli --listen` workers on ephemeral ports, front them
# with `rankhow_coord` pinning one dataset to each, and drive two clients
# through the coordinator over bash's /dev/tcp — one per shard. Every
# proven result must equal a serial `--session` replay of the same script
# through the same binary, the aggregated `stats` line must carry the
# coord_* fields with a per-worker breakdown, and the fleet `metrics` line
# must merge the workers' latency histograms (its solve.count is the sum
# of theirs, and it carries the raw bucket field). Before the clients run,
# eight idle connections must leave the coordinator's thread count (from
# /proc) unchanged. check.sh runs this right after smoke_listen; it needs
# only bash + coreutils.
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CLI="$BUILD/rankhow_cli"
COORD="$BUILD/rankhow_coord"
for bin in "$CLI" "$COORD"; do
  if [[ ! -x "$bin" ]]; then
    echo "smoke_coord: $bin not built" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  # TERM, give each process a moment, then KILL, and always reap — an
  # unreaped child holds its listening socket as a zombie until the
  # harness exits, which makes back-to-back runs flaky.
  for pid in "${PIDS[@]-}"; do
    [[ -n "$pid" ]] || continue
    kill "$pid" 2>/dev/null || true
  done
  for pid in "${PIDS[@]-}"; do
    [[ -n "$pid" ]] || continue
    for _ in $(seq 1 20); do
      kill -0 "$pid" 2>/dev/null || break
      sleep 0.05
    done
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

# Two tiny ranked CSVs (file order ranks the first k rows). Identical
# content is fine: the point is that the shard map sends the ids to
# distinct worker processes.
cat > "$WORK/alpha.csv" <<'CSV'
PTS,REB,AST
9,4,7
8,6,2
7,7,5
5,2,8
3,9,1
2,1,3
CSV
cp "$WORK/alpha.csv" "$WORK/beta.csv"

wait_port() {  # $1 = stderr file, $2 = banner prefix; prints the port
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n "s/^$2: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p" \
           "$1" | head -1)
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  echo "$port"
}

"$CLI" --data="$WORK/alpha.csv,$WORK/beta.csv" --k=3 \
    --listen=127.0.0.1:0 --time-limit=30 2> "$WORK/w1.err" &
PIDS+=($!)
"$CLI" --data="$WORK/alpha.csv,$WORK/beta.csv" --k=3 \
    --listen=127.0.0.1:0 --time-limit=30 2> "$WORK/w2.err" &
PIDS+=($!)
P1=$(wait_port "$WORK/w1.err" rankhow)
P2=$(wait_port "$WORK/w2.err" rankhow)
if [[ -z "$P1" || -z "$P2" ]]; then
  echo "smoke_coord: workers never announced ports" >&2
  cat "$WORK/w1.err" "$WORK/w2.err" >&2
  exit 1
fi

"$COORD" --listen=127.0.0.1:0 \
    --workers=127.0.0.1:$P1,127.0.0.1:$P2 \
    --shard-map=alpha=127.0.0.1:$P1,beta=127.0.0.1:$P2 \
    2> "$WORK/coord.err" &
COORD_PID=$!
PIDS+=($COORD_PID)
PORT=$(wait_port "$WORK/coord.err" rankhow_coord)
if [[ -z "$PORT" ]]; then
  echo "smoke_coord: coordinator never announced a port" >&2
  cat "$WORK/coord.err" >&2
  exit 1
fi

# /dev/tcp is a bash compile-time feature; probe once and skip cleanly
# rather than failing the gate on an environment limitation.
if ! (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then
  echo "smoke_coord: SKIP - bash lacks /dev/tcp support on this host" >&2
  exit 0
fi

fail() { echo "smoke_coord: FAILED - $1" >&2; exit 1; }

# The coordinator serves its clients on a reactor with a fixed thread
# set: eight idle connections, each proven live by a `deadline 0` round
# trip, must not add a thread.
if [[ -r "/proc/$COORD_PID/status" ]]; then
  threads() { sed -n 's/^Threads:[[:space:]]*//p' "/proc/$COORD_PID/status"; }
  T0=$(threads)
  IDLE=()
  for _ in $(seq 1 8); do
    exec {fd}<>"/dev/tcp/127.0.0.1/$PORT"
    IDLE+=("$fd")
    printf 'deadline 0\n' >&"$fd"
    reply=""
    read -r -t 10 reply <&"$fd" || true
    [[ "$reply" == "ok deadline 0" ]] || fail "idle connection answered '$reply'"
  done
  T1=$(threads)
  for fd in "${IDLE[@]}"; do exec {fd}>&-; done
  [[ -n "$T0" && -n "$T1" && "$T1" -le "$T0" ]] \
      || fail "coordinator threads grew from $T0 to $T1 with 8 idle connections"
  echo "--- coordinator threads: $T0 idle, $T1 with 8 idle connections ---"
fi

run_client() {  # $1 = client name, $2 = dataset id
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf 'open %s %s\n%s solve\n%s min-weight PTS 0.1\nstats\nquit\n' \
      "$1" "$2" "$1" "$1" >&3
  timeout 120 cat <&3
  exec 3<&- 3>&-
}

OUT1=$(run_client c1 alpha)
OUT2=$(run_client c2 beta)
echo "--- client c1 (alpha, via coordinator) ---"; echo "$OUT1"
echo "--- client c2 (beta, via coordinator) ---"; echo "$OUT2"

# Under pipelining, control verbs (stats) ack immediately while session
# commands ack from solver strands — the same interleaving a direct worker
# produces (acks carry line= tags for this reason). Assert by content, not
# by position.
grep -q "^ok open c1 alpha$" <<<"$OUT1" || fail "c1 open ack"
grep -Eq "^ok c1 line=2 error=[0-9]+ bound=[0-9]+ proven=yes" <<<"$OUT1" \
    || fail "c1 solve response"
grep -Eq "^ok c1 line=3 error=[0-9]+" <<<"$OUT1" || fail "c1 edit+solve"
grep -q "^ok stats registries=" <<<"$OUT1" || fail "c1 aggregated stats"
grep -q " coord_workers=2 " <<<"$OUT1" || fail "c1 coord_workers field"
grep -q " coord_up=2 " <<<"$OUT1" || fail "c1 coord_up field"
grep -Eq " w0=127\.0\.0\.1:$P1:up" <<<"$OUT1" || fail "c1 w0 breakdown"
grep -Eq " w1=127\.0\.0\.1:$P2:up" <<<"$OUT1" || fail "c1 w1 breakdown"
grep -q "^ok quit$" <<<"$OUT1" || fail "c1 quit"
grep -q "^ok open c2 beta$" <<<"$OUT2" || fail "c2 open ack (routing)"
grep -Eq "^ok c2 line=2 error=[0-9]+ bound=[0-9]+ proven=yes" <<<"$OUT2" \
    || fail "c2 solve response"
grep -q "^ok quit$" <<<"$OUT2" || fail "c2 quit"

# Fleet metrics: both clients quit, so every solve sample is recorded (a
# graceful close waits for the strand that records it). The coordinator's
# solve block must merge the workers' blocks: counts add up, and the raw
# buckets travel with it.
metrics_at() {  # $1 = port; prints that server's `ok metrics` line
  exec 3<>"/dev/tcp/127.0.0.1/$1"
  printf 'metrics\nquit\n' >&3
  timeout 30 cat <&3 | grep '^ok metrics ' || true
  exec 3<&- 3>&-
}
field() {  # $1 = line, $2 = field name; prints its numeric value
  sed -n "s/.* $2=\([0-9]*\).*/\1/p" <<<"$1"
}
M1=$(metrics_at "$P1")
M2=$(metrics_at "$P2")
FLEET=$(metrics_at "$PORT")
echo "--- fleet metrics (via coordinator) ---"; echo "$FLEET"
[[ -n "$M1" && -n "$M2" && -n "$FLEET" ]] || fail "metrics round trips"
C1=$(field "$M1" solve.count)
C2=$(field "$M2" solve.count)
CF=$(field "$FLEET" solve.count)
[[ -n "$C1" && -n "$C2" && "$CF" == "$((C1 + C2))" ]] \
    || fail "fleet solve.count=$CF is not w0's $C1 + w1's $C2"
grep -q " solve.buckets=[0-9]" <<<"$FLEET" || fail "fleet solve.buckets field"
grep -q " coord_workers=2 " <<<"$FLEET" || fail "fleet metrics coord fields"

# Acceptance cross-check: results through the coordinator must equal a
# serial --session replay of the same script through the same binary.
printf 'solve\nmin-weight PTS 0.1\n' > "$WORK/script.txt"
for c in c1 c2; do
  csv="$WORK/alpha.csv"; out="$OUT1"
  [[ "$c" == c2 ]] && { csv="$WORK/beta.csv"; out="$OUT2"; }
  SERIAL=$("$CLI" --data="$csv" --k=3 --time-limit=30 \
           --session="$WORK/script.txt" --show-table=0)
  # Table rows: "LINE COMMAND... ERROR BOUND PROVEN SECONDS" (commands may
  # contain spaces, so count from the right); the wire carries "error=N".
  serial_errors=$(awk '/^[12][[:space:]]/ {print $(NF-3)}' <<<"$SERIAL")
  wire_errors=$(sed -n "s/^ok $c line=[23] error=\([0-9]*\).*/\1/p" <<<"$out")
  if [[ -z "$serial_errors" || "$serial_errors" != "$wire_errors" ]]; then
    echo "--- serial replay ($c) ---"; echo "$SERIAL"
    fail "$c coordinator results differ from serial --session replay \
(serial: $(echo $serial_errors | tr '\n' ' ') wire: $(echo \
$wire_errors | tr '\n' ' '))"
  fi
done

echo "smoke_coord: OK (coordinator on $PORT fronting workers $P1/$P2," \
     "2 clients on 2 pinned shards, wire == serial replay," \
     "fleet solve.count=$CF merged from $C1 + $C2)"
