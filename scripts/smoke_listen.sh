#!/usr/bin/env bash
# Smoke for the wire protocol through the real binary. First stdin
# `rankhow_cli --serve`: pipe a script in (once ending in `quit`, once
# ending at EOF) and compare its results with a serial `--session` replay.
# Then the network server (`rankhow_cli --listen`): start the CLI on an
# ephemeral 127.0.0.1 port fronting TWO datasets, drive the wire protocol
# over bash's /dev/tcp from two client connections bound to different
# dataset ids, and assert the tagged responses. check.sh runs this right
# after the tier-1 build; it needs only bash + coreutils.
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CLI="$BUILD/rankhow_cli"
if [[ ! -x "$CLI" ]]; then
  echo "smoke_listen: $CLI not built" >&2
  exit 1
fi

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  # TERM, give the server a moment to exit, then KILL, and always reap —
  # an unreaped child holds the listening socket as a zombie until the
  # harness itself exits, which makes back-to-back runs flaky.
  if [[ -n "$SERVER_PID" ]]; then
    kill "$SERVER_PID" 2>/dev/null || true
    for _ in $(seq 1 20); do
      kill -0 "$SERVER_PID" 2>/dev/null || break
      sleep 0.05
    done
    kill -9 "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# Two tiny ranked CSVs (file order ranks the first k rows). Identical
# content is fine: the point is that the ids route to distinct registries.
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

fail() { echo "smoke_listen: FAILED - $1" >&2; exit 1; }

# The reference every served result is checked against: a serial
# --session replay of the same script through the same binary.
printf 'solve\nmin-weight PTS 0.1\n' > "$WORK/script.txt"
SERIAL=$("$CLI" --data="$WORK/alpha.csv" --k=3 --time-limit=30 \
         --session="$WORK/script.txt" --show-table=0)
# Table rows: "LINE COMMAND... ERROR BOUND PROVEN SECONDS" (the command may
# contain spaces, so count from the right); wire responses carry the same
# value as "error=N".
serial_errors=$(awk '/^[12][[:space:]]/ {print $(NF-3)}' <<<"$SERIAL")
if [[ -z "$serial_errors" ]]; then
  echo "--- serial replay ---"; echo "$SERIAL"
  fail "serial --session replay printed no errors"
fi

# Stdin --serve serves a one-entry catalog named after the CSV, so `open`
# without an id binds "alpha" and `stats` is the router's field list.
SERVE_OUT=$(printf 'open c4\nc4 solve\nc4 min-weight PTS 0.1\nstats\nquit\n' |
            timeout 120 "$CLI" --data="$WORK/alpha.csv" --k=3 --serve \
                --time-limit=30 2> "$WORK/serve.err")
echo "--- stdin --serve (alpha) ---"; echo "$SERVE_OUT"
grep -q "^ok open c4 alpha$" <<<"$SERVE_OUT" || fail "stdin open ack"
grep -q "^ok stats registries=1 " <<<"$SERVE_OUT" || fail "stdin stats"
grep -q "^ok quit$" <<<"$SERVE_OUT" || fail "stdin quit"
serve_errors=$(sed -n 's/^ok c4 line=[23] error=\([0-9]*\).*/\1/p' \
               <<<"$SERVE_OUT")
if [[ "$serve_errors" != "$serial_errors" ]]; then
  fail "stdin --serve results differ from serial --session replay (serial: \
$(echo $serial_errors | tr '\n' ' ') serve: $(echo $serve_errors | tr '\n' ' '))"
fi
# EOF without `quit` still drains: both commands answer.
EOF_OUT=$(printf 'open c5\nc5 solve\nc5 min-weight PTS 0.1\n' |
          timeout 120 "$CLI" --data="$WORK/alpha.csv" --k=3 --serve \
              --time-limit=30 2> "$WORK/serve_eof.err")
echo "--- stdin --serve, EOF without quit ---"; echo "$EOF_OUT"
eof_errors=$(sed -n 's/^ok c5 line=[23] error=\([0-9]*\).*/\1/p' <<<"$EOF_OUT")
if [[ "$eof_errors" != "$serial_errors" ]]; then
  fail "stdin --serve without quit lost answers (serial: \
$(echo $serial_errors | tr '\n' ' ') serve: $(echo $eof_errors | tr '\n' ' '))"
fi

"$CLI" --data="$WORK/alpha.csv,$WORK/beta.csv" --k=3 \
    --listen=127.0.0.1:0 --time-limit=30 2> "$WORK/server.err" &
SERVER_PID=$!

# The bound port is announced on stderr ("rankhow: listening on HOST:PORT").
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/^rankhow: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
         "$WORK/server.err" | head -1)
  [[ -n "$PORT" ]] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "smoke_listen: server exited before listening" >&2
    cat "$WORK/server.err" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ -z "$PORT" ]]; then
  echo "smoke_listen: server never announced a port" >&2
  cat "$WORK/server.err" >&2
  exit 1
fi

# /dev/tcp is a bash compile-time feature (--enable-net-redirections);
# some distros build without it. Probe once and skip cleanly rather than
# failing the whole gate on an environment limitation.
if ! (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then
  echo "smoke_listen: SKIP - bash lacks /dev/tcp support on this host" >&2
  exit 0
fi

run_client() {  # $1 = client name, $2 = dataset id
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf 'open %s %s\n%s solve\n%s min-weight PTS 0.1\nstats\nmetrics\nquit\n' \
      "$1" "$2" "$1" "$1" >&3
  timeout 120 cat <&3
  exec 3<&- 3>&-
}

OUT1=$(run_client c1 alpha)
OUT2=$(run_client c2 beta)
echo "--- client c1 (alpha) ---"; echo "$OUT1"
echo "--- client c2 (beta) ---"; echo "$OUT2"

grep -q "^ok open c1 alpha$" <<<"$OUT1" || fail "c1 open ack"
grep -Eq "^ok c1 line=2 error=[0-9]+ bound=[0-9]+ proven=yes" <<<"$OUT1" \
    || fail "c1 solve response"
grep -Eq "^ok c1 line=3 error=[0-9]+" <<<"$OUT1" || fail "c1 edit+solve"
grep -q "^ok stats registries=" <<<"$OUT1" || fail "c1 stats"
grep -q "^ok metrics connections=" <<<"$OUT1" || fail "c1 metrics"
grep -q "^ok quit$" <<<"$OUT1" || fail "c1 quit"
grep -q "^ok open c2 beta$" <<<"$OUT2" || fail "c2 open ack (routing)"
grep -Eq "^ok c2 line=2 error=[0-9]+ bound=[0-9]+ proven=yes" <<<"$OUT2" \
    || fail "c2 solve response"
grep -q "^ok quit$" <<<"$OUT2" || fail "c2 quit"

# Acceptance cross-check: the networked results must equal the serial
# --session replay.
wire_errors=$(sed -n 's/^ok c1 line=[23] error=\([0-9]*\).*/\1/p' <<<"$OUT1")
if [[ "$serial_errors" != "$wire_errors" ]]; then
  fail "network results differ from serial --session replay (serial: $(echo \
$serial_errors | tr '\n' ' ') wire: $(echo $wire_errors | tr '\n' ' '))"
fi

# Binary-framing client: the same script over `frame binary` must produce
# the same error values — framing changes the envelope, never the result.
# The negotiation ack arrives as a plain text line (the old framing);
# everything after it is 4-byte big-endian length-prefixed frames, encoded
# with printf octal escapes and decoded with od+awk.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
{
  printf 'frame binary\n'
  for req in 'open c3 alpha' 'c3 solve' 'c3 min-weight PTS 0.1' 'quit'; do
    len=${#req}  # all under 256 bytes, so the prefix is \0\0\0\LEN
    printf '\000\000\000'
    printf "\\$(printf '%03o' "$len")"
    printf '%s' "$req"
  done
} >&3
BIN_OUT=$(timeout 120 cat <&3 | od -An -v -tu1 | awk '
  { for (i = 1; i <= NF; i++) b[n++] = $i }
  END {
    i = 0
    line = ""  # the text-mode negotiation ack, up to the newline
    while (i < n && b[i] != 10) line = line sprintf("%c", b[i++])
    print line; i++
    while (i + 4 <= n) {
      len = b[i]*16777216 + b[i+1]*65536 + b[i+2]*256 + b[i+3]; i += 4
      line = ""
      for (j = 0; j < len && i < n; j++) line = line sprintf("%c", b[i++])
      print line
    }
  }')
exec 3<&- 3>&-
echo "--- client c3 (alpha, binary framing) ---"; echo "$BIN_OUT"
grep -q "^ok frame binary$" <<<"$BIN_OUT" || fail "c3 frame negotiation ack"
grep -q "^ok open c3 alpha$" <<<"$BIN_OUT" || fail "c3 open ack (binary)"
grep -q "^ok quit$" <<<"$BIN_OUT" || fail "c3 quit (binary)"
# `frame binary` was wire line 1, so the solve/edit sit on lines 3 and 4.
bin_errors=$(sed -n 's/^ok c3 line=[34] error=\([0-9]*\).*/\1/p' <<<"$BIN_OUT")
if [[ -z "$bin_errors" || "$bin_errors" != "$wire_errors" ]]; then
  fail "binary-framed results differ from text framing (text: $(echo \
$wire_errors | tr '\n' ' ') binary: $(echo $bin_errors | tr '\n' ' '))"
fi

echo "smoke_listen: OK (stdin --serve == serial replay with and without" \
     "quit; port $PORT, 2 clients on 2 dataset ids, wire == serial replay," \
     "binary framing == text)"
