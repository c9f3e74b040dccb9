# Hostile-client regression checks for `rexspeed serve`, on the plain
# daemon and on a 2-shard router fleet:
#   - flood: 1,100 idle connections must not kill the server or remove
#     its socket; connections past the select ceiling are refused with
#     a structured `too-many-connections` line; once the flood hangs up,
#     `health` is answered;
#   - hog: while one client pipelines 2,000 `optimize` lines and never
#     reads, another client's `health` is answered within 1 s;
#   - pipeline: 5,000 pipelined hot requests all come back ok, and the
#     router reports zero failovers across all three checks.
# The flood needs more than 1,024 descriptors in both the client and
# the server, so the script raises its own open-file limit and fails if
# it cannot.
#
# Usage: sh serve_flood.sh path/to/rexspeed.exe path/to/serve_client.exe
set -eu

exe=$1
client=$2
case $exe in */*) ;; *) exe="./$exe" ;; esac
case $client in */*) ;; *) client="./$client" ;; esac
. "$(dirname "$0")/net.sh"
tmp=$(net_tmpdir)
server_pid=
load_pid=
cleanup() {
  [ -z "$load_pid" ] || kill "$load_pid" 2>/dev/null || true
  [ -z "$server_pid" ] || kill "$server_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
  echo "serve_flood.sh: $*" >&2
  exit 1
}

fds=2048
ulimit -n "$fds" 2>/dev/null || fail "cannot raise the open-file limit to $fds"
[ "$(ulimit -n)" -ge "$fds" ] || fail "open-file limit is $(ulimit -n), need $fds"

sock="$tmp/serve.sock"
opt_req='{"route":"optimize","params":{"rho":3}}'

start_server() { # $@ = extra serve flags
  "$exe" serve --socket "$sock" --domains 1 "$@" 2>"$tmp/serve.err" &
  server_pid=$!
  tries=0
  until "$client" "$sock" '{"route":"health"}' status >/dev/null 2>&1; do
    kill -0 "$server_pid" 2>/dev/null || {
      cat "$tmp/serve.err" >&2
      fail "$label: server died during startup"
    }
    tries=$((tries + 1))
    [ "$tries" -lt 200 ] || fail "$label: server never became healthy"
    sleep 0.05
  done
}

stop_load() {
  kill "$load_pid" 2>/dev/null || true
  wait "$load_pid" 2>/dev/null || true
  load_pid=
}

alive() { # $1 = what just happened
  kill -0 "$server_pid" 2>/dev/null || {
    cat "$tmp/serve.err" >&2
    fail "$label: server died $1"
  }
  [ -S "$sock" ] || fail "$label: socket file gone $1"
}

for label in serve shards; do
  if [ "$label" = serve ]; then start_server; else start_server --shards 2; fi

  # Flood: hold 1,100 idle connections.
  "$client" --flood 1100 "$sock" >"$tmp/flood.out" 2>&1 &
  load_pid=$!
  tries=0
  until grep -q "connections open" "$tmp/flood.out"; do
    kill -0 "$load_pid" 2>/dev/null || {
      cat "$tmp/flood.out" >&2
      alive "under 1100 idle connections"
      fail "$label: flood client failed"
    }
    tries=$((tries + 1))
    [ "$tries" -lt 600 ] || fail "$label: flood never finished connecting"
    sleep 0.05
  done
  sleep 0.2
  alive "under 1100 idle connections"
  code=$("$client" --within-ms 5000 "$sock" '{"route":"health"}' error.code) ||
    fail "$label: no answer to a connection past the ceiling"
  [ "$code" = "too-many-connections" ] ||
    fail "$label: connection past the ceiling answered '$code'"
  stop_load
  tries=0
  until "$client" --within-ms 1000 "$sock" '{"route":"health"}' result.status \
    >/dev/null 2>&1; do
    tries=$((tries + 1))
    [ "$tries" -lt 50 ] || fail "$label: health not answered after the flood"
    sleep 0.1
  done
  alive "after the flood"

  # Hog: a client that pipelines and never reads must not delay others.
  "$client" --hog 2000 "$sock" "$opt_req" &
  load_pid=$!
  sleep 1
  "$client" --within-ms 1000 "$sock" '{"route":"health"}' result.status \
    >/dev/null || fail "$label: health not answered within 1 s behind a hog"
  stop_load
  alive "after the hog"

  # Pipeline: 5,000 hot requests in flight on one connection.
  got=$("$client" --within-ms 60000 --pipeline 5000 "$sock" "$opt_req") ||
    fail "$label: pipelined requests did not all come back"
  [ "$got" = 5000 ] || fail "$label: $got of 5000 pipelined answers"
  if [ "$label" = shards ]; then
    failovers=$("$client" "$sock" '{"route":"stats"}' result.router.failovers)
    [ "$failovers" = 0 ] || fail "$label: router.failovers=$failovers"
  fi

  kill -TERM "$server_pid"
  wait "$server_pid" || fail "$label: server exited non-zero on SIGTERM"
  server_pid=
  [ ! -e "$sock" ] || fail "$label: socket not removed on drain"
done

echo "serve_flood.sh: flood, hog and pipeline checks passed on serve and serve --shards 2"
