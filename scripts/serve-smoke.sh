#!/usr/bin/env bash
# serve-smoke.sh: end-to-end check of the simulation service from outside
# the process. Starts wnserved on an ephemeral port, runs the Table I sweep
# and the Figure 10 harvested-power cells both locally and through
# `wnbench -remote`, and demands byte-identical output; then pokes the
# health/metrics endpoints and verifies the daemon drains cleanly on
# SIGTERM.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/wnserved" ./cmd/wnserved
go build -o "$workdir/wnbench" ./cmd/wnbench

"$workdir/wnserved" -addr 127.0.0.1:0 -quiet >"$workdir/serve.out" 2>&1 &
server_pid=$!

# Wait for the port announcement against a 10 s wall-clock deadline,
# failing fast — with the server log — the moment the process dies instead
# of polling out the full timeout against a corpse.
deadline=$(($(date +%s) + 10))
while :; do
    url=$(sed -n 's/^wnserved: listening on //p' "$workdir/serve.out")
    [ -n "$url" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "serve-smoke: wnserved exited before announcing its port" >&2
        cat "$workdir/serve.out" >&2
        exit 1
    fi
    if [ "$(date +%s)" -ge "$deadline" ]; then
        echo "serve-smoke: wnserved never announced its port within 10s" >&2
        cat "$workdir/serve.out" >&2
        exit 1
    fi
    sleep 0.1
done
echo "serve-smoke: server at $url"

curl -sf "$url/healthz" >/dev/null
curl -sf "$url/readyz" >/dev/null

"$workdir/wnbench" -exp table1 >"$workdir/local.txt"
"$workdir/wnbench" -exp table1 -remote "$url" >"$workdir/remote.txt"
if ! diff -u "$workdir/local.txt" "$workdir/remote.txt"; then
    echo "serve-smoke: remote Table I output differs from local run"
    exit 1
fi
echo "serve-smoke: remote Table I output is byte-identical to local"

# A second remote run must be served from cache and still match.
"$workdir/wnbench" -exp table1 -remote "$url" >"$workdir/remote2.txt"
diff -u "$workdir/local.txt" "$workdir/remote2.txt" >/dev/null
curl -sf "$url/metrics" | grep -q '^wn_sweep_cache_hits_total [1-9]' \
    || { echo "serve-smoke: rerun did not hit the result cache"; exit 1; }
curl -sf "$url/metrics" | grep -q '^wn_serve_jobs_done_total 2$' \
    || { echo "serve-smoke: expected 2 completed jobs in metrics"; exit 1; }
echo "serve-smoke: cached rerun matched; metrics consistent"

# Harvested-power cells (intermittent execution under the energy model)
# must survive the wire byte for byte too, not just continuous-power ones.
"$workdir/wnbench" -exp fig10 >"$workdir/local-fig10.txt"
"$workdir/wnbench" -exp fig10 -remote "$url" >"$workdir/remote-fig10.txt"
if ! diff -u "$workdir/local-fig10.txt" "$workdir/remote-fig10.txt"; then
    echo "serve-smoke: remote Figure 10 output differs from local run"
    exit 1
fi
echo "serve-smoke: remote Figure 10 output is byte-identical to local"

kill -TERM "$server_pid"
for _ in $(seq 1 100); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "serve-smoke: server did not drain within 10s of SIGTERM"
    exit 1
fi
server_pid=""
grep -q 'wnserved: bye' "$workdir/serve.out" \
    || { echo "serve-smoke: missing clean-shutdown marker"; cat "$workdir/serve.out"; exit 1; }
echo "serve-smoke: graceful drain OK"
