#!/usr/bin/env bash
# Smoke-test a federation across processes and the fedserve ops endpoint
# end to end: build fedclient and fedserve, start a 3-client loopback
# federation with -ops-addr, wait for a round that applied, and check that
# the processes federated (completed updates, no dropouts), /healthz,
# /metrics (text + JSON) and pprof. Shared by `make ops-smoke` and the CI
# bench-smoke job.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
	rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir" ./cmd/fedclient ./cmd/fedserve

# Start the participants on ephemeral ports and parse the bound addresses
# from their announcements.
addrs=()
for i in 0 1 2; do
	"$workdir/fedclient" -index "$i" -listen 127.0.0.1:0 \
		>"$workdir/client$i.log" 2>&1 &
	pids+=($!)
done
for i in 0 1 2; do
	addr=
	for _ in $(seq 1 240); do
		addr=$(sed -n 's/.*serving on \(.*\)/\1/p' "$workdir/client$i.log" | head -1)
		[ -n "$addr" ] && break
		sleep 0.5
	done
	if [ -z "$addr" ]; then
		echo "fedclient $i never announced its address" >&2
		cat "$workdir/client$i.log" >&2
		exit 1
	fi
	addrs+=("$addr")
done

clients=$(IFS=,; echo "${addrs[*]}")
"$workdir/fedserve" -clients "$clients" -ops-addr 127.0.0.1:0 -mode none \
	>"$workdir/serve.log" 2>&1 &
serve_pid=$!
pids+=("$serve_pid")

fail() {
	echo "ops smoke: $1" >&2
	grep 'serve: ' "$workdir/serve.log" | tail -n 5 >&2 || true
	exit 1
}

ops=
for _ in $(seq 1 240); do
	ops=$(sed -n 's/.*ops endpoint up addr=\(.*\)/\1/p' "$workdir/serve.log" | head -1)
	[ -n "$ops" ] && break
	sleep 0.5
done
[ -n "$ops" ] || fail "fedserve never announced its ops endpoint"

# The processes federate once a round applies: a quorum of the clients
# answered over the wire. A fedserve whose clients all refuse it (say, at
# another URL layout) runs out of rounds without one, and exits.
applied=
for _ in $(seq 1 240); do
	applied=$(grep -m1 'serve: round done.*applied=true' "$workdir/serve.log" || true)
	[ -n "$applied" ] && break
	kill -0 "$serve_pid" 2>/dev/null || break
	sleep 0.5
done
[ -n "$applied" ] || fail "fedserve applied no round: the processes did not federate"

health=$(curl -fsS "http://$ops/healthz")
[ "$health" = "ok" ] || fail "/healthz answered '$health', want ok"
metrics=$(curl -fsS "http://$ops/metrics")
echo "$metrics" | grep -q '^fl_rounds_total ' || fail "/metrics missing fl_rounds_total"
completed=$(echo "$metrics" | sed -n 's/^fl_completed_updates_total //p')
dropped=$(echo "$metrics" | sed -n 's/^fl_dropped_total //p')
[ "${completed:-0}" -gt 0 ] || fail "fl_completed_updates_total is '$completed', want > 0"
[ "$dropped" = 0 ] || fail "fl_dropped_total is '$dropped', want 0"
echo "$metrics" | grep -q '^transport_call_seconds_bucket{le="+Inf"}' ||
	fail "/metrics missing transport_call_seconds buckets"
snapshot=$(curl -fsS "http://$ops/metrics?format=json")
echo "$snapshot" | grep -q '"counters"' || fail "/metrics?format=json is not a snapshot object"
curl -fsS "http://$ops/debug/pprof/cmdline" >/dev/null || fail "pprof endpoint unreachable"

echo "ops endpoint smoke: OK ($ops; $completed updates completed, none dropped)"
