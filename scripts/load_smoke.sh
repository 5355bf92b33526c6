#!/usr/bin/env bash
# Load-smoke the streaming aggregation path end to end: a fedload fleet
# hosting POP synthetic clients behind one listener, driven by fedserve in
# fleet mode (registry sampling + streaming sharded aggregation) for
# ROUNDS rounds of SELECT-client cohorts. Asserts:
#
#   - at least one round reached quorum and applied,
#   - the fleet recovered zero handler panics and served >0 updates,
#   - the server registered the whole population (fl_registered_clients),
#   - server heap stayed under HEAP_BOUND — memory follows the cohort,
#     not the population (the same bound must hold for POP=10k and 100k),
#   - the streaming window actually bounded the in-flight working set,
#   - the report-collection phase (RAP + MVP over one cohort) stayed at
#     or under REPORT_CEIL bytes per report on the wire (a RanksDelta or a
#     VoteBitmap of the fleet clients' 64 canned units; DESIGN.md §14),
#   - the update exchange stayed at raw-vector size both ways: received
#     update bytes per completed update, and sent request bytes per
#     attempt, each at or under 8 bytes per parameter + 64 (the versioned
#     envelope, the only wire format; DESIGN.md §15),
#   - a durable run SIGKILLed right after its first checkpoint restarts
#     with -resume, actually resumes (fl_resumes_total), finishes the
#     remaining rounds under the same heap bound, and leaves the fleet
#     with zero recovered panics (DESIGN.md §15),
#   - the tracing + audit trail (DESIGN.md §16): the server's /trace and
#     /rounds surfaces and the -flight-recorder JSONL all parse through
#     fedtrace (which exits non-zero on malformed JSON), the audit count
#     matches the rounds the logs show — including across the
#     SIGKILL-and-resume leg, whose two processes append to one file —
#     and both the server's and the fleet's rings carry their spans.
#
# Metrics snapshots are left in OUT_DIR (default ./load-smoke-artifacts)
# for the CI artifact upload. Shared by `make load-smoke`, the CI
# load-smoke job (POP=10000) and the nightly 100k variant.
set -euo pipefail
cd "$(dirname "$0")/.."

POP=${POP:-10000}
SELECT=${SELECT:-256}
# Enough rounds that fedserve is still running when its ops endpoint is
# polled below: at envelope speed three rounds are over in a quarter of a
# second.
ROUNDS=${ROUNDS:-20}
HEAP_BOUND=${HEAP_BOUND:-268435456} # 256 MiB
TIMEOUT=${TIMEOUT:-120}
OUT_DIR=${OUT_DIR:-load-smoke-artifacts}
REPORT_CEIL=${REPORT_CEIL:-256}
RESUME_ROUNDS=${RESUME_ROUNDS:-$ROUNDS}

workdir=$(mktemp -d)
mkdir -p "$OUT_DIR"
pids=()
cleanup() {
	for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
	rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
	echo "load smoke: $1" >&2
	exit 1
}

go build -o "$workdir" ./cmd/fedload ./cmd/fedserve ./cmd/fedtrace

"$workdir/fedload" -clients "$POP" -listen 127.0.0.1:0 -ops-addr 127.0.0.1:0 \
	>"$workdir/fedload.log" 2>&1 &
pids+=($!)

fleet=
for _ in $(seq 1 240); do
	fleet=$(sed -n 's/.*serving on \(.*\)/\1/p' "$workdir/fedload.log" | head -1)
	[ -n "$fleet" ] && break
	sleep 0.5
done
[ -n "$fleet" ] || { cat "$workdir/fedload.log" >&2; fail "fedload never announced its address"; }
fleet_ops=
for _ in $(seq 1 240); do
	fleet_ops=$(sed -n 's/.*ops endpoint up addr=\(.*\)/\1/p' "$workdir/fedload.log" | head -1)
	[ -n "$fleet_ops" ] && break
	sleep 0.5
done
[ -n "$fleet_ops" ] || fail "fedload never announced its ops endpoint"

"$workdir/fedserve" -fleet "$fleet" -fleet-count "$POP" -select "$SELECT" \
	-streaming -rounds "$ROUNDS" -quorum 0.9 -ops-addr 127.0.0.1:0 \
	-flight-recorder "$workdir/flight.jsonl" \
	>"$workdir/serve.log" 2>&1 &
serve_pid=$!
pids+=($serve_pid)

serve_ops=
for _ in $(seq 1 1200); do
	serve_ops=$(sed -n 's/.*ops endpoint up addr=\(.*\)/\1/p' "$workdir/serve.log" | head -1)
	[ -n "$serve_ops" ] && break
	kill -0 "$serve_pid" 2>/dev/null || break
	sleep 0.1
done

# Poll the server's JSON snapshot while it runs; the last capture before
# exit is the artifact. The text snapshot fedserve prints on exit backs
# the assertions below.
deadline=$((SECONDS + TIMEOUT))
while kill -0 "$serve_pid" 2>/dev/null; do
	if [ "$SECONDS" -ge "$deadline" ]; then
		cat "$workdir/serve.log" >&2
		fail "fedserve did not finish $ROUNDS rounds within ${TIMEOUT}s"
	fi
	if [ -n "$serve_ops" ]; then
		for ep in "metrics?format=json:server_metrics.json" \
			"trace:server_trace.json" \
			"trace?format=records:server_trace_records.json" \
			"rounds:server_rounds.json"; do
			curl -fsS "http://$serve_ops/${ep%%:*}" \
				>"$OUT_DIR/${ep#*:}.tmp" 2>/dev/null &&
				mv "$OUT_DIR/${ep#*:}.tmp" "$OUT_DIR/${ep#*:}" || true
		done
	fi
	sleep 0.2
done
wait "$serve_pid" || { cat "$workdir/serve.log" >&2; fail "fedserve exited non-zero"; }
cp "$workdir/serve.log" "$OUT_DIR/serve.log"

# The fleet is still up: snapshot its metrics for the artifact and gates.
curl -fsS "http://$fleet_ops/metrics?format=json" >"$OUT_DIR/fedload_metrics.json" ||
	fail "could not snapshot fedload metrics"
fleet_metrics=$(curl -fsS "http://$fleet_ops/metrics")

metric() { # metric <text> <name> -> value (0 when absent)
	echo "$1" | sed -n "s/^$2 //p" | head -1
}

applied=$(grep -c 'applied=true' "$workdir/serve.log" || true)
[ "$applied" -ge 1 ] || { cat "$workdir/serve.log" >&2; fail "no round reached quorum and applied"; }

panics=$(metric "$fleet_metrics" fedload_handler_panics_total)
[ "${panics:-0}" = "0" ] || fail "fleet recovered $panics handler panics, want 0"
updates=$(metric "$fleet_metrics" fedload_updates_total)
[ "${updates:-0}" -ge "$SELECT" ] || fail "fleet served ${updates:-0} updates, want >= $SELECT"
hosted=$(metric "$fleet_metrics" fedload_clients)
[ "${hosted:-0}" = "$POP" ] || fail "fleet hosts ${hosted:-0} clients, want $POP"

# fedserve's exit snapshot (text format) carries the server-side gauges.
server_metrics=$(sed -n '/final metrics snapshot:/,$p' "$workdir/serve.log")
registered=$(metric "$server_metrics" fl_registered_clients)
[ "${registered:-0}" = "$POP" ] || fail "server registered ${registered:-0} clients, want $POP"
heap=$(metric "$server_metrics" process_heap_alloc_bytes)
[ -n "${heap:-}" ] && [ "$heap" -gt 0 ] || fail "server heap gauge missing from exit snapshot"
[ "$heap" -lt "$HEAP_BOUND" ] ||
	fail "server heap $heap bytes >= bound $HEAP_BOUND — memory is scaling with the population"
peak=$(metric "$server_metrics" fl_stream_inflight_peak)
[ "${peak:-0}" -ge 1 ] || fail "fl_stream_inflight_peak is ${peak:-0}; streaming path did not run"

# Report-path bandwidth gate: the fleet must have served defense reports
# and the server-side average payload must fit the per-report ceiling.
reports=$(metric "$fleet_metrics" fedload_reports_total)
[ "${reports:-0}" -ge 1 ] || fail "fleet served ${reports:-0} defense reports, want >= 1"
per_report=$(sed -n 's/.*bytes_per_report=\([0-9]*\).*/\1/p' "$workdir/serve.log" | head -1)
[ -n "${per_report:-}" ] || { cat "$workdir/serve.log" >&2; fail "fedserve logged no report-collection phase"; }
[ "$per_report" -le "$REPORT_CEIL" ] ||
	fail "report payloads average $per_report bytes, exceeding ceiling $REPORT_CEIL"

# Update-path bandwidth gate, both directions: an envelope is the raw
# little-endian vector plus a few dozen bytes of framing, so anything
# above 8 bytes per parameter + 64 means a fatter encoding is back on
# the wire.
params=$(sed -n 's/.*fleet training start.* params=\([0-9]*\).*/\1/p' "$workdir/serve.log" | head -1)
[ -n "${params:-}" ] || { cat "$workdir/serve.log" >&2; fail "fedserve did not log the model's parameter count"; }
update_ceil=$((8 * params + 64))
completed=$(metric "$server_metrics" fl_completed_updates_total)
update_recv=$(metric "$server_metrics" transport_update_bytes_recv_total)
[ "${completed:-0}" -ge 1 ] || fail "server completed ${completed:-0} updates, want >= 1"
per_update=$((${update_recv:-0} / completed))
[ "$per_update" -ge 1 ] && [ "$per_update" -le "$update_ceil" ] ||
	fail "update responses average $per_update bytes, want 1..$update_ceil (8 x $params params + 64)"
attempts=$(metric "$server_metrics" transport_attempts_total)
request_sent=$(metric "$server_metrics" transport_request_bytes_sent_total)
[ "${attempts:-0}" -ge 1 ] || fail "server made ${attempts:-0} request attempts, want >= 1"
per_request=$((${request_sent:-0} / attempts))
[ "$per_request" -ge 1 ] && [ "$per_request" -le "$update_ceil" ] ||
	fail "requests average $per_request bytes, want 1..$update_ceil (8 x $params params + 64)"

echo "load smoke: OK (population=$POP cohort=$SELECT rounds=$applied applied," \
	"fleet updates=$updates, reports=$reports at $per_report B/report," \
	"$per_update B/update and $per_request B/request against a ceiling of $update_ceil," \
	"server heap=$heap bytes, peak in-flight=$peak)"

# ---- Tracing + audit-trail gates (DESIGN.md §16) ---------------------
# fedtrace exits non-zero on any malformed JSON, so piping every captured
# artifact through it doubles as the well-formedness gate; the summaries
# land in OUT_DIR next to the raw captures.
cp "$workdir/flight.jsonl" "$OUT_DIR/flight.jsonl" 2>/dev/null ||
	fail "fedserve left no flight-recorder file"
"$workdir/fedtrace" -flight "$OUT_DIR/flight.jsonl" >"$OUT_DIR/flight_summary.txt" ||
	fail "flight-recorder JSONL is malformed"
audits=$(sed -n 's/^summary: rounds total=\([0-9]*\).*/\1/p' "$OUT_DIR/flight_summary.txt" | head -1)
[ "${audits:-0}" = "$ROUNDS" ] ||
	fail "flight recorder audited ${audits:-0} rounds, want $ROUNDS"
audit_applied=$(sed -n 's/^summary: rounds total=[0-9]* applied=\([0-9]*\).*/\1/p' \
	"$OUT_DIR/flight_summary.txt" | head -1)
[ "${audit_applied:-0}" = "$applied" ] ||
	fail "flight recorder shows ${audit_applied:-0} applied rounds, log shows $applied"
[ -s "$OUT_DIR/server_trace.json" ] && [ -s "$OUT_DIR/server_trace_records.json" ] &&
	[ -s "$OUT_DIR/server_rounds.json" ] ||
	fail "missing /trace or /rounds captures from the server ops endpoint"
"$workdir/fedtrace" -trace "$OUT_DIR/server_trace_records.json" \
	-rounds "$OUT_DIR/server_rounds.json" >"$OUT_DIR/server_trace_summary.txt" ||
	fail "server /trace or /rounds capture is malformed"
grep -q '^summary: phase name=fl.round ' "$OUT_DIR/server_trace_summary.txt" ||
	fail "server span ring recorded no fl.round spans"
grep -q '^summary: phase name=transport.attempt ' "$OUT_DIR/server_trace_summary.txt" ||
	fail "server span ring recorded no transport.attempt spans"
grep -q '^summary: rounds endpoint retained=' "$OUT_DIR/server_trace_summary.txt" ||
	fail "/rounds capture carried no audit window"
# The fleet's ring holds the far side of the same traces.
curl -fsS "http://$fleet_ops/trace?format=records" >"$OUT_DIR/fedload_trace_records.json" ||
	fail "could not capture the fleet's /trace records"
"$workdir/fedtrace" -trace "$OUT_DIR/fedload_trace_records.json" \
	>"$OUT_DIR/fedload_trace_summary.txt" ||
	fail "fleet /trace capture is malformed"
grep -q '^summary: phase name=fedload.update ' "$OUT_DIR/fedload_trace_summary.txt" ||
	fail "fleet span ring recorded no fedload.update spans"

echo "load smoke: tracing OK (audits=$audits rounds, applied=$audit_applied," \
	"server and fleet rings populated, all captures parse)"

# ---- Kill-and-resume leg (DESIGN.md §15) -----------------------------
# A fresh durable run against the still-warm fleet: SIGKILL fedserve as
# soon as its first checkpoint lands, restart it with -resume, and
# require the restart to actually resume and finish RESUME_ROUNDS more
# rounds. The killed run gets an effectively unbounded round budget so
# the kill always lands mid-run regardless of scale; the restart's round
# target is derived from the checkpoint it resumes (the boundary file
# name carries the next round). The torn temp file a mid-write kill can
# leave behind must be skipped, not fatal.
ckpt="$workdir/ckpt"
mkdir -p "$ckpt"

"$workdir/fedserve" -fleet "$fleet" -fleet-count "$POP" -select "$SELECT" \
	-streaming -rounds 1000000 -quorum 0.9 \
	-checkpoint-dir "$ckpt" -checkpoint-every 1 \
	-flight-recorder "$workdir/flight_kill.jsonl" \
	>"$workdir/serve_kill.log" 2>&1 &
kill_pid=$!
pids+=($kill_pid)

have_ckpt=
for _ in $(seq 1 1200); do
	if ls "$ckpt"/ckpt-*.fcc >/dev/null 2>&1; then have_ckpt=1; break; fi
	kill -0 "$kill_pid" 2>/dev/null || break
	sleep 0.1
done
[ -n "$have_ckpt" ] || { cat "$workdir/serve_kill.log" >&2; fail "no checkpoint appeared before the scripted kill"; }
kill -9 "$kill_pid" 2>/dev/null || fail "fedserve died before the scripted SIGKILL"
wait "$kill_pid" 2>/dev/null || true
cp "$workdir/serve_kill.log" "$OUT_DIR/serve_kill.log"

# The newest boundary checkpoint ckpt-NNNNNNNN-f.fcc names the round the
# restart resumes at; run RESUME_ROUNDS more rounds from there.
next=$(ls "$ckpt"/ckpt-*-f.fcc | sort | tail -1 |
	sed -n 's/.*ckpt-\([0-9]*\)-f\.fcc/\1/p')
[ -n "${next:-}" ] || fail "could not parse the resume round from $ckpt"
next=$((10#$next))

"$workdir/fedserve" -fleet "$fleet" -fleet-count "$POP" -select "$SELECT" \
	-streaming -rounds $((next + RESUME_ROUNDS)) -quorum 0.9 \
	-checkpoint-dir "$ckpt" -resume \
	-flight-recorder "$workdir/flight_kill.jsonl" \
	>"$workdir/serve_resume.log" 2>&1 &
resume_pid=$!
pids+=($resume_pid)

deadline=$((SECONDS + TIMEOUT))
while kill -0 "$resume_pid" 2>/dev/null; do
	if [ "$SECONDS" -ge "$deadline" ]; then
		cat "$workdir/serve_resume.log" >&2
		fail "resumed fedserve did not finish within ${TIMEOUT}s"
	fi
	sleep 1
done
wait "$resume_pid" || { cat "$workdir/serve_resume.log" >&2; fail "resumed fedserve exited non-zero"; }
cp "$workdir/serve_resume.log" "$OUT_DIR/serve_resume.log"

grep -q 'resumed from checkpoint' "$workdir/serve_resume.log" ||
	{ cat "$workdir/serve_resume.log" >&2; fail "restart did not resume from the checkpoint"; }
resume_metrics=$(sed -n '/final metrics snapshot:/,$p' "$workdir/serve_resume.log")
resumes=$(metric "$resume_metrics" fl_resumes_total)
[ "${resumes:-0}" -ge 1 ] || fail "fl_resumes_total is ${resumes:-0} after restart, want >= 1"
rheap=$(metric "$resume_metrics" process_heap_alloc_bytes)
[ -n "${rheap:-}" ] && [ "$rheap" -gt 0 ] || fail "resumed server heap gauge missing from exit snapshot"
[ "$rheap" -lt "$HEAP_BOUND" ] ||
	fail "resumed server heap $rheap bytes >= bound $HEAP_BOUND"
rapplied=$(grep -c 'applied=true' "$workdir/serve_resume.log" || true)
[ "$rapplied" -ge 1 ] || { cat "$workdir/serve_resume.log" >&2; fail "resumed run applied no round"; }
fleet_metrics=$(curl -fsS "http://$fleet_ops/metrics")
panics=$(metric "$fleet_metrics" fedload_handler_panics_total)
[ "${panics:-0}" = "0" ] ||
	fail "fleet recovered $panics handler panics across the kill-and-resume leg, want 0"

# The two coordinator processes append to one flight-recorder file; the
# audit trail must parse whole (a SIGKILL must not leave a torn line) and
# cover every round the two logs show completed — at most one extra for a
# round audited in the kill window before its log line flushed.
cp "$workdir/flight_kill.jsonl" "$OUT_DIR/flight_kill.jsonl" 2>/dev/null ||
	fail "kill-and-resume leg left no flight-recorder file"
"$workdir/fedtrace" -flight "$OUT_DIR/flight_kill.jsonl" >"$OUT_DIR/flight_kill_summary.txt" ||
	fail "kill-and-resume flight-recorder JSONL is malformed"
kaudits=$(sed -n 's/^summary: rounds total=\([0-9]*\).*/\1/p' "$OUT_DIR/flight_kill_summary.txt" | head -1)
kill_done=$(grep -c 'round done' "$workdir/serve_kill.log" || true)
resume_done=$(grep -c 'round done' "$workdir/serve_resume.log" || true)
done_total=$((kill_done + resume_done))
[ "${kaudits:-0}" -ge "$done_total" ] && [ "${kaudits:-0}" -le $((done_total + 1)) ] ||
	fail "kill-and-resume audit trail has ${kaudits:-0} rounds, logs show $done_total completed"

echo "load smoke: kill-and-resume OK (resumes=$resumes," \
	"applied=$rapplied rounds after restart, heap=$rheap bytes, fleet panics=0," \
	"audit trail=$kaudits rounds across the kill)"
