#!/usr/bin/env bash
# Metrics smoke test: build the daemon, start it with the debug server armed
# on a loopback port, scrape /metrics (which series it must carry is
# memoserver.TestMetricCatalog's to say; here: that a real daemon serves an
# exposition and that the counters a put moves are positive), follow one
# traced put through /tracez, `memo top` and `memo trace`. Then shut it down
# with SIGTERM and require a clean exit — the graceful-shutdown path (debug
# server drained, WAL flushed) is part of what this smokes.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

tmp="$(mktemp -d)"
pids=()
cleanup() {
	for pid in "${pids[@]:-}"; do
		kill "$pid" 2>/dev/null || true
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

echo "==> memolint (covers internal/obs)"
go run ./cmd/memolint -root "$root"

echo "==> build daemon"
go build -o "$tmp/memoserverd" ./cmd/memoserverd

echo "==> build memo CLI"
go build -o "$tmp/memo" ./cmd/memo

echo "==> start daemon"
"$tmp/memoserverd" -host smoke -listen 127.0.0.1:7640 \
	-debug-addr 127.0.0.1:7641 -slow-request-threshold 1ns \
	-trace-sample 1 -ready-file "$tmp/smoke.ready" \
	-data-dir "$tmp/memo-data" >"$tmp/memoserverd.log" 2>&1 &
memo_pid=$!
pids+=("$memo_pid")

scrape() { # scrape <addr> <outfile>
	for _ in $(seq 1 50); do
		if curl -sf "http://$1/metrics" -o "$2" 2>/dev/null; then
			return 0
		fi
		sleep 0.1
	done
	return 1
}

echo "==> scrape memoserverd /metrics"
scrape 127.0.0.1:7641 "$tmp/memo-metrics" || {
	echo "memoserverd /metrics never came up" >&2
	cat "$tmp/memoserverd.log" >&2
	exit 1
}
grep -q '^# TYPE ' "$tmp/memo-metrics" || {
	echo "memoserverd /metrics is not a Prometheus exposition" >&2
	cat "$tmp/memo-metrics" >&2
	exit 1
}

echo "==> one exposition: no /statusz, no /slowz"
# Every number is in /metrics and the slow-request log is a section of
# /tracez; neither has an endpoint of its own.
for path in statusz slowz; do
	code="$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:7641/$path")"
	[ "$code" = 404 ] || {
		echo "/$path answered $code, want 404" >&2
		exit 1
	}
done

echo "==> traced request lands in /tracez"
cat >"$tmp/smoke.adf" <<'EOF'
APP smoke
HOSTS
smoke 1 sun4 1
FOLDERS
0 smoke
PROCESSES
0 boss smoke
EOF
"$tmp/memo" register -adf "$tmp/smoke.adf" -addr 127.0.0.1:7640 -host smoke -json >/dev/null || {
	echo "memo register failed" >&2
	cat "$tmp/memoserverd.log" >&2
	exit 1
}
put_out="$("$tmp/memo" put -adf "$tmp/smoke.adf" -addr 127.0.0.1:7640 -host smoke \
	-key 7 -value smoked -trace -json)" || {
	echo "memo put -trace failed" >&2
	exit 1
}
scrape 127.0.0.1:7641 "$tmp/memo-metrics"
# Allocations per op is go_alloc_objects_total over rpc_server_requests_total:
# both must be there as plain positive numbers, the put's dedup token must
# show in the table's gauge, and at 1ns and -trace-sample 1 the put counted
# as slow and as sampled.
for series in go_alloc_objects_total rpc_server_requests_total folder_tokens \
	slow_requests_total trace_samples_total; do
	awk -v s="$series" '{ n = $1; sub(/\{.*/, "", n) } n == s && $NF > 0 { ok = 1 } END { exit !ok }' \
		"$tmp/memo-metrics" || {
		echo "memoserverd /metrics: $series is not positive after a put" >&2
		grep "^$series" "$tmp/memo-metrics" >&2 || true
		exit 1
	}
done
trace_id="$(printf '%s' "$put_out" | sed -n 's/.*"trace":"\([^"]*\)".*/\1/p')"
[ -n "$trace_id" ] || {
	echo "memo put -trace reported no trace id: $put_out" >&2
	exit 1
}
# Sampled and, at a 1ns threshold, slow: both sections of /tracez hold it
# (the body is indented JSON: "recent", then "slow_threshold_ns", then "slow").
curl -sf "http://127.0.0.1:7641/tracez?trace=$trace_id" -o "$tmp/tracez"
sed -n '/"recent": \[/,/"slow_threshold_ns"/p' "$tmp/tracez" | grep -q '"layer": *"memo"' || {
	echo "/tracez does not serve the sampled trace $trace_id" >&2
	cat "$tmp/tracez" >&2
	exit 1
}
sed -n '/"slow": \[/,$p' "$tmp/tracez" | grep -q '"layer": *"memo"' || {
	echo "the slow section of /tracez does not hold the traced put $trace_id" >&2
	cat "$tmp/tracez" >&2
	exit 1
}

echo "==> memo top -once renders the cluster table"
top_out="$("$tmp/memo" top -once -ready-files "$tmp/smoke.ready")" || {
	echo "memo top -once failed" >&2
	exit 1
}
printf '%s\n' "$top_out" | grep -q '^NODE' || {
	echo "memo top output missing table header: $top_out" >&2
	exit 1
}
printf '%s\n' "$top_out" | grep -q '^smoke[[:space:]]*yes' || {
	echo "memo top did not render node 'smoke' as up: $top_out" >&2
	exit 1
}
# Read from /metrics, the row counts the put resolved on this host.
printf '%s\n' "$top_out" | awk '$1 == "smoke" && $3 >= 1 { ok = 1 } END { exit !ok }' || {
	echo "memo top did not count the put in node 'smoke''s LOCAL column: $top_out" >&2
	exit 1
}

echo "==> memo trace merges the span timeline"
trace_out="$("$tmp/memo" trace -ready-files "$tmp/smoke.ready" "$trace_id")" || {
	echo "memo trace $trace_id failed" >&2
	exit 1
}
for layer in memo folder durable; do
	printf '%s\n' "$trace_out" | grep -q "$layer" || {
		echo "memo trace timeline missing layer $layer:" >&2
		printf '%s\n' "$trace_out" >&2
		exit 1
	}
done

echo "==> graceful shutdown (SIGTERM)"
kill -TERM "$memo_pid"
if ! wait "$memo_pid"; then
	echo "memoserverd exited non-zero" >&2
	cat "$tmp/memoserverd.log" >&2
	exit 1
fi
pids=()
grep -q "bye" "$tmp/memoserverd.log" || {
	echo "memoserverd did not log a clean shutdown" >&2
	cat "$tmp/memoserverd.log" >&2
	exit 1
}

echo "metrics smoke: ok"
