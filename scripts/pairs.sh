#!/usr/bin/env bash
# Alternating parent/change runs of the repo benchmark, and their verdict.
#
#   scripts/pairs.sh <parent> <change> <pairs> > table.md
#
# <parent> and <change> are any git tree-ish (a commit, or a tree from
# `git write-tree` for staged work). Both are `git archive`d into a temp dir
# and run there, each tree building its own daemon. Pair i runs both trees
# on seed 4000+i, every workload of BENCHMARK.json back to back, with the
# parent first in odd pairs and the change first in even ones; each run is
# `go run ./benchmark -workload W -seed S`, unchanged. Then each tree runs
# every workload once more with `-trace 1` (seed 5000) for the count band.
# Progress goes to stderr; the summary, count band and all-runs tables go to
# stdout as markdown.
#
# The verdict per end-to-end metric and workload reads BENCHMARK.json's
# bound and direction: worse when the change's median is worse by more than
# the bound; unresolved when the parent's own IQR (in percent of its median)
# exceeds the bound and not every change run beats every parent run; no
# worse otherwise. No verdict is given when any run reports correct:false or
# when the change fails a larger share of its operations than the parent.
#
# The count band sets the traced runs' per-op counts side by side. Server
# requests, WAL appends and forwards per op hold still where wall-clock time
# does not, so one of them that moved by more than 5 % is flagged, a finding
# even under a "no worse" verdict. Frames, fsyncs and context switches per
# op depend on how requests batch, which timing moves, so one traced run per
# side cannot resolve them: they are shown, unflagged. Beside the band, the
# traced runs' client retries and link faults (the timed runs print
# neither): with both 0, no op of a traced run reached a take token's
# held-claim path.
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: $0 <parent> <change> <pairs>" >&2
	exit 2
fi
parent=$1 change=$2 pairs=$3
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

for side in parent change; do
	mkdir -p "$work/$side"
	git -C "$root" archive "${!side}" | tar -x -C "$work/$side"
done
workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")

# record prints one run's benchmark last-line JSON as a .jsonl line, with
# the pair (0 for a traced run), seed, side, workload, which side ran first,
# and the run line's noisy mark: record <out> <pair> <seed> <first> <w> <side>.
record() {
	python3 - "$@" <<'EOF'
import json, sys
path, pair, seed, first, workload, side = sys.argv[1:]
lines = open(path).read().splitlines()
rec = {"pair": int(pair), "seed": int(seed), "first": first, "workload": workload, "side": side}
try:
    rec.update(json.loads(lines[-1]))
except (IndexError, ValueError):
    rec.update({"correct": False, "attempted": 0, "failed": 0, "metrics": {}})
    sys.stderr.write("no result line in %s:\n%s\n" % (path, "\n".join(lines[-20:])))
rec["noisy"] = next((json.loads(l[4:]).get("noisy") for l in lines if l.startswith("run {")), None)
print(json.dumps(rec))
EOF
}

for i in $(seq 1 "$pairs"); do
	seed=$((4000 + i))
	order="change parent"
	if [ $((i % 2)) -eq 1 ]; then
		order="parent change"
	fi
	for w in $workloads; do
		for side in $order; do
			echo "pair $i seed $seed: $w on $side" >&2
			out="$work/out-$i-$w-$side.txt"
			(cd "$work/$side" && go run ./benchmark -workload "$w" -seed "$seed") >"$out" 2>&1 || true
			record "$out" "$i" "$seed" "${order%% *}" "$w" "$side" >>"$work/runs.jsonl"
		done
	done
done
for w in $workloads; do
	for side in parent change; do
		echo "count band: $w on $side (-trace 1)" >&2
		out="$work/trace-$w-$side.txt"
		(cd "$work/$side" && go run ./benchmark -workload "$w" -seed 5000 -trace 1) >"$out" 2>&1 || true
		record "$out" 0 5000 parent "$w" "$side" >>"$work/traces.jsonl"
	done
done

python3 - "$root/BENCHMARK.json" "$work/runs.jsonl" "$parent" "$change" "$work/traces.jsonl" <<'EOF'
import json, statistics, sys
bench = json.load(open(sys.argv[1]))
runs = [json.loads(l) for l in open(sys.argv[2])]
parent, change = sys.argv[3], sys.argv[4]
traces = [json.loads(l) for l in open(sys.argv[5])]
metrics = bench["end_to_end"]
workloads = [w["name"] for w in bench["workloads"]]
pairs = max(r["pair"] for r in runs)
seeds = sorted({r["seed"] for r in runs})

def val(r, m):
    return r["metrics"].get(m, {}).get("value")

def fmt(x):
    return "%.4g" % x

print("# Alternating parent/change runs\n")
print("Parent `%s`, change `%s`; %d pairs, seeds %d–%d, produced by `scripts/pairs.sh`." % (parent, change, pairs, seeds[0], seeds[-1]))
print("\"change vs parent\" is signed so that **+ is worse** for every metric. "
      "IQR is `statistics.quantiles(values, n=4)` of the parent's runs, in percent of the parent's median.\n")

refused = []
bad = [r for r in runs if not r.get("correct")]
if bad:
    refused.append("%d runs report correct:false (%s)" % (len(bad), ", ".join(
        "pair %d %s %s" % (r["pair"], r["workload"], r["side"]) for r in bad)))
for w in workloads:
    share = {}
    for side in ("parent", "change"):
        rs = [r for r in runs if r["workload"] == w and r["side"] == side]
        att = sum(r.get("attempted", 0) for r in rs)
        share[side] = sum(r.get("failed", 0) for r in rs) / att if att else 0.0
    if share["change"] > share["parent"]:
        refused.append("`%s`: the change failed %.3g%% of its operations, the parent %.3g%%" % (
            w, 100 * share["change"], 100 * share["parent"]))
print("## Verdict\n")
if refused:
    print("**No verdict:** " + "; ".join(refused) + ".\n")
else:
    print("Every run is `correct:true`, and no workload's change failed a larger share of its operations than the parent.\n")

print("## Summary\n")
print("| workload | metric | parent median [Q1–Q3] | parent IQR | change median [Q1–Q3] | change vs parent (+ worse) | pairs change better | verdict |")
print("|---|---|---|---|---|---|---|---|")
for w in workloads:
    for m in metrics:
        name, sign, bound = m["name"], (1 if m["better"] == "lower" else -1), m["bound"]
        side = {s: {r["pair"]: val(r, name) for r in runs if r["workload"] == w and r["side"] == s and val(r, name) is not None}
                for s in ("parent", "change")}
        pv, cv = list(side["parent"].values()), list(side["change"].values())
        if len(pv) < 2 or len(cv) < 2:
            print("| `%s` | `%s` | – | – | – | – | – | too few runs |" % (w, name))
            continue
        pq, cq = statistics.quantiles(pv, n=4), statistics.quantiles(cv, n=4)
        pm, cm = statistics.median(pv), statistics.median(cv)
        iqr = (pq[2] - pq[0]) / pm
        delta = sign * (cm - pm) / pm
        both = [p for p in side["parent"] if p in side["change"]]
        won = sum(1 for p in both if sign * (side["change"][p] - side["parent"][p]) < 0)
        if refused:
            verdict = "no verdict"
        elif delta > bound:
            verdict = "worse"
        elif iqr > bound and not all(sign * (c - p) < 0 for c in cv for p in pv):
            verdict = "unresolved"
        else:
            verdict = "no worse"
        print("| `%s` | `%s` | %s [%s–%s] | %.1f %% | %s [%s–%s] | %+.1f %% | %d/%d | %s |" % (
            w, name, fmt(pm), fmt(pq[0]), fmt(pq[2]), 100 * iqr, fmt(cm), fmt(cq[0]), fmt(cq[2]),
            100 * delta, won, len(both), verdict))

band = ["rpc.server_requests_per_op", "durable.appends_per_op", "memoserver.forwards_per_op",
        "rpc.frames_per_op", "durable.fsyncs_per_op", "daemon.ctx_switches_per_op"]
steady = set(band[:3])
print("\n## Count band\n")
print("One `-trace 1` run per side and workload, seed 5000. Server requests, WAL appends and forwards per op, "
      "which timing does not move, are **flagged** when they moved by more than ±5 %. Frames, fsyncs and "
      "context switches per op depend on batching, so one traced run per side does not resolve them: "
      "they are shown unflagged.\n")
print("| workload | count | parent | change | change vs parent | flag |")
print("|---|---|---|---|---|---|")

def traced(w, side, name):
    return next((val(r, name) for r in traces if r["workload"] == w and r["side"] == side), None)

for w in workloads:
    for name in band:
        p, c = traced(w, "parent", name), traced(w, "change", name)
        if p is None or c is None:
            print("| `%s` | `%s` | %s | %s | – | no count |" % (w, name, "–" if p is None else fmt(p), "–" if c is None else fmt(c)))
            continue
        moved = (c - p) / p if p else (0.0 if c == 0 else float("inf"))
        flag = "**flagged**" if abs(moved) > 0.05 else ""
        print("| `%s` | `%s` | %s | %s | %+.1f %% | %s |" % (w, name, fmt(p), fmt(c), 100 * moved,
                                                      flag if name in steady else "unflagged"))
for side in ("parent", "change"):
    held = {n: sum(traced(w, side, n) or 0 for w in workloads) for n in ("client.retries", "memoserver.link_faults")}
    print("\n%s traced runs: `client.retries` %s, `memoserver.link_faults` %s%s." % (
        side.capitalize(), fmt(held["client.retries"]), fmt(held["memoserver.link_faults"]),
        " — no op of these runs was retried, so none could meet its own take token's held claim"
        " (the timed runs print neither count)" if not any(held.values()) else ""))

names = [m["name"] for m in metrics]
print("\n## All runs\n")
print("| pair | seed | first | workload | side | " + " | ".join(names) + " | correct | attempted | failed | noisy |")
print("|---" * (9 + len(names)) + "|")
for r in runs:
    vals = [val(r, n) for n in names]
    print("| %d | %d | %s | `%s` | %s | %s | %s | %s | %s | %s |" % (
        r["pair"], r["seed"], r["first"], r["workload"], r["side"],
        " | ".join("–" if v is None else "%.4g" % v for v in vals),
        r.get("correct"), r.get("attempted"), r.get("failed"), r.get("noisy")))
EOF
