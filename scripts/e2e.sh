#!/usr/bin/env bash
# E2E chaos smoke: run the black-box harness in test/e2e against the real
# daemon binaries. The harness boots a 3-node TCP cluster (durability on,
# peer links through severable proxies), drives a seeded mixed-action
# trace through the client library AND the memo CLI — including one
# SIGKILL-and-restart and one link sever/heal per trace — then drains the
# cluster and audits the exactly-once/convergence oracle. The runner is the
# one the in-process cluster runs in plain `go test ./...` (RunChaos over
# its Target interface): every library op on a bounded async pool, so
# faults land on work in flight. The regression seed corpus
# (test/e2e/regression_seeds.json) replays on both clusters, in-process and
# on the daemons, so every previously-found bug stays found.
#
# Knobs (env): E2E_SEED picks the fresh smoke seed, E2E_FULL=1 adds the
# long multi-seed sweep, E2E_NO_MINIMIZE=1 skips failing-seed shrinking.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

run='TestSmoke|TestRegressionSeeds'
if [ "${E2E_FULL:-}" = "1" ]; then
	run="$run|TestChaosSweep"
fi

echo "==> e2e chaos smoke (-race, daemons race-built too)"
E2E=1 go test -race -run "$run" ./test/e2e/ -count=1 -timeout 600s -v

echo "e2e smoke: ok"
