#!/usr/bin/env bash
# The one-command lint gate: gofmt, go vet, memolint, and — when installed —
# goimports, staticcheck, deadcode, and govulncheck. CI installs the pinned
# versions of the optional tools (see .github/workflows/ci.yml); on a bare Go
# toolchain they are skipped with a notice so the gate still runs locally.
# Under CI=true a missing pinned tool fails the gate instead: a step that
# silently did not run proves nothing.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
fail=0

step() {
	echo "==> $1"
}

# have reports whether the pinned tool $1 is on PATH; when it is not, the
# step is skipped locally and is a failure under CI=true.
have() {
	command -v "$1" >/dev/null 2>&1 && return 0
	if [ "${CI:-}" = "true" ]; then
		echo "$1: not installed, and CI=true requires every pinned tool" >&2
		fail=1
	else
		step "$1 (not installed; skipped)"
	fi
	return 1
}

step "gofmt"
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "gofmt needed on:" >&2
	echo "$out" >&2
	fail=1
fi

if have goimports; then
	step "goimports"
	out="$(goimports -l .)"
	if [ -n "$out" ]; then
		echo "goimports needed on:" >&2
		echo "$out" >&2
		fail=1
	fi
fi

step "go vet"
go vet ./... || fail=1

step "memolint"
go run ./cmd/memolint -root "$root" || fail=1

if have staticcheck; then
	step "staticcheck ($(staticcheck -version 2>/dev/null || true))"
	staticcheck ./... || fail=1
fi

if have deadcode; then
	step "deadcode"
	# Functions no main and no test can reach: any finding, in any package,
	# fails the gate.
	out="$(deadcode -test ./... 2>&1)"
	if [ -n "$out" ]; then
		echo "$out" >&2
		echo "deadcode: unreachable functions" >&2
		fail=1
	fi
fi

if have govulncheck; then
	step "govulncheck"
	govulncheck ./... || fail=1
fi

if [ "$fail" -ne 0 ]; then
	echo "lint: FAILED" >&2
	exit 1
fi
echo "lint: ok"
