#!/usr/bin/env bash
# The one-command lint gate: gofmt, go vet, memolint, and — when installed —
# goimports, staticcheck, deadcode, and govulncheck. CI installs the pinned
# versions of the optional tools (see .github/workflows/ci.yml); on a bare Go
# toolchain they are skipped with a notice so the gate still runs locally.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
fail=0

step() {
	echo "==> $1"
}

step "gofmt"
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "gofmt needed on:" >&2
	echo "$out" >&2
	fail=1
fi

if command -v goimports >/dev/null 2>&1; then
	step "goimports"
	out="$(goimports -l .)"
	if [ -n "$out" ]; then
		echo "goimports needed on:" >&2
		echo "$out" >&2
		fail=1
	fi
else
	step "goimports (not installed; skipped)"
fi

step "go vet"
go vet ./... || fail=1

step "memolint"
go run ./cmd/memolint -root "$root" || fail=1

if command -v staticcheck >/dev/null 2>&1; then
	step "staticcheck ($(staticcheck -version 2>/dev/null || true))"
	staticcheck ./... || fail=1
else
	step "staticcheck (not installed; skipped)"
fi

if command -v deadcode >/dev/null 2>&1; then
	step "deadcode"
	# Functions no main and no test can reach. The packages named here have
	# been cleaned and gate; findings elsewhere are printed so they can be
	# worked down, and a package joins the pattern once it is clean.
	out="$(deadcode -test ./... 2>&1)"
	if [ -n "$out" ]; then
		echo "$out"
		if echo "$out" | grep -qE '^(internal/(folder|memoserver|cluster)|cmd)/'; then
			echo "deadcode: unreachable functions in a gated package" >&2
			fail=1
		fi
	fi
else
	step "deadcode (not installed; skipped)"
fi

if command -v govulncheck >/dev/null 2>&1; then
	step "govulncheck"
	govulncheck ./... || fail=1
else
	step "govulncheck (not installed; skipped)"
fi

if [ "$fail" -ne 0 ]; then
	echo "lint: FAILED" >&2
	exit 1
fi
echo "lint: ok"
