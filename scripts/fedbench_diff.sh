#!/usr/bin/env bash
# fedbench_diff.sh — the byte-identity check for changes to the experiment
# runner: builds cmd/fedbench at a base ref (in a temporary git worktree)
# and from the working tree, runs both with the same arguments, drops the
# wall-clock lines from each output, and diffs what is left.
#
# Usage: scripts/fedbench_diff.sh <base-ref> [fedbench args]
#        (default args: -exp all)
#
# Dropped lines: the "[<id> done in <s>s]" and "[all: ...]" timing lines,
# and Fig. 9's rows (seconds per phase). Every table cell and figure point
# must match. Exits 0 when the outputs agree, 1 with the diff when not, 2
# when a run fails.
set -euo pipefail

base=${1:?usage: $0 <base-ref> [fedbench args]}
shift
[ $# -gt 0 ] || set -- -exp all

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$tmp/base" "$base"
(cd "$tmp/base" && go build -o "$tmp/fedbench-base" ./cmd/fedbench)
(cd "$root" && go build -o "$tmp/fedbench-head" ./cmd/fedbench)

strip() {
	grep -v -E '^\[.* done in .*\]$|^\[all: |^(mnist|fashion|cifar) +[0-9.]+( +[0-9.]+){3}$' || true
}

# run NAME: runs fedbench-NAME, its log lines kept aside (shown on failure).
run() {
	local name=$1
	shift
	echo "fedbench $* ($name) ..." >&2
	"$tmp/fedbench-$name" "$@" 2>"$tmp/$name.log" | strip >"$tmp/$name.txt" ||
		{ tail -20 "$tmp/$name.log" >&2; exit 2; }
}
run base "$@"
run head "$@"

if diff -u --label "$base" --label "working tree" "$tmp/base.txt" "$tmp/head.txt"; then
	echo "fedbench $*: identical to $base apart from wall-clock lines" >&2
else
	exit 1
fi
