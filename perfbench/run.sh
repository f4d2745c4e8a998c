#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# repository root:
#   bash perfbench/run.sh --workload scene512 --seed 1 --seconds 10 --trace 0
# The Go build cache, temporary files, the binary and each run's record
# and trace all stay under .bench_build/ at the root. In a git work tree
# the run is labelled with HEAD, suffixed -dirty when tracked files
# differ from it, so -compare keeps modified code apart from its parent.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench-bin" .)
commit=unknown
if [ -e .git ] && command -v git >/dev/null && head=$(git rev-parse HEAD 2>/dev/null); then
	commit=$head
	GIT_OPTIONAL_LOCKS=0 git diff --quiet HEAD -- 2>/dev/null || commit="$head-dirty"
fi
exec "$build/perfbench-bin" --commit "$commit" "$@"
