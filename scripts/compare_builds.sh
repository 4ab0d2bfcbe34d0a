#!/usr/bin/env bash
#
# Byte-compare the campaign artifacts of two builds: run
# `scamv_worker --single` from each build over a fixed matrix of
# workloads and `cmp` every artifact it writes (db.csv, metrics.json,
# coverage.json, stats.json, plus findings.json and qcache.txt where
# the leg produces them).  Exits non-zero on any difference.
#
# The warm leg also checks that build B decodes build A's query cache
# checkpoint: build A runs cold and writes qcache.txt, then each build
# runs warm from its own copy of that file.  Every query must hit, so
# neither warm run appends a record to its copy.
#
# Usage: scripts/compare_builds.sh <build-a> <build-b>
#
# Each build directory must contain src/shard/scamv_worker, e.g.
#   cmake -S . -B build-x -G Ninja -DCMAKE_BUILD_TYPE=Release
#   cmake --build build-x --target scamv_worker

set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <build-a> <build-b>" >&2
    exit 2
fi
WORKER_A="$(cd "$1" && pwd)/src/shard/scamv_worker"
WORKER_B="$(cd "$2" && pwd)/src/shard/scamv_worker"
cd "$(dirname "$0")/.."
for w in "$WORKER_A" "$WORKER_B"; do
    [ -x "$w" ] || { echo "missing $w" >&2; exit 2; }
done
CORPUS="$(pwd)/examples/corpus"

# Only the matrix below may configure the campaigns.
for v in $(compgen -e | grep '^SCAMV_' || true); do
    unset "$v"
done

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

# Run one leg with both workers.  Arguments: leg name, then
# `VAR=value` environment settings, then `--` and worker flags.  The
# string @DIR@ in a setting is replaced by the leg's output directory.
failed=0
warm_from=""
run_leg() {
    local name="$1"
    shift
    local envs=()
    while [ $# -gt 0 ] && [ "$1" != "--" ]; do
        envs+=("$1")
        shift
    done
    [ $# -gt 0 ] && shift
    local side worker dir
    for side in a b; do
        worker="$WORKER_A"
        [ "$side" = b ] && worker="$WORKER_B"
        dir="$OUT/$name/$side"
        mkdir -p "$dir"
        [ -n "$warm_from" ] && cp "$warm_from" "$dir/qcache.txt"
        env "${envs[@]//@DIR@/$dir}" "$worker" --single --dir "$dir" "$@" \
            > "$dir.log" 2>&1 || {
            echo "FAIL $name: worker $side exited non-zero" >&2
            cat "$dir.log" >&2
            failed=1
            return
        }
    done
    local files f
    files="$(cd "$OUT/$name/a" && ls)"
    if [ "$files" != "$(cd "$OUT/$name/b" && ls)" ]; then
        echo "FAIL $name: artifact sets differ" >&2
        failed=1
        return
    fi
    local same=1
    for f in $files; do
        if ! cmp -s "$OUT/$name/a/$f" "$OUT/$name/b/$f"; then
            echo "FAIL $name: $f differs" >&2
            same=0
            failed=1
        fi
    done
    if [ "$same" -eq 1 ]; then
        echo "ok   $name:" $files
    fi
}

run_leg default --
run_leg line -- --line
run_leg adaptive -- --adaptive
run_leg corpus -- --corpus "$CORPUS"
run_leg faults SCAMV_FAULT_RATE=0.2 SCAMV_TRIAGE=1 SCAMV_MINIMIZE=1 \
    SCAMV_FINDINGS_FILE=@DIR@/findings.json --
run_leg qcache SCAMV_QCACHE_MB=8 --

# Cross-build warm leg: build A's cold checkpoint seeds both sides.
# qcache.* counters live in the process-global registry, not in
# metrics.json, so "every query hit" is checked on the checkpoint: a
# miss that solves stores, and a store appends a record.
cold="$OUT/warm-cold"
mkdir -p "$cold"
if SCAMV_QCACHE_MB=64 "$WORKER_A" --single --dir "$cold" \
    > "$cold.log" 2>&1; then
    warm_from="$cold/qcache.txt"
    run_leg warm SCAMV_QCACHE_MB=64 --
    warm_from=""
    for side in a b; do
        if ! cmp -s "$cold/qcache.txt" "$OUT/warm/$side/qcache.txt"; then
            echo "FAIL warm: warm run $side missed the checkpoint" >&2
            failed=1
        fi
    done
else
    echo "FAIL warm: cold worker a exited non-zero" >&2
    cat "$cold.log" >&2
    failed=1
fi

if [ "$failed" -ne 0 ]; then
    echo "compare_builds: artifacts differ" >&2
    exit 1
fi
echo "compare_builds: all artifacts byte-identical"
