#!/usr/bin/env bash
#
# Mutation matrix: proves that each gate fails when the property it
# guards is broken.  The tree (HEAD plus uncommitted changes to
# tracked files) is copied to a temporary directory and built there in
# Release.  The unpatched copy must pass every lane the matrix uses;
# then each patch is applied in turn, the copy is rebuilt, the patch's
# ctest lane must fail, and the patch is reverted.  The failing shape
# predicates of each patch are printed.
#
# Usage: scripts/mutate.sh
#
# The copy lives under a mktemp directory (honours TMPDIR) that is
# removed on exit.  One full build plus an incremental rebuild per
# patch: a few minutes.  Exit status is non-zero if a patch leaves
# its lane green or no longer applies.

set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
TREE="$WORK/tree"
BUILD="$WORK/build"
GENERATOR=()
command -v ninja > /dev/null && GENERATOR=(-G Ninja)
JOBS="$(nproc 2> /dev/null || echo 2)"

mkdir -p "$TREE"
snapshot="$(git stash create)"
git archive "${snapshot:-HEAD}" | tar -x -C "$TREE"
cmake -B "$BUILD" -S "$TREE" "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=Release \
    > /dev/null

# build <log>: build what the lanes run; print the log on failure.
build() {
    cmake --build "$BUILD" -j "$JOBS" --target scamv-paper > "$1" 2>&1 ||
        { cat "$1"; return 1; }
}

# run_lane <label> <log>
run_lane() {
    ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS" -L "$1" \
        >> "$2" 2>&1
}

echo "== unpatched copy: the paper lane must pass =="
build "$WORK/baseline.log"
if ! run_lane paper "$WORK/baseline.log"; then
    cat "$WORK/baseline.log"
    echo "mutate: the unpatched tree fails the paper lane" >&2
    exit 1
fi

survivors=0

# mutant <name> <lane> <file> <text> <replacement>: replace the one
# occurrence of <text> in <file>, and require <lane> to fail.
mutant() {
    local name="$1" lane="$2" file="$TREE/$3" text="$4" repl="$5"
    local log="$WORK/$name.log"
    echo "== $name ($3) must fail the $lane lane =="
    cp "$file" "$WORK/original"
    if ! python3 - "$file" "$text" "$repl" << 'EOF'
import sys
path, text, repl = sys.argv[1:]
src = open(path).read()
if src.count(text) != 1:
    sys.exit(f"mutate: {path} holds {src.count(text)} copies of "
             f"{text!r}, not one; update the patch")
open(path, "w").write(src.replace(text, repl))
EOF
    then
        survivors=$((survivors + 1))
        return
    fi
    if ! build "$log"; then
        echo "BROKEN: $name does not build"
        survivors=$((survivors + 1))
    elif run_lane "$lane" "$log"; then
        echo "SURVIVED: $name leaves the $lane lane green"
        survivors=$((survivors + 1))
    else
        grep -E '^  FAIL  |^[[:space:]]+[0-9]+ - ' "$log" || cat "$log"
        echo "killed: $name"
    fi
    cp "$WORK/original" "$file"
}

mutant refinement-ignored paper src/core/pipeline.cc \
    'r.relCfg.refine = cfg.refinement.has_value();' \
    'r.relCfg.refine = false;'
mutant prefetch-crosses-pages paper src/hw/prefetcher.hh \
    'bool crossPageBoundary = false;' \
    'bool crossPageBoundary = true;'
mutant no-transient-window paper src/hw/core.hh \
    'int transientWindow = 8;' \
    'int transientWindow = 0;'

if [ "$survivors" -ne 0 ]; then
    echo "mutate: $survivors patch(es) survived, did not apply or did not build" >&2
    exit 1
fi
echo "== every patch fails its lane =="
