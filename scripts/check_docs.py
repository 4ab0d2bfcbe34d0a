#!/usr/bin/env python3
"""Verify the operator documentation against the code.

The single source of truth for ``SCAMV_*`` environment variables is
the "Environment variables" table in ``README.md``.  This script
fails when the docs and the code drift apart:

 - every variable the code actually reads (a quoted ``"SCAMV_..."``
   string literal in ``src/``) must have a row in the README table;
 - every row in the README table must correspond to a variable read
   somewhere in ``src/`` or ``tests/`` (no stale documentation);
 - the ``SCAMV_FAULT_PLAN`` README row must list exactly the
   canonical fault-site names ``siteName`` returns
   (``src/support/faults.cc``), so a new injection site cannot land
   without its documentation;
 - every ``SCAMV_SVC_*`` variable must additionally have a row in
   the ``OPERATIONS.md`` service-configuration table (the daemon's
   operator manual), and that table must hold no stale rows;
 - every SC kernel in ``examples/corpus/`` must be listed in the
   README corpus table (a ``\`<name>.sc\``` mention), and the README
   must not list kernels that no longer exist — a corpus change
   cannot land without its one-line side-channel story.
 - every ``bench_<name>`` the operator docs mention must be a
   ``scamv_bench(<name>)`` target in ``bench/CMakeLists.txt``, and no
   doc may name a ``BENCH_*.json`` report — nothing writes one since
   the feature gates became ctest counter assertions.

Only quoted literals count as usage — prose mentions in comments do
not — so the check tracks real ``getenv``/``envLong``/``envDouble``
lookups.  Build-system options (``SCAMV_ENABLE_*`` CMake flags) are
not environment variables and are ignored.

Exit status is non-zero on any mismatch; run as the CI ``docs-lint``
step and locally via ``python3 scripts/check_docs.py``.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_SUFFIXES = {".cc", ".hh", ".cpp", ".hpp"}
USE_RE = re.compile(r'"(SCAMV_[A-Z0-9_]+)"')
ROW_RE = re.compile(r"^\|\s*`(SCAMV_[A-Z0-9_]+)`")


def used_vars(*dirs):
    """Map of variable -> first file using it (quoted literal)."""
    found = {}
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            for var in USE_RE.findall(path.read_text(encoding="utf-8")):
                found.setdefault(var, path.relative_to(ROOT))
    return found


def documented_vars(readme):
    """Map of variable -> line number of its README table row."""
    found = {}
    for lineno, line in enumerate(
            readme.read_text(encoding="utf-8").splitlines(), 1):
        m = ROW_RE.match(line)
        if m:
            found.setdefault(m.group(1), lineno)
    return found


def canonical_sites():
    """Fault-site names as ``siteName`` returns them (faults.cc)."""
    sites = set()
    for line in (ROOT / "src" / "support" / "faults.cc").read_text(
            encoding="utf-8").splitlines():
        m = re.search(r'case Site::\w+:\s*return "([^"]+)";', line)
        if m:
            sites.add(m.group(1))
    return sites


def fault_row_sites(readme):
    """Site names listed in the README ``SCAMV_FAULT_PLAN`` row."""
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `SCAMV_FAULT_PLAN`"):
            listed = set(re.findall(r"`([a-z0-9_.]+)`", line))
            listed.discard("all")
            return listed
    return None


def check_fault_sites(readme, errors):
    listed = fault_row_sites(readme)
    if listed is None:
        errors.append("README.md has no `SCAMV_FAULT_PLAN` table row")
        return
    sites = canonical_sites()
    for name in sorted(sites - listed):
        errors.append(
            f"fault site {name!r} (src/support/faults.cc) is missing "
            f"from the README.md SCAMV_FAULT_PLAN row")
    for name in sorted(listed - sites):
        errors.append(
            f"README.md SCAMV_FAULT_PLAN row lists {name!r}, which is "
            f"not a fault site siteName knows")


def check_operations(src_used, errors):
    operations = ROOT / "OPERATIONS.md"
    svc_used = {v for v in src_used if v.startswith("SCAMV_SVC_")}
    if not operations.exists():
        errors.append("OPERATIONS.md is missing (the scamvd operator "
                      "manual documents the SCAMV_SVC_* table)")
        return
    rows = documented_vars(operations)
    for var in sorted(svc_used - set(rows)):
        errors.append(
            f"{var} is read by {src_used[var]} but has no row in the "
            f"OPERATIONS.md service-configuration table")
    for var in sorted({v for v in rows if v.startswith("SCAMV_SVC_")}
                      - svc_used):
        errors.append(
            f"{var} is documented (OPERATIONS.md:{rows[var]}) but no "
            f"code in src/ reads it")


def check_corpus(readme, errors):
    corpus = ROOT / "examples" / "corpus"
    if not corpus.is_dir():
        errors.append("examples/corpus/ is missing (the SC kernel "
                      "corpus the README documents)")
        return
    on_disk = {p.name for p in corpus.glob("*.sc")}
    listed = set(re.findall(r"`([a-z0-9_]+\.sc)`",
                            readme.read_text(encoding="utf-8")))
    for name in sorted(on_disk - listed):
        errors.append(
            f"examples/corpus/{name} is not listed in the README.md "
            f"corpus table")
    for name in sorted(listed - on_disk):
        errors.append(
            f"README.md lists {name!r} but examples/corpus/ has no "
            f"such kernel")


BENCH_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
              "ARCHITECTURE.md", "OPERATIONS.md",
              ".claude/skills/verify/SKILL.md")
BENCH_RE = re.compile(r"(?<![\w.])(bench_[a-z0-9_]+)")
BENCH_JSON_RE = re.compile(r"BENCH_[A-Za-z0-9_*]*\.json")


def check_benches(errors):
    targets = set(re.findall(
        r"scamv_bench\((\w+)\)",
        (ROOT / "bench" / "CMakeLists.txt").read_text(encoding="utf-8")))
    for doc in BENCH_DOCS:
        path = ROOT / doc
        if not path.exists():
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            for name in BENCH_RE.findall(line):
                if name not in targets:
                    errors.append(
                        f"{doc}:{lineno} mentions {name}, which is not "
                        f"a scamv_bench target in bench/CMakeLists.txt")
            for report in BENCH_JSON_RE.findall(line):
                errors.append(
                    f"{doc}:{lineno} names {report}, which no bench "
                    f"writes any more")


def main():
    readme = ROOT / "README.md"
    src_used = used_vars("src")
    all_used = used_vars("src", "tests")
    documented = documented_vars(readme)

    errors = []
    for var in sorted(set(src_used) - set(documented)):
        errors.append(
            f"{var} is read by {src_used[var]} but has no row in the "
            f"README.md environment-variable table")
    for var in sorted(set(documented) - set(all_used)):
        errors.append(
            f"{var} is documented (README.md:{documented[var]}) but no "
            f"code in src/ or tests/ reads it")
    check_fault_sites(readme, errors)
    check_operations(src_used, errors)
    check_corpus(readme, errors)
    check_benches(errors)

    if errors:
        for e in errors:
            print(f"check_docs: {e}", file=sys.stderr)
        raise SystemExit(1)

    test_only = sorted(set(all_used) - set(src_used) - set(documented))
    print(f"check_docs: OK — {len(src_used)} variables used in src/, "
          f"{len(documented)} documented"
          + (f" ({', '.join(test_only)} test-internal, undocumented "
             "by design)" if test_only else ""))


if __name__ == "__main__":
    main()
