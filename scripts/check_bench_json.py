#!/usr/bin/env python3
"""Validate the JSON artifacts a campaign writes.

Two shapes are recognized (auto-detected per file by ``schema``):

 - ``scamv-metrics-v1`` from src/support/metrics (SCAMV_METRICS):
   counters, gauges and histograms, with internally consistent
   histogram bucket layouts;
 - ``scamv-coverage-v1`` from src/cover (SCAMV_COVERAGE_FILE):
   per-template coverage-ledger atoms.

Exit status is non-zero if any file is missing, unparseable or
malformed, which is what makes the CI bench-smoke job a real gate.

Usage: check_bench_json.py FILE [FILE...]
"""

import json
import sys


def fail(path, msg):
    raise SystemExit(f"{path}: {msg}")


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_metrics(path, doc):
    counters = doc.get("counters")
    gauges = doc.get("gauges")
    histograms = doc.get("histograms")
    if not isinstance(counters, dict) or not isinstance(gauges, dict) \
            or not isinstance(histograms, dict):
        fail(path, "missing counters/gauges/histograms objects")
    for name, v in counters.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            fail(path, f"counter {name!r}: not a non-negative integer")
    for name, v in gauges.items():
        if not is_num(v):
            fail(path, f"gauge {name!r}: not a number")
    for name, h in histograms.items():
        bounds = h.get("bounds")
        counts = h.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            fail(path, f"histogram {name!r}: missing bounds/counts")
        if len(counts) != len(bounds) + 1:
            fail(path, f"histogram {name!r}: expected "
                       f"{len(bounds) + 1} buckets, got {len(counts)}")
        if bounds != sorted(bounds):
            fail(path, f"histogram {name!r}: bounds not ascending")
        if any(not isinstance(c, int) or c < 0 for c in counts):
            fail(path, f"histogram {name!r}: bad bucket count")
        if not is_num(h.get("sum")) or not isinstance(h.get("count"), int):
            fail(path, f"histogram {name!r}: missing sum/count")
        if sum(counts) != h["count"]:
            fail(path, f"histogram {name!r}: buckets sum to "
                       f"{sum(counts)}, count says {h['count']}")
    if not counters:
        fail(path, "empty counters (campaign recorded nothing?)")
    print(f"{path}: OK ({len(counters)} counters, {len(gauges)} gauges, "
          f"{len(histograms)} histograms)")


def check_coverage(path, doc):
    templates = doc.get("templates")
    if not isinstance(templates, dict) or not templates:
        fail(path, "no templates recorded")
    for name, cell in templates.items():
        if not isinstance(cell, dict):
            fail(path, f"template {name!r} is not an object")
        for key in ("universe", "covered"):
            v = cell.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                fail(path, f"template {name!r}: {key!r} is not a "
                           "non-negative integer")
        classes = cell.get("classes")
        if not isinstance(classes, dict):
            fail(path, f"template {name!r}: missing classes object")
        hit = 0
        for cls, st in classes.items():
            if not cls.lstrip("-").isdigit():
                fail(path, f"template {name!r}: class key {cls!r} is "
                           "not an integer")
            if not isinstance(st, dict) \
                    or not all(is_num(st.get(k)) for k in
                               ("hits", "draws", "solver_s")):
                fail(path, f"template {name!r}: class {cls!r} is "
                           "missing hits/draws/solver_s")
            if st["hits"] > st["draws"]:
                fail(path, f"template {name!r}: class {cls!r} has "
                           "more hits than draws")
            hit += st["hits"] > 0
        if hit != cell["covered"]:
            fail(path, f"template {name!r}: covered says "
                       f"{cell['covered']}, classes show {hit}")
        if cell["universe"] and cell["covered"] > cell["universe"]:
            fail(path, f"template {name!r}: covered exceeds universe")
        for key in ("path_pairs", "models"):
            if not isinstance(cell.get(key), dict):
                fail(path, f"template {name!r}: missing {key!r} object")
    print(f"{path}: OK ({len(templates)} templates)")


SCHEMA_CHECKERS = {
    "scamv-metrics-v1": check_metrics,
    "scamv-coverage-v1": check_coverage,
}


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(path, f"cannot read: {e}")
    except json.JSONDecodeError as e:
        fail(path, f"malformed JSON: {e}")
    if not isinstance(doc, dict):
        fail(path, "top level is not an object")
    checker = SCHEMA_CHECKERS.get(doc.get("schema"))
    if not checker:
        fail(path, "unrecognized schema (not one of "
                   f"{', '.join(SCHEMA_CHECKERS)})")
    checker(path, doc)


def main(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__.strip())
    for path in argv[1:]:
        check_file(path)


if __name__ == "__main__":
    main(sys.argv)
