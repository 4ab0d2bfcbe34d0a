#!/usr/bin/env python3
"""Validate the JSON artifacts emitted by the bench smoke run.

Eight shapes are recognized (auto-detected per file):

 - ``BENCH_parallel.json`` from bench/parallel_report.hh: campaign
   speedup entries, each of which must be marked deterministic;
 - ``scamv-qcache-v1`` from bench/qcache_report.hh: query-cache
   on/off comparison; the repeated-query component must show at
   least a 1.5x speedup and the warm campaign must be deterministic;
 - ``scamv-metrics-v1`` from src/support/metrics (SCAMV_METRICS):
   counters, gauges and histograms, with internally consistent
   histogram bucket layouts;
 - ``scamv-coverage-v1`` from src/cover (SCAMV_COVERAGE_FILE or
   bench/coverage_report.hh): per-template coverage-ledger atoms;
   when the bench's ``comparison`` section is present, the adaptive
   scheduler must beat uniform by its declared ``min_ratio``;
 - ``scamv-shard-v1`` from bench/shard_report.hh: sharded campaign
   comparison (N concurrent workers + coordinator merge vs the
   1-process reference); at least 2 shards, the end-to-end speedup
   must meet its declared host-adapted ``min_speedup``, and the
   merged artifacts must be byte-identical to the single-process
   run (``deterministic``);
 - ``scamv-triage-v1`` from bench/triage_report.hh: abstract-cache
   pre-screen comparison; the screen must pay for itself (wall-clock
   ``min_speedup`` or ``min_smt_avoided``) and must preserve
   campaign outcomes (``deterministic``);
 - ``scamv-svc-v1`` from bench/svc_report.hh: N standalone campaigns
   vs the same N through the campaign service's shared qcache; the
   sharing must pay for itself (aggregate ``min_speedup`` or
   ``min_solves_avoided``) and every service campaign's artifacts
   must be byte-identical to its standalone run (``deterministic``);
 - ``scamv-front-v1`` from bench/front_report.hh: SC frontend smoke;
   corpus compilation must clear its declared throughput floor,
   independent corpus loads must be byte-identical
   (``deterministic``) and every kernel must round-trip through the
   bir assembler (``round_trip``).

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


def check_parallel(path, doc):
    campaigns = doc.get("campaigns")
    if not isinstance(campaigns, dict) or not campaigns:
        fail(path, "no campaigns recorded")
    for name, entry in campaigns.items():
        if not isinstance(entry, dict):
            fail(path, f"campaign {name!r} is not an object")
        for key in ("threads", "serial_s", "parallel_s", "speedup"):
            if not is_num(entry.get(key)):
                fail(path, f"campaign {name!r}: missing numeric {key!r}")
        if entry["threads"] < 1:
            fail(path, f"campaign {name!r}: threads < 1")
        if entry["serial_s"] < 0 or entry["parallel_s"] < 0:
            fail(path, f"campaign {name!r}: negative wall-clock")
        if entry.get("deterministic") is not True:
            fail(path, f"campaign {name!r}: serial/parallel runs "
                       "disagree (deterministic != true)")
    print(f"{path}: OK ({len(campaigns)} campaigns, all deterministic)")


def check_qcache(path, doc):
    components = doc.get("components")
    if not isinstance(components, dict) or not components:
        fail(path, "no components recorded")
    for name, entry in components.items():
        if not isinstance(entry, dict):
            fail(path, f"component {name!r} is not an object")
        for key, value in entry.items():
            if key == "deterministic":
                continue
            if not is_num(value) or value < 0:
                fail(path, f"component {name!r}: {key!r} is not a "
                           "non-negative number")
    rq = components.get("repeated_query")
    if not isinstance(rq, dict):
        fail(path, "missing repeated_query component")
    for key in ("queries", "cache_off_s", "cache_on_s", "speedup",
                "hits", "misses"):
        if not is_num(rq.get(key)):
            fail(path, f"repeated_query: missing numeric {key!r}")
    if rq["speedup"] < 1.5:
        fail(path, f"repeated_query: speedup {rq['speedup']} < 1.5 "
                   "(cache is not paying for itself)")
    if rq["hits"] < 1:
        fail(path, "repeated_query: no cache hits recorded")
    wc = components.get("warm_campaign")
    if isinstance(wc, dict) and wc.get("deterministic") is not True:
        fail(path, "warm_campaign: cold/warm runs disagree "
                   "(deterministic != true)")
    print(f"{path}: OK (repeated_query speedup "
          f"{rq['speedup']:.2f}x, {len(components)} components)")


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
    comparison = doc.get("comparison")
    if comparison is None:
        print(f"{path}: OK ({len(templates)} templates)")
        return
    if not isinstance(comparison, dict):
        fail(path, "comparison is not an object")
    for mode in ("uniform", "adaptive"):
        entry = comparison.get(mode)
        if not isinstance(entry, dict):
            fail(path, f"comparison: missing {mode!r} object")
        for key in ("programs", "classes_covered",
                    "classes_per_program"):
            if not is_num(entry.get(key)):
                fail(path, f"comparison {mode!r}: missing numeric "
                           f"{key!r}")
    ratio = comparison.get("ratio")
    min_ratio = comparison.get("min_ratio")
    if not is_num(ratio) or not is_num(min_ratio):
        fail(path, "comparison: missing numeric ratio/min_ratio")
    if ratio < min_ratio:
        fail(path, f"comparison: adaptive/uniform classes-per-program "
                   f"ratio {ratio} < {min_ratio} (adaptive scheduling "
                   "is not paying for itself)")
    print(f"{path}: OK (adaptive {ratio:.2f}x uniform, "
          f"{len(templates)} templates)")


def check_shard(path, doc):
    shards = doc.get("shards")
    if not isinstance(shards, int) or isinstance(shards, bool) \
            or shards < 2:
        fail(path, "shards is not an integer >= 2 (no fan-out "
                   "was measured)")
    for key in ("single_seconds", "sharded_seconds", "worker_seconds",
                "merge_seconds"):
        if not is_num(doc.get(key)) or doc[key] < 0:
            fail(path, f"{key!r} is not a non-negative number")
    if doc["merge_seconds"] > doc["sharded_seconds"]:
        fail(path, "merge_seconds exceeds sharded_seconds")
    speedup = doc.get("speedup")
    min_speedup = doc.get("min_speedup")
    if not is_num(speedup) or not is_num(min_speedup):
        fail(path, "missing numeric speedup/min_speedup")
    if speedup < min_speedup:
        fail(path, f"speedup {speedup} < {min_speedup} "
                   "(sharding is not paying for itself)")
    if doc.get("deterministic") is not True:
        fail(path, "merged campaign diverges from the single-process "
                   "run (deterministic != true)")
    print(f"{path}: OK (shard speedup {speedup:.2f}x over "
          f"{shards} shards, merge deterministic)")


def check_triage(path, doc):
    screened = doc.get("screened")
    if not isinstance(screened, int) or isinstance(screened, bool) \
            or screened < 1:
        fail(path, "screened is not an integer >= 1 (the pre-screen "
                   "proved nothing boring)")
    for key in ("screen_off_seconds", "screen_on_seconds",
                "smt_queries_off", "smt_queries_on"):
        if not is_num(doc.get(key)) or doc[key] < 0:
            fail(path, f"{key!r} is not a non-negative number")
    speedup = doc.get("speedup")
    min_speedup = doc.get("min_speedup")
    avoided = doc.get("smt_avoided")
    min_avoided = doc.get("min_smt_avoided")
    if not is_num(speedup) or not is_num(min_speedup):
        fail(path, "missing numeric speedup/min_speedup")
    if not is_num(avoided) or not is_num(min_avoided):
        fail(path, "missing numeric smt_avoided/min_smt_avoided")
    if doc["smt_queries_on"] > doc["smt_queries_off"]:
        fail(path, "screened run issued more SMT queries than the "
                   "unscreened one")
    if speedup < min_speedup and avoided < min_avoided:
        fail(path, f"speedup {speedup} < {min_speedup} and "
                   f"smt_avoided {avoided} < {min_avoided} "
                   "(the pre-screen is not paying for itself)")
    if doc.get("deterministic") is not True:
        fail(path, "screened campaign diverges from the unscreened "
                   "one (deterministic != true)")
    print(f"{path}: OK (triage speedup {speedup:.2f}x, "
          f"{100 * avoided:.0f}% SMT avoided, {screened} screened, "
          f"outcome-preserving)")


def check_svc(path, doc):
    campaigns = doc.get("campaigns")
    if not isinstance(campaigns, int) or isinstance(campaigns, bool) \
            or campaigns < 2:
        fail(path, "campaigns is not an integer >= 2 (no "
                   "cross-campaign sharing was measured)")
    for key in ("standalone_seconds", "service_seconds",
                "standalone_misses", "service_misses"):
        if not is_num(doc.get(key)) or doc[key] < 0:
            fail(path, f"{key!r} is not a non-negative number")
    if doc["service_misses"] > doc["standalone_misses"]:
        fail(path, "service run missed the cache more often than "
                   "the standalone runs")
    speedup = doc.get("speedup")
    min_speedup = doc.get("min_speedup")
    avoided = doc.get("solves_avoided")
    min_avoided = doc.get("min_solves_avoided")
    if not is_num(speedup) or not is_num(min_speedup):
        fail(path, "missing numeric speedup/min_speedup")
    if not is_num(avoided) or not is_num(min_avoided):
        fail(path, "missing numeric solves_avoided/"
                   "min_solves_avoided")
    if speedup < min_speedup and avoided < min_avoided:
        fail(path, f"speedup {speedup} < {min_speedup} and "
                   f"solves_avoided {avoided} < {min_avoided} "
                   "(the shared qcache is not paying for itself)")
    if doc.get("deterministic") is not True:
        fail(path, "a service campaign diverges from its standalone "
                   "run (deterministic != true)")
    print(f"{path}: OK (service speedup {speedup:.2f}x over "
          f"{campaigns} campaigns, {100 * avoided:.0f}% solves "
          f"avoided, byte-identical)")


def check_front(path, doc):
    kernels = doc.get("kernels")
    if not isinstance(kernels, int) or isinstance(kernels, bool) \
            or kernels < 1:
        fail(path, "kernels is not an integer >= 1 (empty corpus?)")
    for key in ("instructions", "iterations", "compile_seconds",
                "compiles_per_second"):
        if not is_num(doc.get(key)) or doc[key] < 0:
            fail(path, f"{key!r} is not a non-negative number")
    per_sec = doc.get("compiles_per_second")
    floor = doc.get("min_compiles_per_second")
    if not is_num(floor):
        fail(path, "missing numeric min_compiles_per_second")
    if per_sec < floor:
        fail(path, f"compiles_per_second {per_sec} < {floor} "
                   "(frontend throughput regressed)")
    if doc.get("deterministic") is not True:
        fail(path, "independent corpus loads disagree "
                   "(deterministic != true)")
    if doc.get("round_trip") is not True:
        fail(path, "a kernel fails to round-trip through the bir "
                   "assembler (round_trip != true)")
    print(f"{path}: OK ({kernels} kernels at {per_sec:.0f} "
          f"compiles/s, deterministic, round-trips)")


SCHEMA_CHECKERS = {
    "scamv-metrics-v1": check_metrics,
    "scamv-qcache-v1": check_qcache,
    "scamv-coverage-v1": check_coverage,
    "scamv-shard-v1": check_shard,
    "scamv-triage-v1": check_triage,
    "scamv-svc-v1": check_svc,
    "scamv-front-v1": check_front,
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
    if checker:
        checker(path, doc)
    elif "campaigns" in doc:
        check_parallel(path, doc)
    else:
        fail(path, "unrecognized schema (neither one of "
                   f"{', '.join(SCHEMA_CHECKERS)} nor a parallel-bench "
                   "report)")


def main(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__.strip())
    for path in argv[1:]:
        check_file(path)


if __name__ == "__main__":
    main(sys.argv)
