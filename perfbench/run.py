#!/usr/bin/env python3
"""Campaign benchmark for the Scam-V validation pipeline.

Runs closed-loop batch campaigns (one campaign in flight, one process,
one thread) of three paper workloads and prints every metric by name
with its unit.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run also records spans around the layers' public entry points and the
metrics are the per-layer ones.  Usage, from the repository root:

    python3 perfbench/run.py --workload mct_a_spec --seed 3 \
        --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, traced

The first run configures and builds perfbench/ (CMake) into
.bench_build/.  Each run writes its full record, with the host
environment, to .bench_build/records/, and a traced run writes its spans
(Chrome trace-event JSON) to .bench_build/traces/.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "campaign_bench")
CORPUS = os.path.join(ROOT, "examples", "corpus")

WORKLOADS = ["mct_a_spec", "corpus_sc", "mct_a_warm"]

# Name -> unit, in print order.  gen_fail_share is printed but not put
# in the result: it reads exactly 0 on the Mct workloads, where every
# test yields an experiment; gen_ok_share is its complement.
END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "cpu_s": "s",
    "experiments_per_s": "1/s",
    "cex_per_s": "1/s",
    "program_p50_ms": "ms",
    "program_p90_ms": "ms",
    "cex_rate": "ratio",
    "gen_ok_share": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "front.compile_s": "s",
    "front.kernels": "count",
    "gen.busy_s": "s",
    "bir.busy_s": "s",
    "sym.busy_s": "s",
    "sym.paths": "count",
    "rel.busy_s": "s",
    "rel.pairs": "count",
    "smt.busy_s": "s",
    "smt.queries": "count",
    "smt.sat_share": "ratio",
    "smt.redraws_per_test": "ratio",
    "smt.us_per_query": "us",
    "sat.decisions": "count",
    "sat.propagations": "count",
    "sat.conflicts": "count",
    "sat.decisions_per_query": "ratio",
    "harness.busy_s": "s",
    "harness.experiments": "count",
    "harness.us_per_experiment": "us",
    "harness.reps": "count",
    "hw.runs": "count",
    "hw.instructions": "count",
    "hw.runs_per_experiment": "ratio",
    "hw.ns_per_run": "ns",
    "qcache.lookup_s": "s",
    "qcache.hit_share": "ratio",
    "qcache.hit": "count",
    "qcache.miss": "count",
    "qcache.fill_s": "s",
    "core.merge_s": "s",
    "core.unattributed_s": "s",
    "trace.overhead_share": "ratio",
}

SETUP_MIN = 5
SETUP_MAX = 15
SETUP_BUDGET_S = 2.0
ADDR_NO_RANDOMIZE = 0x0040000
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the build up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.hh")):
        raise RuntimeError("scamv sources not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "--target", "campaign_bench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def environment(record, seed):
    """Host and build description stored with every record."""
    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, idx)
        if idx.startswith("index"):
            name = "L" + read(os.path.join(d, "level")) + {
                "Data": "d", "Instruction": "i"}.get(
                    read(os.path.join(d, "type")), "")
            caches[name] = read(os.path.join(d, "size"))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    env = {"cpu": cpu, "nproc": os.cpu_count(), "caches": caches,
           "kernel": platform.release(), "git_sha": sha, "seed": seed,
           "threads": 1}
    env.update(record["build"])
    return env


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tally_key(t, skip_qcache=False):
    counters = {k: v for k, v in t["counters"].items()
                if not (skip_qcache and k.startswith("qcache."))}
    return (t["programs"], t["programs_with_cex"], t["experiments"],
            t["counterexamples"], t["generation_failures"],
            t["program_failures"], t["quarantined"],
            tuple(sorted(counters.items())))


def verdict_errors(workload, warm):
    """Workload-specific checks on the warm-up campaign's verdicts."""
    errs = []
    if warm["program_failures"] or warm["quarantined"]:
        errs.append("failed or quarantined programs")
    if workload in ("mct_a_spec", "mct_a_warm"):
        if warm["programs_with_cex"] != warm["programs"]:
            errs.append("a Mct/Template-A program has no counterexample")
    elif workload == "corpus_sc":
        kernels = {}
        for p in warm["per_program"]:
            k = kernels.setdefault(p["name"].split("#")[0],
                                   {"cex": False, "experiments": 0})
            k["cex"] |= p["cex"]
            k["experiments"] += p["experiments"]
        want = {"sbox": True, "stride_walker": True,
                "branchy_parser": False, "memcmp_early": False}
        for name, leaks in want.items():
            if name not in kernels or kernels[name]["cex"] != leaks:
                errs.append(f"{name}: expected leak={leaks}")
        if kernels.get("ct_select", {"experiments": 1})["experiments"]:
            errs.append("ct_select ran experiments")
    return errs


def check(workload, rec):
    """One operation per campaign: the warm-up, each trial and the traced
    run.  @return (attempted, failed, messages)."""
    # The warm workload's warm-up runs uncached (the mct_a_spec
    # campaign); its cached trials must match it except for the cache's
    # own counters, and each other exactly.
    cached = workload == "mct_a_warm"
    ref = tally_key(rec["warmup"], skip_qcache=cached)
    first = tally_key(rec["trials"][0])
    errs = verdict_errors(workload, rec["warmup"])
    msgs = list(errs)
    attempted = 1
    failed = int(bool(errs))
    for i, t in enumerate(rec["trials"]):
        attempted += 1
        if errs or tally_key(t, cached) != ref or tally_key(t) != first:
            failed += 1
            msgs.append(f"trial {i}: counters differ")
    if "trace" in rec:
        attempted += 1
        if errs or tally_key(rec["trace"]) != first:
            failed += 1
            msgs.append("traced run: counters differ from the untraced")
    return attempted, failed, msgs


def best_of_trials(trials, key, total):
    """Each program's minimum over the trials, and their sum plus the
    smallest merge tail.  Trials repeat identical work; interference
    from other tenants only ever adds time, and it arrives in bursts
    that a per-program minimum skips."""
    per = [min(col) for col in zip(*(t[key] for t in trials))]
    return per, sum(per) + min(t[total] - sum(t[key]) for t in trials)


def end_to_end(rec):
    trials = rec["trials"]
    t0 = trials[0]
    latency, campaign_s = best_of_trials(trials, "program_wall_s", "wall_s")
    _, cpu_s = best_of_trials(trials, "program_cpu_s", "cpu_s")
    attempted_tests = t0["programs"] * rec["tests_per_program"]
    return {
        "setup_s": median(rec["setup_s"]),
        "campaign_s": campaign_s,
        "cpu_s": cpu_s,
        "experiments_per_s": t0["experiments"] / campaign_s,
        "cex_per_s": t0["counterexamples"] / campaign_s,
        "program_p50_ms": statistics.median(latency) * 1e3,
        "program_p90_ms":
            statistics.quantiles(latency, n=10, method="inclusive")[8] * 1e3,
        "cex_rate": t0["counterexamples"] / max(1, t0["experiments"]),
        "gen_ok_share": t0["experiments"] / attempted_tests,
        "peak_rss_mb": rec["peak_rss_kb"] / 1024.0,
    }


def per_layer(rec):
    tr = rec["trace"]
    spans = tr["spans"]
    c = tr["counters"]

    def self_s(prefix):
        return sum(a["self_s"] for n, a in spans.items()
                   if n.startswith(prefix + "."))

    layers = ["gen", "bir", "sym", "rel", "smt", "qcache", "harness",
              "core"]
    busy = {layer: self_s(layer) for layer in layers}
    experiments = tr["experiments"]
    queries = c["smt.queries"]
    tests = tr["programs"] * rec["tests_per_program"]
    lookups = c["qcache.hit"] + c["qcache.miss"]
    return {
        "front.compile_s": spans.get("front.load_corpus",
                                     {"total_s": 0.0})["total_s"],
        "front.kernels": tr["front_kernels"],
        "gen.busy_s": busy["gen"],
        "bir.busy_s": busy["bir"],
        "sym.busy_s": busy["sym"],
        "sym.paths": tr["sym_paths"],
        "rel.busy_s": busy["rel"],
        "rel.pairs": tr["rel_pairs"],
        "smt.busy_s": busy["smt"],
        "smt.queries": queries,
        "smt.sat_share": c["smt.sat"] / queries if queries else 0.0,
        "smt.redraws_per_test": tr["solve_with_unsat"] / tests,
        "smt.us_per_query": busy["smt"] / queries * 1e6 if queries else 0.0,
        "sat.decisions": c["sat.decisions"],
        "sat.propagations": c["sat.propagations"],
        "sat.conflicts": c["sat.conflicts"],
        "sat.decisions_per_query":
            c["sat.decisions"] / queries if queries else 0.0,
        "harness.busy_s": busy["harness"],
        "harness.experiments":
            spans.get("harness.run_experiment", {"calls": 0})["calls"],
        "harness.us_per_experiment":
            busy["harness"] / experiments * 1e6 if experiments else 0.0,
        "harness.reps": c["platform.repetitions"],
        "hw.runs": c["hw.runs"],
        "hw.instructions": c["hw.instructions"],
        "hw.runs_per_experiment":
            c["hw.runs"] / experiments if experiments else 0.0,
        "hw.ns_per_run":
            busy["harness"] / c["hw.runs"] * 1e9 if c["hw.runs"] else 0.0,
        "qcache.lookup_s": busy["qcache"],
        "qcache.hit_share": c["qcache.hit"] / lookups if lookups else 0.0,
        "qcache.hit": c["qcache.hit"],
        "qcache.miss": c["qcache.miss"],
        "qcache.fill_s": median(rec["qcache_fill_s"]),
        "core.merge_s": busy["core"],
        "core.unattributed_s": tr["campaign_s"] - sum(busy.values()),
        "trace.overhead_share":
            tr["campaign_s"] / median([t["wall_s"] for t in rec["trials"]]),
    }


def no_aslr():
    """Turn off address-space randomisation in the child (before exec),
    so every process of every run gets the same memory layout instead of
    a different cache alignment each time."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        cur = libc.personality(0xFFFFFFFF)
        if cur != -1:
            libc.personality(cur | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def spawn(cmd, deadline):
    """Run campaign_bench, killing it at `deadline` (monotonic seconds);
    @return its record with setup_s filled in."""
    # Pipeline::run() consults SCAMV_* variables even on an explicit
    # config; the child gets none of them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCAMV_")}
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0),
                          preexec_fn=no_aslr)
    if proc.returncode != 0:
        raise RuntimeError(f"campaign_bench exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["ready_clock"] - t0
    return rec


def run_workload(workload, seed, seconds, traced):
    """Run one workload; @return (record, end-to-end metrics, per-layer
    metrics, attempted, failed, messages)."""
    os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    tag = f"{workload}-seed{seed}"
    args = ["--workload", workload, "--seed", str(seed), "--corpus", CORPUS]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # Set-up is timed in processes of its own that exit once it is done,
    # and once more in the process that runs the campaigns: at least
    # SETUP_MIN samples, more while they stay within SETUP_BUDGET_S.
    setups = []
    spent = 0.0
    while len(setups) + 1 < SETUP_MIN or (
            len(setups) + 1 < SETUP_MAX and spent < SETUP_BUDGET_S):
        setups.append(spawn([BINARY, "--setup-only"] + args, deadline))
        spent += setups[-1]["setup_s"]
    cmd = [BINARY] + args + ["--seconds", str(seconds)]
    if traced:
        cmd += ["--trace-out", os.path.join(BUILD, "traces", tag + ".json")]
    rec = spawn(cmd, deadline)
    attempted, failed, msgs = check(workload, rec)
    rec["setup_s"] = [r["setup_s"] for r in setups] + [rec["setup_s"]]
    rec["qcache_fill_s"] = [r["qcache_fill_s"] for r in setups] + [
        rec["qcache_fill_s"]]
    rec["environment"] = environment(rec, seed)
    e2e = end_to_end(rec)
    layer = per_layer(rec) if traced else {}
    rec["metrics"] = {**e2e, **layer}
    rec["checks"] = msgs
    with open(os.path.join(BUILD, "records",
                           f"{tag}-trace{int(traced)}.json"), "w") as f:
        json.dump(rec, f, indent=1)
    return rec, e2e, layer, attempted, failed, msgs


def report(workload, rec, e2e, layer, attempted, failed, msgs):
    env = rec["environment"]
    print(f"== {workload}  seed={env['seed']}  cpu={env['cpu']!r} "
          f"nproc={env['nproc']} caches={env['caches']} "
          f"kernel={env['kernel']} compiler={env['compiler']!r} "
          f"build={env['build_type']} flags={env['flags'].strip()!r} "
          f"git={env['git_sha']}")
    t0 = rec["trials"][0]
    print(f"   trials={len(rec['trials'])} programs={t0['programs']} "
          f"experiments={t0['experiments']} "
          f"counterexamples={t0['counterexamples']} "
          f"program latency samples={t0['programs']} (best of "
          f"{len(rec['trials'])} trials each); "
          f"trial wall median "
          f"{median([t['wall_s'] for t in rec['trials']]):.4f} s")
    print("   work counters: " + " ".join(
        f"{k}={v}" for k, v in t0["counters"].items()))
    for name, unit in END_TO_END.items():
        print(f"   {name:<28} {e2e[name]:.6g} {unit}")
    print(f"   {'gen_fail_share':<28} {1.0 - e2e['gen_ok_share']:.6g} ratio")
    if layer:
        tr = rec["trace"]
        print(f"   traced vs untraced: experiments {tr['experiments']} vs "
              f"{t0['experiments']}, smt.queries "
              f"{tr['counters']['smt.queries']} vs "
              f"{t0['counters']['smt.queries']}, hw.runs "
              f"{tr['counters']['hw.runs']} vs {t0['counters']['hw.runs']}"
              f", trace.overhead_share {layer['trace.overhead_share']:.4f}")
        for name, unit in PER_LAYER.items():
            print(f"   {name:<28} {layer[name]:.6g} {unit}")
    status = "ok" if not failed else "FAILED: " + "; ".join(msgs)
    print(f"   checks: {attempted - failed}/{attempted} campaigns {status}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=1)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        build()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            res = run_workload(name, args.seed, args.seconds,
                               bool(args.trace))
            report(name, *res)
            results.append(res)
    except (OSError, RuntimeError, ValueError, KeyError, IndexError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1

    if args.workload != "all":
        _, e2e, layer, attempted, failed, _ = results[0]
        values, units = (layer, PER_LAYER) if args.trace else (e2e,
                                                                END_TO_END)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
