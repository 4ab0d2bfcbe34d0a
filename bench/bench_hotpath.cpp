/**
 * @file
 * Hot-path engine bench: runs the baseline (oneshot solving) vs
 * hot-path (incremental solving) comparison of bench/hotpath_report.hh
 * and emits `BENCH_hotpath.json`.  Exits non-zero when the engine misses
 * its end-to-end speedup gate or any solver mode diverges from the
 * baseline's campaign artifacts, so CI catches both performance and
 * determinism regressions.
 */

#include <cstdio>

#include "hotpath_report.hh"

int
main()
{
    const bool ok = scamv::benchsupport::writeHotpathReport();
    if (!ok)
        std::printf("[hotpath] FAILED (see BENCH_hotpath.json)\n");
    return ok ? 0 : 1;
}
