/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are opened by the link-time wrappers in trace.cc around the
 * layers' public entry points (and by campaign_bench around each program
 * and the merge).  Each span records its name, start, end, parent span
 * and the program index it belongs to.  Nothing is written until the
 * run ends; self time is a span's duration minus its children's.
 * Recording is single-threaded: campaigns run with one thread.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::trace {

/** Counts taken at span boundaries while recording. */
struct Counts {
    std::int64_t symPaths = 0;       ///< paths returned by sym::execute
    std::int64_t relPairs = 0;       ///< compatible pairs per relation
    std::int64_t solveWithUnsat = 0; ///< Unsat coverage-class solves
    std::int64_t frontKernels = 0;   ///< kernels loaded by front
};

/** Per-name aggregate of the recorded spans. */
struct Aggregate {
    std::int64_t calls = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;
};

/** Start recording (clearing earlier spans and counts) or stop. */
void enable(bool on);
bool enabled();
/** Program index attached to spans opened from now on. */
void setProgram(int prog);

Counts &counts();

/** @return per-name call count, total and self time. */
std::map<std::string, Aggregate> aggregate();

/** Write the spans as Chrome trace-event JSON. @return false on error. */
bool writeChromeTrace(const std::string &path);

/** RAII span; a no-op while recording is off. */
class Scope
{
  public:
    explicit Scope(const char *name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int index = -1;
};

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_HH
