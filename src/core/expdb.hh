/**
 * @file
 * Experiment database — the stand-in for the artifact's EmbExp-Logs
 * store (Appendix A): every generated test case and its verdict is
 * recorded, so that counterexamples can be collected and inspected to
 * "get better insight and identify patterns that trigger
 * microarchitectural features in unexpected ways" (Section 1).
 *
 * The store is in-memory with CSV export; the original uses SQLite,
 * but nothing in the workflow depends on SQL (the artifact's analysis
 * scripts are grep/aggregate passes that the accessors below cover).
 */

#ifndef SCAMV_CORE_EXPDB_HH
#define SCAMV_CORE_EXPDB_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness/platform.hh"

namespace scamv::core {

/** One logged experiment. */
struct ExperimentRecord {
    std::string programName;
    std::string programText;
    /** Path id ("T", "FF", ...) of the tested path pair. */
    std::string pathId;
    harness::TestCase testCase;
    bool trained = false;
    /** Mline set-index class pinned for each state's first access by
     *  the test's coverage draw (-1: none — Pc-only campaigns or
     *  memory-free paths). */
    int lineClass1 = -1;
    int lineClass2 = -1;
    harness::Verdict verdict = harness::Verdict::Indistinguishable;
    int differingReps = 0;
    int totalReps = 0;
};

/**
 * In-memory experiment log with aggregate queries and CSV export.
 *
 * Thread safety: add() is internally synchronized so concurrent
 * pipeline workers may log directly.  (The parallel pipeline itself
 * buffers per program and flushes on one thread in index order — see
 * DESIGN.md "Concurrency model" — so its record order is
 * deterministic.)  The query/export accessors are unsynchronized and
 * must not race with writers.
 */
class ExperimentDb
{
  public:
    /**
     * Append one record (safe to call from multiple threads).
     * @return false when the write is dropped by an injected
     *         `db_write` fault (see support/faults.hh); the caller may
     *         retry with a fresh copy of the record.
     */
    bool add(ExperimentRecord record);

    std::size_t size() const { return records.size(); }
    const std::vector<ExperimentRecord> &all() const { return records; }

    /** @return the number of records with the given verdict. */
    std::size_t countByVerdict(harness::Verdict v) const;

    /** @return all counterexample records. */
    std::vector<const ExperimentRecord *> counterexamples() const;

    /** @return per-program counterexample counts (insight mining). */
    std::map<std::string, int> counterexamplesByProgram() const;

    /** @return per-path-id counterexample counts. */
    std::map<std::string, int> counterexamplesByPath() const;

    /**
     * Export the log as CSV (one row per experiment; register values
     * of both states flattened as hex, memory init as `a=v` lists in
     * the test case's address order).
     * @return success.
     */
    bool exportCsv(const std::string &path) const;

    /** Render a short aggregate summary (for bench/example output). */
    std::string summary() const;

    void clear() { records.clear(); }

  private:
    std::vector<ExperimentRecord> records;
    std::mutex writeMutex;
};

/** @return a short string name for a verdict. */
const char *verdictName(harness::Verdict v);

} // namespace scamv::core

#endif // SCAMV_CORE_EXPDB_HH
