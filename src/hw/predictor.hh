/**
 * @file
 * Pattern-history-table branch predictor.
 *
 * Two-bit saturating counters indexed by (hashed) program counter —
 * the prediction mechanism Spectre-PHT and SiSCloak exploit
 * (Sections 4.2.2, 6.3).  The table persists across program runs
 * within one experiment, which is what makes the harness's training
 * phase (Section 5.3) effective.
 */

#ifndef SCAMV_HW_PREDICTOR_HH
#define SCAMV_HW_PREDICTOR_HH

#include <cstdint>
#include <vector>

namespace scamv::hw {

/** Branch predictor configuration. */
struct PredictorConfig {
    /** Number of PHT entries (power of two). */
    std::uint32_t entries = 256;
    /** Initial counter value (0..3); 1 = weakly not-taken. */
    std::uint8_t initialCounter = 1;
};

/** 2-bit-counter PHT. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const PredictorConfig &config = {});

    /** Reset all counters to the initial value. */
    void reset();

    /** @return predicted direction for the branch at pc. */
    bool predict(std::uint64_t pc) const;

    /** Update the counter with the resolved direction. */
    void update(std::uint64_t pc, bool taken);

    std::uint64_t mispredicts() const { return nMispredicts; }

    /** Record a misprediction (bookkeeping by the core). */
    void noteMispredict() { ++nMispredicts; }

  private:
    std::uint32_t indexOf(std::uint64_t pc) const;

    PredictorConfig cfg;
    std::vector<std::uint8_t> table;
    std::uint64_t nMispredicts = 0;
};

} // namespace scamv::hw

#endif // SCAMV_HW_PREDICTOR_HH
