#include "hw/predictor.hh"

#include "support/logging.hh"

namespace scamv::hw {

BranchPredictor::BranchPredictor(const PredictorConfig &config)
    : cfg(config)
{
    SCAMV_ASSERT((cfg.entries & (cfg.entries - 1)) == 0,
                 "PHT entries must be a power of two");
    reset();
}

void
BranchPredictor::reset()
{
    table.assign(cfg.entries, cfg.initialCounter);
}

std::uint32_t
BranchPredictor::indexOf(std::uint64_t pc) const
{
    // Simple multiplicative hash; the low bits of small instruction
    // indexes would otherwise all alias entry 0..n.
    return static_cast<std::uint32_t>((pc * 0x9e3779b97f4a7c15ULL) >> 32) &
           (cfg.entries - 1);
}

bool
BranchPredictor::predict(std::uint64_t pc) const
{
    return table[indexOf(pc)] >= 2;
}

void
BranchPredictor::update(std::uint64_t pc, bool taken)
{
    std::uint8_t &c = table[indexOf(pc)];
    if (taken) {
        if (c < 3)
            ++c;
    } else {
        if (c > 0)
            --c;
    }
}

} // namespace scamv::hw
