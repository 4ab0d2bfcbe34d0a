#include "harness/platform.hh"

#include "support/faults.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace scamv::harness {

ProgramInput
inputFromAssignment(const expr::Assignment &a, const std::string &suffix)
{
    ProgramInput input;
    for (int r = 0; r < bir::kNumRegs; ++r) {
        auto it = a.bvVars.find("x" + std::to_string(r) + suffix);
        input.regs.regs[r] = it == a.bvVars.end() ? 0 : it->second;
    }
    auto mit = a.mems.find("mem" + suffix);
    if (mit != a.mems.end())
        for (const auto &[addr, val] : mit->second.entries())
            input.mem.emplace_back(addr, val);
    return input;
}

Platform::Platform(const PlatformConfig &config, std::uint64_t noise_seed)
    : cfg(config), noiseRng(noise_seed), core(cfg.core, cfg.boardSeed)
{}

void
Platform::simulate(const bir::Program &program, const ProgramInput &input)
{
    // The platform module clears the cache (and thereby the stride
    // detector) before every execution and installs the test case's
    // initial memory words.
    core.cache().reset();
    core.tlb().reset();
    core.prefetcher().reset();
    core.memory().clear();
    for (const auto &[addr, val] : input.mem)
        core.memory().store(addr, val);

    if (cfg.channel == Channel::PrimeProbe) {
        // Prime: fill every visible set with the attacker's lines.
        const int shift = cfg.core.geom.lineShift();
        const std::uint64_t sets = cfg.core.geom.numSets;
        for (std::uint64_t set = cfg.visibleLoSet;
             set <= cfg.visibleHiSet; ++set) {
            for (std::uint64_t way = 0; way < cfg.core.geom.ways;
                 ++way) {
                const std::uint64_t addr =
                    cfg.attackerArrayBase +
                    way * (sets << shift) + (set << shift);
                core.cache().access(addr);
            }
        }
    }

    core.run(program, input.regs, runScratch);
}

Platform::Strays
Platform::drawStrays()
{
    const int shift = cfg.core.geom.lineShift();
    const std::uint64_t set_bits = cfg.core.geom.setShift();
    auto random_line = [&](std::uint64_t tag_base) {
        const std::uint64_t set =
            cfg.visibleLoSet +
            noiseRng.below(cfg.visibleHiSet - cfg.visibleLoSet + 1);
        const std::uint64_t tag = tag_base + noiseRng.below(16);
        return (tag << (shift + set_bits)) | (set << shift);
    };

    Strays strays;
    // System interference: a stray access to a random line.
    if (cfg.noiseProbability > 0.0 &&
        noiseRng.chance(cfg.noiseProbability)) {
        metrics::current().counter("platform.noise_injections").inc();
        strays.addrs[strays.count++] = random_line(0x7fffULL);
    }
    // Injected measurement flake: a stray access indistinguishable
    // from system interference, forced by the fault plan rather than
    // drawn from the noise probability.
    if (faults::maybeInject(faults::Site::HwFlake))
        strays.addrs[strays.count++] = random_line(0x6eefULL);
    return strays;
}

Platform::Measurement
Platform::observe()
{
    Measurement m;
    if (cfg.channel == Channel::TlbSnapshot) {
        m.tlb = core.tlb().snapshot();
    } else if (cfg.channel == Channel::PrimeProbe) {
        // Probe: time a reload of every primed line (PMC cycles).
        // Victim activity in a set evicted attacker ways, turning
        // probe hits into misses.
        const int shift = cfg.core.geom.lineShift();
        const std::uint64_t sets = cfg.core.geom.numSets;
        m.probeLatencies.reserve(cfg.visibleHiSet - cfg.visibleLoSet +
                                 1);
        for (std::uint64_t set = cfg.visibleLoSet;
             set <= cfg.visibleHiSet; ++set) {
            // Probe in reverse prime order: refreshing the most-
            // recently primed way first avoids evicting the ways
            // still to be probed (the standard anti-thrashing trick).
            std::uint64_t total = 0;
            for (std::uint64_t way = cfg.core.geom.ways; way > 0;
                 --way) {
                const std::uint64_t addr =
                    cfg.attackerArrayBase +
                    (way - 1) * (sets << shift) + (set << shift);
                total += core.timedLoad(addr);
            }
            m.probeLatencies.push_back(total);
        }
    } else {
        m.cache = core.cache().snapshot(cfg.visibleLoSet,
                                        cfg.visibleHiSet);
    }
    return m;
}

Platform::Measurement
Platform::measure(const bir::Program &program, const ProgramInput &input)
{
    core.resetMicroarch();
    simulate(program, input);
    const Strays strays = drawStrays();
    for (int k = 0; k < strays.count; ++k)
        core.cache().access(strays.addrs[k]);
    return observe();
}

ExperimentResult
Platform::runExperiment(const bir::Program &program, const TestCase &tc,
                        const std::optional<ProgramInput> &training)
{
    SCAMV_ASSERT(cfg.repeats > 0, "repeats must be positive");
    metrics::Registry &reg = metrics::current();
    reg.counter("platform.experiments").inc();
    reg.counter("platform.repetitions")
        .add(static_cast<std::uint64_t>(cfg.repeats));
    reg.counter("platform.training_runs")
        .add(static_cast<std::uint64_t>(cfg.repeats) *
             static_cast<std::uint64_t>(cfg.trainingRuns));
    ExperimentResult result;
    result.totalReps = cfg.repeats;
    int clean_differing = 0;

    core.resetMicroarch();

    // Branch-predictor conditioning.  With a mistraining input
    // (Section 5.3) the PHT is driven toward the *other* path so
    // the measured runs mispredict.  Without one, the predictor is
    // warmed with s1 itself so both measured runs are predicted
    // correctly: the paper does not test the asymmetric case where
    // only one of the two executions mispredicts.
    const ProgramInput &warmup = training ? *training : tc.s1;
    for (int t = 0; t < cfg.trainingRuns; ++t) {
        core.cache().reset();
        core.prefetcher().reset();
        core.memory().clear();
        for (const auto &[addr, val] : warmup.mem)
            core.memory().store(addr, val);
        core.run(program, warmup.regs, runScratch);
    }

    // The board has no randomness of its own: every repetition would
    // train, run and leave the same state.  So each state runs once
    // here, and the repetitions below replay only their noise and
    // fault draws.  The stray accesses land after the run, and
    // simulate() wipes the cache before the next measurement, so
    // replaying them on a copy of the post-run cache reproduces a
    // fresh core per repetition exactly.
    Measurement base[2];
    const ProgramInput *states[2] = {&tc.s1, &tc.s2};
    for (int i = 0; i < 2; ++i) {
        simulate(program, *states[i]);
        if (cfg.channel != Channel::TlbSnapshot)
            postRun[i] = core.cache();
        // Probing draws jitter faults, so PrimeProbe has no noise-free
        // measurement to reuse: every repetition probes.
        if (cfg.channel != Channel::PrimeProbe)
            base[i] = observe();
    }

    Measurement scratch[2];
    auto replay = [&](int i) -> const Measurement & {
        const Strays strays = drawStrays();
        // Stray accesses touch only the cache: the TLB never sees
        // them, and a cache snapshot only when one landed.
        if (cfg.channel == Channel::TlbSnapshot ||
            (cfg.channel == Channel::TrustZoneSnapshot &&
             strays.count == 0))
            return base[i];
        core.cache() = postRun[i];
        for (int k = 0; k < strays.count; ++k)
            core.cache().access(strays.addrs[k]);
        scratch[i] = observe();
        return scratch[i];
    };

    for (int rep = 0; rep < cfg.repeats; ++rep) {
        const std::uint64_t faults_before = faults::injectedCount();
        const Measurement &m1 = replay(0);
        const Measurement &m2 = replay(1);
        const bool flaked = faults::injectedCount() != faults_before;
        if (flaked)
            ++result.flakedReps;
        if (!(m1 == m2)) {
            ++result.differingReps;
            if (!flaked)
                ++clean_differing;
        }
    }

    if (result.flakedReps == 0) {
        if (result.differingReps == 0)
            result.verdict = Verdict::Indistinguishable;
        else if (result.differingReps == result.totalReps)
            result.verdict = Verdict::Counterexample;
        else
            result.verdict = Verdict::Inconclusive;
    } else {
        // Flaked repetitions carry injected measurement noise, so they
        // can never certify agreement: the experiment is at best
        // inconclusive, and remains a counterexample only when every
        // clean repetition still distinguishes the two states.
        const int clean = result.totalReps - result.flakedReps;
        if (clean > 0 && clean_differing == clean)
            result.verdict = Verdict::Counterexample;
        else
            result.verdict = Verdict::Inconclusive;
    }
    return result;
}

hw::CacheState
Platform::measureOnce(const bir::Program &program,
                      const ProgramInput &input)
{
    return measure(program, input).cache;
}

std::vector<std::uint64_t>
Platform::probeOnce(const bir::Program &program,
                    const ProgramInput &input)
{
    SCAMV_ASSERT(cfg.channel == Channel::PrimeProbe,
                 "probeOnce requires the PrimeProbe channel");
    return measure(program, input).probeLatencies;
}

} // namespace scamv::harness
