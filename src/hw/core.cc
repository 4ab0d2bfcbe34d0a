#include "hw/core.hh"

#include "support/faults.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace scamv::hw {

using bir::Instr;
using bir::InstrKind;

Core::Core(const CoreConfig &config, std::uint64_t board_seed)
    : cfg(config), dcache(config.geom), dtlb(config.tlb),
      pf(config.prefetcher), bpred(config.predictor), mem(board_seed)
{}

void
Core::resetMicroarch()
{
    dcache.reset();
    dtlb.reset();
    pf.reset();
    bpred.reset();
    mem.clear();
}

std::uint64_t
Core::aluOp(bir::AluOp op, std::uint64_t a, std::uint64_t b) const
{
    using bir::AluOp;
    switch (op) {
      case AluOp::Add: return a + b;
      case AluOp::Sub: return a - b;
      case AluOp::And: return a & b;
      case AluOp::Orr: return a | b;
      case AluOp::Eor: return a ^ b;
      case AluOp::Lsl: return a << (b & 63);
      case AluOp::Lsr: return a >> (b & 63);
      case AluOp::Asr:
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >>
                                          (b & 63));
      case AluOp::Mul: return a * b;
    }
    SCAMV_PANIC("unknown ALU op");
}

bool
Core::cmpOp(bir::CmpOp op, std::uint64_t a, std::uint64_t b) const
{
    using bir::CmpOp;
    const auto sa = static_cast<std::int64_t>(a);
    const auto sb = static_cast<std::int64_t>(b);
    switch (op) {
      case CmpOp::Eq: return a == b;
      case CmpOp::Ne: return a != b;
      case CmpOp::Ult: return a < b;
      case CmpOp::Ule: return a <= b;
      case CmpOp::Ugt: return a > b;
      case CmpOp::Uge: return a >= b;
      case CmpOp::Slt: return sa < sb;
      case CmpOp::Sle: return sa <= sb;
      case CmpOp::Sgt: return sa > sb;
      case CmpOp::Sge: return sa >= sb;
    }
    SCAMV_PANIC("unknown comparison");
}

void
Core::speculate(const bir::Program &program, int wrong_pc,
                const std::array<std::uint64_t, bir::kNumRegs> &regs,
                RunResult &result)
{
    // Shadow copy of the register file at prediction time.
    std::array<std::uint64_t, bir::kNumRegs> shadow = regs;
    std::array<bool, bir::kNumRegs> transient_written{};

    const int n = static_cast<int>(program.size());
    int pc = wrong_pc;
    for (int step = 0; step < cfg.transientWindow && pc < n; ++pc) {
        const Instr &ins = program[pc];
        if (ins.transient)
            continue; // shadow statements are model-side only
        // The transient window ends at any control transfer: the A53
        // resolves the mispredicted branch before a nested prediction
        // could commit further wrong-path memory accesses.
        if (ins.kind == InstrKind::Branch || ins.kind == InstrKind::Jump ||
            ins.kind == InstrKind::Halt)
            break;
        ++step;

        auto ready = [&](const Instr &i) {
            if (cfg.forwardTransientResults)
                return true;
            for (bir::Reg r : i.sourceRegs())
                if (transient_written[r])
                    return false;
            return true;
        };
        const std::uint64_t op2 =
            ins.useImm ? ins.imm : shadow[ins.rm];

        switch (ins.kind) {
          case InstrKind::Alu:
            shadow[ins.rd] = aluOp(ins.aluOp, shadow[ins.rn], op2);
            transient_written[ins.rd] = true;
            break;
          case InstrKind::MovImm:
            shadow[ins.rd] = ins.imm;
            transient_written[ins.rd] = true;
            break;
          case InstrKind::Load: {
            if (!ready(ins)) {
                ++result.transientLoadsBlocked;
                transient_written[ins.rd] = true;
                break;
            }
            const std::uint64_t addr = shadow[ins.rn] + op2;
            // Address translation precedes the squash: speculative
            // loads fill the TLB (the TLB side channel).
            if (!dtlb.access(addr))
                ++result.tlbMisses;
            dcache.access(addr);
            if (cfg.transientTrainsPrefetcher)
                result.prefetches += pf.observe(addr, dcache);
            shadow[ins.rd] = mem.load(addr);
            transient_written[ins.rd] = true;
            ++result.transientLoadsIssued;
            result.transientTrace.push_back(addr);
            break;
          }
          case InstrKind::Store:
            // Speculative stores wait in the store buffer and are
            // squashed: no cache or memory effect.
            break;
          case InstrKind::Branch:
          case InstrKind::Jump:
          case InstrKind::Halt:
            break; // unreachable (handled above)
        }
    }
}

RunResult
Core::run(const bir::Program &program, const ArchState &init)
{
    RunResult result;
    run(program, init, result);
    return result;
}

void
Core::run(const bir::Program &program, const ArchState &init,
          RunResult &out)
{
    SCAMV_ASSERT(program.validate().empty(), "core: invalid program");
    out.reset();
    RunResult &result = out;
    const std::uint64_t cache_hits0 = dcache.hits();
    const std::uint64_t cache_misses0 = dcache.misses();
    std::array<std::uint64_t, bir::kNumRegs> regs = init.regs;

    const int n = static_cast<int>(program.size());
    int pc = 0;
    while (pc < n) {
        SCAMV_ASSERT(result.instructions < cfg.maxInstructions,
                     "core: instruction limit exceeded (loop?)");
        const Instr &ins = program[pc];
        if (ins.transient) {
            // Shadow statements exist only for the symbolic models;
            // hardware fetches the original instruction stream.
            ++pc;
            continue;
        }
        ++result.instructions;
        const std::uint64_t op2 = ins.useImm ? ins.imm : regs[ins.rm];

        switch (ins.kind) {
          case InstrKind::Alu:
            regs[ins.rd] = aluOp(ins.aluOp, regs[ins.rn], op2);
            result.cycles += cfg.aluLatency;
            ++pc;
            break;
          case InstrKind::MovImm:
            regs[ins.rd] = ins.imm;
            result.cycles += cfg.aluLatency;
            ++pc;
            break;
          case InstrKind::Load: {
            const std::uint64_t addr = regs[ins.rn] + op2;
            if (!dtlb.access(addr)) {
                ++result.tlbMisses;
                result.cycles += cfg.tlbMissLatency;
            }
            const bool hit = dcache.access(addr);
            result.prefetches += pf.observe(addr, dcache);
            regs[ins.rd] = mem.load(addr);
            result.memTrace.push_back(addr);
            result.cycles += hit ? cfg.hitLatency : cfg.missLatency;
            ++pc;
            break;
          }
          case InstrKind::Store: {
            const std::uint64_t addr = regs[ins.rn] + op2;
            if (!dtlb.access(addr)) {
                ++result.tlbMisses;
                result.cycles += cfg.tlbMissLatency;
            }
            const bool hit = dcache.access(addr);
            result.prefetches += pf.observe(addr, dcache);
            mem.store(addr, regs[ins.rd]);
            result.memTrace.push_back(addr);
            result.cycles += hit ? cfg.hitLatency : cfg.missLatency;
            ++pc;
            break;
          }
          case InstrKind::Branch: {
            const bool taken = cmpOp(ins.cmpOp, regs[ins.rn], op2);
            const bool predicted = bpred.predict(pc);
            if (predicted != taken) {
                bpred.noteMispredict();
                ++result.mispredicts;
                result.cycles += cfg.mispredictPenalty;
                // Transiently execute the wrongly predicted path.
                const int wrong_pc = predicted ? ins.target : pc + 1;
                speculate(program, wrong_pc, regs, result);
            }
            bpred.update(pc, taken);
            result.cycles += cfg.aluLatency;
            pc = taken ? ins.target : pc + 1;
            break;
          }
          case InstrKind::Jump:
            if (cfg.straightLineSpeculation)
                speculate(program, pc + 1, regs, result);
            result.cycles += cfg.aluLatency;
            pc = ins.target;
            break;
          case InstrKind::Halt:
            result.cycles += cfg.aluLatency;
            pc = n;
            break;
        }
    }
    result.finalState.regs = regs;

    // Flush this run's microarchitectural activity into the current
    // metrics registry (per-program inside a pipeline task, global
    // otherwise).  One batch per run keeps the per-access paths free
    // of registry lookups.
    metrics::Registry &reg = metrics::current();
    reg.counter("hw.runs").inc();
    reg.counter("hw.instructions").add(result.instructions);
    reg.counter("hw.cycles").add(result.cycles);
    reg.counter("hw.cache.hits").add(dcache.hits() - cache_hits0);
    reg.counter("hw.cache.misses").add(dcache.misses() - cache_misses0);
    reg.counter("hw.prefetch.issued").add(result.prefetches);
    reg.counter("hw.branch.mispredicts").add(result.mispredicts);
    reg.counter("hw.tlb.misses").add(result.tlbMisses);
    reg.counter("hw.transient_loads.issued")
        .add(result.transientLoadsIssued);
    reg.counter("hw.transient_loads.blocked")
        .add(result.transientLoadsBlocked);
}

std::uint64_t
Core::timedLoad(std::uint64_t addr)
{
    const bool hit = dcache.access(addr);
    metrics::current()
        .counter(hit ? "hw.probe.hits" : "hw.probe.misses")
        .inc();
    std::uint64_t latency = hit ? cfg.hitLatency : cfg.missLatency;
    // Injected probe jitter: a DRAM-refresh-style latency spike on
    // top of whatever the cache state dictates.
    if (faults::maybeInject(faults::Site::HwProbeJitter))
        latency += cfg.missLatency;
    return latency;
}

} // namespace scamv::hw
