/**
 * @file
 * Symbolic execution of BIR programs with observation annotation.
 *
 * Executes a (possibly speculatively-instrumented) program on symbolic
 * inputs, exploring every execution path.  Each terminating path
 * yields a PathResult: the path condition and the ordered list of
 * tagged symbolic observations (Section 2.3).  Observation content is
 * supplied by an Annotator, the interface implemented by the
 * observational models in src/obs.
 *
 * Transient (shadow) instructions operate on a shadow copy of the
 * register file that is (re-)initialized from the architectural
 * registers whenever a shadow block is entered, mirroring Fig. 4's
 * "copy of the real state at the time of branch prediction".  Shadow
 * stores do not modify memory; their address is still presented to the
 * annotator.  The executor tracks, per shadow register, whether its
 * value depends on the result of a transient load — the hardware
 * capability boundary probed in Section 6.5.
 */

#ifndef SCAMV_SYM_SYMEXEC_HH
#define SCAMV_SYM_SYMEXEC_HH

#include <string>
#include <vector>

#include "bir/bir.hh"
#include "expr/expr.hh"

namespace scamv::sym {

using expr::Expr;

/** Observation tags implementing the projection of Section 5.1. */
enum class ObsTag : std::uint8_t {
    Base,       ///< belongs to the model under validation (and M2)
    RefinedOnly ///< added by the refined model M2
};

/** One symbolic observation. */
struct Obs {
    ObsTag tag = ObsTag::Base;
    Expr value = nullptr;
    /** Debug label, e.g. "pc", "load-addr", "transient-load-addr". */
    const char *note = "";
};

/** Per-instruction context handed to the annotator. */
struct InstrContext {
    const bir::Instr *instr = nullptr;
    int index = 0;              ///< index in the executed program
    bool transient = false;     ///< shadow instruction
    Expr addr = nullptr;        ///< memory address (Load/Store)
    Expr value = nullptr;       ///< loaded/stored value
    bool isBranch = false;
    bool branchTaken = false;   ///< direction taken on this path
    Expr branchCond = nullptr;  ///< predicate of the *taken* direction
    /** Number of transient loads already seen in this shadow block. */
    int transientLoadOrdinal = 0;
    /** Address depends on the result of an earlier transient load. */
    bool addrDependsOnTransientLoad = false;
};

/** Observation-producing model; implementations live in src/obs. */
class Annotator
{
  public:
    virtual ~Annotator() = default;

    /** Human-readable model name ("Mct", "Mspec", ...). */
    virtual std::string name() const = 0;

    /** Emit the observations this model makes for one instruction. */
    virtual void observe(expr::ExprContext &ctx, const InstrContext &ic,
                         std::vector<Obs> &out) const = 0;
};

/** Result of symbolically executing one path. */
struct PathResult {
    Expr cond = nullptr;            ///< path condition
    std::vector<Obs> obs;           ///< tagged observation list
    std::vector<bool> decisions;    ///< branch outcomes in order
    /** Architectural load/store address expressions, in order. */
    std::vector<Expr> memAddrs;
    /** Transient load address expressions, in order. */
    std::vector<Expr> transientLoadAddrs;

    /** @return the observations with the given tag, in order. */
    std::vector<Obs> project(ObsTag tag) const;

    /** @return a short path id like "TF" (taken, not-taken). */
    std::string pathId() const;
};

/** Symbolic input naming scheme: register and memory variable names. */
struct SymNames {
    /** Suffix appended to every variable ("_1" for state s1). */
    std::string suffix;

    std::string
    reg(bir::Reg r) const
    {
        std::string name = "x";
        name += std::to_string(r);
        name += suffix;
        return name;
    }

    std::string mem() const { return "mem" + suffix; }
};

/** Configuration of the symbolic executor. */
struct SymExecConfig {
    /** Abort a path after this many executed instructions. */
    int maxSteps = 4096;
    /** Abort exploration after this many paths. */
    int maxPaths = 64;
};

/**
 * Symbolically execute `p`, observing through `annotator`.
 *
 * Register x_i is bound to variable names.reg(i) and memory to
 * names.mem().  @return one PathResult per terminating path.
 */
std::vector<PathResult> execute(expr::ExprContext &ctx,
                                const bir::Program &p,
                                const Annotator &annotator,
                                const SymNames &names,
                                const SymExecConfig &config = {});

} // namespace scamv::sym

#endif // SCAMV_SYM_SYMEXEC_HH
