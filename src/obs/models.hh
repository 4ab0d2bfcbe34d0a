/**
 * @file
 * The observational models of the paper (Sections 4 and 6).
 *
 * Each model is a sym::Annotator that emits every observation it makes
 * with tag Base.  Observation refinement pairs a model under
 * validation M1 with a more-restrictive refined model M2 through
 * `RefinementPair`, which implements the tag/projection optimization
 * of Section 5.1: per instruction it asks both models and emits M1's
 * observations as Base and the observations exclusive to M2 as
 * RefinedOnly.  A single symbolic execution under the pair therefore
 * yields both observation lists.
 *
 * Models:
 *  - `Mpc`     program counter of every architectural instruction
 *              (path-coverage support model, 4.1.1).
 *  - `Mline`   Mpc + cache set index of every architectural memory
 *              access (cache-line coverage support, 4.1.2).
 *  - `Mct`     constant-time model: pc + address of every
 *              architectural memory access (4.2.2).
 *  - `Mpart`   cache-coloring model: pc + address of memory accesses
 *              *within the attacker region* (4.2.1).  The conditional
 *              observation is encoded as ite(AR(addr), addr, 0):
 *              address 0 lies outside the experiment memory region, so
 *              it acts as the "none" sentinel without changing
 *              observation-list lengths.
 *  - `MpartRefined` (Mpart') = Mpart + every access address
 *              regardless of AR.
 *  - `Mspec`   = Mct + every transient memory-access address
 *              (CPU-always-mispredicts model).
 *  - `Mspec1`  = Mct + only the *first* transient load per shadow
 *              block (6.5).
 *
 * Mspec' (straight-line speculation, 6.5) is Mspec applied to a
 * program whose direct jumps were rewritten by
 * bir::rewriteJumpsToCondBranches before instrumentation.
 *
 * `Mpage`/`MspecPage` are the TLB-channel analogues of `Mct`/`Mspec`
 * (Section 2.3 names TLB state as a supported channel type): they
 * observe page numbers instead of addresses/lines, paired with the
 * platform's TLB-snapshot measurement channel.
 */

#ifndef SCAMV_OBS_MODELS_HH
#define SCAMV_OBS_MODELS_HH

#include <memory>
#include <string>

#include "obs/layout.hh"
#include "sym/symexec.hh"

namespace scamv::obs {

/** Identifiers for the models, used by configs and reports. */
enum class ModelKind {
    Mpc,
    Mline,
    Mct,
    Mpart,
    MpartRefined,
    Mspec,
    Mspec1,
    Mpage,    ///< pc + page number of architectural accesses (TLB)
    MspecPage ///< Mpage + page number of transient accesses
};

/** @return the paper's name for a model ("Mpart'", "Mspec1", ...). */
const char *modelName(ModelKind kind);

/** @return true for the models that observe transient execution
 *  (Mspec, Mspec1, MspecPage): they need shadow instrumentation. */
bool isSpeculative(ModelKind kind);

/** Parameters consumed by the models that need them. */
struct ModelParams {
    CacheGeometry geom;
    AttackerRegion attacker;
};

/** Construct the annotator for a model. */
std::unique_ptr<sym::Annotator> makeModel(ModelKind kind,
                                          const ModelParams &params = {});

/**
 * Refinement combinator (Section 5.1).
 *
 * Emits, per instruction, M1's observations tagged Base and the
 * observations exclusive to M2 tagged RefinedOnly.  Requires (and
 * asserts) the Projection Assumption direction needed here: every M1
 * observation is also an M2 observation.
 */
class RefinementPair : public sym::Annotator
{
  public:
    RefinementPair(std::unique_ptr<sym::Annotator> m1,
                   std::unique_ptr<sym::Annotator> m2)
        : m1(std::move(m1)), m2(std::move(m2))
    {}

    std::string
    name() const override
    {
        return m1->name() + "/" + m2->name();
    }

    void observe(expr::ExprContext &ctx, const sym::InstrContext &ic,
                 std::vector<sym::Obs> &out) const override;

  private:
    std::unique_ptr<sym::Annotator> m1;
    std::unique_ptr<sym::Annotator> m2;
};

} // namespace scamv::obs

#endif // SCAMV_OBS_MODELS_HH
