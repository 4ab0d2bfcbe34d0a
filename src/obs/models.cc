#include "obs/models.hh"

#include <algorithm>

#include "support/logging.hh"

namespace scamv::obs {

using sym::InstrContext;
using sym::Obs;
using sym::ObsTag;

const char *
modelName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Mpc: return "Mpc";
      case ModelKind::Mline: return "Mline";
      case ModelKind::Mct: return "Mct";
      case ModelKind::Mpart: return "Mpart";
      case ModelKind::MpartRefined: return "Mpart'";
      case ModelKind::Mspec: return "Mspec";
      case ModelKind::Mspec1: return "Mspec1";
      case ModelKind::Mpage: return "Mpage";
      case ModelKind::MspecPage: return "MspecPage";
    }
    return "?";
}

bool
isSpeculative(ModelKind kind)
{
    return kind == ModelKind::Mspec || kind == ModelKind::Mspec1 ||
           kind == ModelKind::MspecPage;
}

namespace {

/** Observes the program counter of every architectural instruction. */
class MpcModel : public sym::Annotator
{
  public:
    std::string name() const override { return "Mpc"; }

    void
    observe(expr::ExprContext &ctx, const InstrContext &ic,
            std::vector<Obs> &out) const override
    {
        if (ic.transient)
            return;
        out.push_back({ObsTag::Base, ctx.bv(ic.index), "pc"});
    }
};

/** Mpc + cache set index of architectural memory accesses. */
class MlineModel : public sym::Annotator
{
  public:
    explicit MlineModel(const ModelParams &p) : params(p) {}

    std::string name() const override { return "Mline"; }

    void
    observe(expr::ExprContext &ctx, const InstrContext &ic,
            std::vector<Obs> &out) const override
    {
        if (ic.transient)
            return;
        out.push_back({ObsTag::Base, ctx.bv(ic.index), "pc"});
        if (ic.instr->isMemAccess())
            out.push_back({ObsTag::Base,
                           params.geom.setExpr(ctx, ic.addr), "line"});
    }

  private:
    ModelParams params;
};

/** Constant-time model: pc + every architectural access address. */
class MctModel : public sym::Annotator
{
  public:
    std::string name() const override { return "Mct"; }

    void
    observe(expr::ExprContext &ctx, const InstrContext &ic,
            std::vector<Obs> &out) const override
    {
        if (ic.transient) {
            observeTransient(ctx, ic, out);
            return;
        }
        out.push_back({ObsTag::Base, ctx.bv(ic.index), "pc"});
        if (ic.instr->isMemAccess())
            out.push_back({ObsTag::Base, ic.addr, "addr"});
    }

  protected:
    /** Hook for the speculative extensions. */
    virtual void
    observeTransient(expr::ExprContext &, const InstrContext &,
                     std::vector<Obs> &) const
    {}
};

/**
 * Mspec: Mct + all transient memory-access addresses.
 *
 * Transient addresses are observed at cache-line granularity
 * (addr >> lineShift): the data cache cannot distinguish sub-line
 * bits, so a finer observation would add no exclusion power, while
 * the line-granular encoding steers the "refined observations differ"
 * constraint toward states the hardware can actually tell apart (see
 * DESIGN.md).
 */
class MspecModel : public MctModel
{
  public:
    explicit MspecModel(const ModelParams &p) : params(p) {}

    std::string name() const override { return "Mspec"; }

  protected:
    void
    observeTransient(expr::ExprContext &ctx, const InstrContext &ic,
                     std::vector<Obs> &out) const override
    {
        if (ic.instr->isMemAccess())
            out.push_back({ObsTag::Base,
                           ctx.lshr(ic.addr,
                                    ctx.bv(params.geom.lineShift())),
                           "transient-line"});
    }

  private:
    ModelParams params;
};

/** Mspec1: Mct + only the first transient load per shadow block. */
class Mspec1Model : public MctModel
{
  public:
    explicit Mspec1Model(const ModelParams &p) : params(p) {}

    std::string name() const override { return "Mspec1"; }

  protected:
    void
    observeTransient(expr::ExprContext &ctx, const InstrContext &ic,
                     std::vector<Obs> &out) const override
    {
        if (ic.instr->kind == bir::InstrKind::Load &&
            ic.transientLoadOrdinal == 0)
            out.push_back({ObsTag::Base,
                           ctx.lshr(ic.addr,
                                    ctx.bv(params.geom.lineShift())),
                           "transient-first-line"});
    }

  private:
    ModelParams params;
};

/**
 * TLB-channel model: pc + page number of every architectural access;
 * with `transientPages` also the page of every transient access.
 */
class MpageModel : public sym::Annotator
{
  public:
    MpageModel(const ModelParams &p, bool transient_pages)
        : params(p), transientPages(transient_pages)
    {}

    std::string
    name() const override
    {
        return transientPages ? "MspecPage" : "Mpage";
    }

    void
    observe(expr::ExprContext &ctx, const InstrContext &ic,
            std::vector<Obs> &out) const override
    {
        // 4 KiB pages: 12-bit offset.
        if (ic.transient) {
            if (transientPages && ic.instr->isMemAccess())
                out.push_back({ObsTag::Base,
                               ctx.lshr(ic.addr, ctx.bv(12)),
                               "transient-page"});
            return;
        }
        out.push_back({ObsTag::Base, ctx.bv(ic.index), "pc"});
        if (ic.instr->isMemAccess())
            out.push_back({ObsTag::Base,
                           ctx.lshr(ic.addr, ctx.bv(12)), "page"});
    }

  private:
    ModelParams params;
    bool transientPages;
};

/**
 * Cache-coloring model: pc + AR-conditional access addresses, with the
 * 0-sentinel encoding (see models.hh).  With `allAddresses` set this
 * is Mpart': every address is additionally observed unconditionally.
 */
class MpartModel : public sym::Annotator
{
  public:
    MpartModel(const ModelParams &p, bool all_addresses)
        : params(p), allAddresses(all_addresses)
    {}

    std::string
    name() const override
    {
        return allAddresses ? "Mpart'" : "Mpart";
    }

    void
    observe(expr::ExprContext &ctx, const InstrContext &ic,
            std::vector<Obs> &out) const override
    {
        if (ic.transient)
            return;
        out.push_back({ObsTag::Base, ctx.bv(ic.index), "pc"});
        if (!ic.instr->isMemAccess())
            return;
        expr::Expr in_ar = params.attacker.containsExpr(ctx, ic.addr);
        out.push_back({ObsTag::Base, ctx.ite(in_ar, ic.addr, ctx.zero()),
                       "ar-addr"});
        if (allAddresses)
            out.push_back({ObsTag::Base,
                           ctx.lshr(ic.addr,
                                    ctx.bv(params.geom.lineShift())),
                           "any-line"});
    }

  private:
    ModelParams params;
    bool allAddresses;
};

} // namespace

std::unique_ptr<sym::Annotator>
makeModel(ModelKind kind, const ModelParams &params)
{
    switch (kind) {
      case ModelKind::Mpc:
        return std::make_unique<MpcModel>();
      case ModelKind::Mline:
        return std::make_unique<MlineModel>(params);
      case ModelKind::Mct:
        return std::make_unique<MctModel>();
      case ModelKind::Mpart:
        return std::make_unique<MpartModel>(params, false);
      case ModelKind::MpartRefined:
        return std::make_unique<MpartModel>(params, true);
      case ModelKind::Mspec:
        return std::make_unique<MspecModel>(params);
      case ModelKind::Mspec1:
        return std::make_unique<Mspec1Model>(params);
      case ModelKind::Mpage:
        return std::make_unique<MpageModel>(params, false);
      case ModelKind::MspecPage:
        return std::make_unique<MpageModel>(params, true);
    }
    SCAMV_PANIC("unknown model kind");
}

void
RefinementPair::observe(expr::ExprContext &ctx, const InstrContext &ic,
                        std::vector<Obs> &out) const
{
    std::vector<Obs> o1, o2;
    m1->observe(ctx, ic, o1);
    m2->observe(ctx, ic, o2);

    // M2 must be more restrictive: every M1 observation must appear in
    // M2's list (Projection Assumption, Section 5.1).  Match M1
    // observations against M2's by value and consume them so that
    // duplicated values are handled as a multiset.
    std::vector<bool> consumed(o2.size(), false);
    for (const Obs &o : o1) {
        bool found = false;
        for (std::size_t j = 0; j < o2.size(); ++j) {
            if (!consumed[j] && o2[j].value == o.value) {
                consumed[j] = true;
                found = true;
                break;
            }
        }
        SCAMV_ASSERT(found, "RefinementPair: M2 is not more restrictive "
                            "than M1 (missing observation)");
        out.push_back({ObsTag::Base, o.value, o.note});
    }
    for (std::size_t j = 0; j < o2.size(); ++j)
        if (!consumed[j])
            out.push_back({ObsTag::RefinedOnly, o2[j].value, o2[j].note});
}

} // namespace scamv::obs
