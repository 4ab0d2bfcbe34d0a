/**
 * @file
 * The "scamv-shard-v1" transfer artifact: lossless text serialization
 * of a campaign slice's per-program outcomes.
 *
 * Every line is a support/linecodec sealed line, like the qcache
 * checkpoint ("scamv-qcache-v1"); string fields are percent-escaped
 * so names with spaces ("Template A#3") and multi-line program text
 * survive.  A *program group* — the P line and everything up to the
 * next P line — is the unit of damage: any invalid line drops the
 * whole group (a partial outcome would corrupt the merge), mirroring
 * qcache's drop-and-count record handling.
 *
 * Workers serialize raw per-program data, never aggregates: the
 * coordinator re-folds outcomes in program-index order through the
 * same merge tail a single-process run uses, which is what makes the
 * merged campaign artifacts byte-identical (doubles are shipped as
 * %.17g, which round-trips binary64 exactly).
 */

#include "shard/shard.hh"

#include <fstream>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "support/faults.hh"
#include "support/linecodec.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/qcache/qcache.hh"

namespace scamv::shard {
namespace {

using linecodec::esc;
using linecodec::g17;
using linecodec::hex;
using linecodec::hex16;
using linecodec::parseDouble;
using linecodec::parseHex;
using linecodec::parseI64;
using linecodec::parseInt;
using linecodec::parseU64;
using linecodec::split;
using linecodec::unesc;

constexpr const char *kHeader = "scamv-shard-v1";

/** Append `line`, sealed, as one line of `out`. */
void
pushLine(std::string &out, std::string line)
{
    out += linecodec::seal(std::move(line));
    out += '\n';
}

/** Sparse register list: "i:hex,i:hex" over non-zero regs, "-" if
 *  none (the array is zero-initialized, so sparse is lossless). */
std::string
encodeRegs(const hw::ArchState &regs)
{
    std::string out;
    for (std::size_t i = 0; i < regs.regs.size(); ++i) {
        if (!regs.regs[i])
            continue;
        if (!out.empty())
            out += ',';
        out += std::to_string(i) + ':' + hex(regs.regs[i]);
    }
    return out.empty() ? "-" : out;
}

bool
decodeRegs(std::string_view s, hw::ArchState &out)
{
    out = hw::ArchState{};
    if (s == "-")
        return true;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string_view::npos)
            comma = s.size();
        const std::string_view item = s.substr(pos, comma - pos);
        const std::size_t colon = item.find(':');
        if (colon == std::string_view::npos)
            return false;
        std::uint64_t idx = 0, val = 0;
        if (!parseU64(item.substr(0, colon), idx) ||
            !parseHex(item.substr(colon + 1), val) ||
            idx >= out.regs.size())
            return false;
        out.regs[idx] = val;
        pos = comma + 1;
    }
    return true;
}

/** Memory init list: "addr:word,addr:word" in the MemInit's
 *  address-ascending order; decodeMem rejects any other order. */
std::string
encodeMem(const harness::MemInit &mem)
{
    std::string out;
    for (const auto &[addr, word] : mem) {
        if (!out.empty())
            out += ',';
        out += hex(addr) + ':' + hex(word);
    }
    return out.empty() ? "-" : out;
}

bool
decodeMem(std::string_view s, harness::MemInit &out)
{
    out.clear();
    if (s == "-")
        return true;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string_view::npos)
            comma = s.size();
        const std::string_view item = s.substr(pos, comma - pos);
        const std::size_t colon = item.find(':');
        if (colon == std::string_view::npos)
            return false;
        std::uint64_t addr = 0, word = 0;
        if (!parseHex(item.substr(0, colon), addr) ||
            !parseHex(item.substr(colon + 1), word))
            return false;
        // MemInit addresses are strictly ascending (unique).
        if (!out.empty() && addr <= out.back().first)
            return false;
        out.emplace_back(addr, word);
        pos = comma + 1;
    }
    return true;
}

void
encodeOutcome(std::string &out, int k,
              const core::ProgramOutcome &o)
{
    const unsigned flags = (o.hasCex ? 1u : 0u) |
                           (o.failed ? 2u : 0u) |
                           (o.quarantined ? 4u : 0u);
    pushLine(out, "P " + std::to_string(k) + ' ' +
                      std::to_string(flags) + ' ' + esc(o.name) + ' ' +
                      g17(o.firstCexOffsetSeconds) + ' ' +
                      g17(o.taskSeconds));
    for (const auto &[key, val] : o.metrics.counters)
        pushLine(out, "C " + esc(key) + ' ' + std::to_string(val));
    for (const auto &[key, val] : o.metrics.gauges)
        pushLine(out, "G " + esc(key) + ' ' + g17(val));
    for (const auto &[key, h] : o.metrics.histograms) {
        std::string line = "H " + esc(key) + ' ' +
                           std::to_string(h.bounds.size());
        for (double b : h.bounds)
            line += ' ' + g17(b);
        line += ' ' + std::to_string(h.counts.size());
        for (std::uint64_t c : h.counts)
            line += ' ' + std::to_string(c);
        line += ' ' + std::to_string(h.count) + ' ' + g17(h.sum);
        pushLine(out, line);
    }
    const cover::ProgramDelta &d = o.coverDelta;
    if (!d.templ.empty()) {
        pushLine(out,
                 "V " + esc(d.templ) + ' ' + esc(d.model) + ' ' +
                     std::to_string(d.universe) + ' ' +
                     std::to_string(d.verdicts.experiments) + ' ' +
                     std::to_string(d.verdicts.counterexamples) + ' ' +
                     std::to_string(d.verdicts.inconclusive) + ' ' +
                     std::to_string(d.verdicts.indistinguishable));
        for (const auto &[cls, st] : d.classes)
            pushLine(out, "K " + std::to_string(cls) + ' ' +
                              std::to_string(st.hits) + ' ' +
                              std::to_string(st.draws) + ' ' +
                              g17(st.solverSeconds));
        for (const auto &[pair, n] : d.pathPairs)
            pushLine(out,
                     "Q " + esc(pair) + ' ' + std::to_string(n));
    }
    for (const core::ExperimentRecord &r : o.records) {
        pushLine(out,
                 "R " + esc(r.programName) + ' ' +
                     esc(r.programText) + ' ' + esc(r.pathId) + ' ' +
                     std::string(r.trained ? "1" : "0") + ' ' +
                     std::to_string(r.lineClass1) + ' ' +
                     std::to_string(r.lineClass2) + ' ' +
                     std::to_string(static_cast<int>(r.verdict)) +
                     ' ' + std::to_string(r.differingReps) + ' ' +
                     std::to_string(r.totalReps) + ' ' +
                     encodeRegs(r.testCase.s1.regs) + ' ' +
                     encodeMem(r.testCase.s1.mem) + ' ' +
                     encodeRegs(r.testCase.s2.regs) + ' ' +
                     encodeMem(r.testCase.s2.mem));
    }
    for (const triage::Finding &fd : o.findings) {
        pushLine(out,
                 "F " + std::to_string(fd.progIndex) + ' ' +
                     esc(fd.program) + ' ' + esc(fd.mechanism) + ' ' +
                     esc(fd.signature) + ' ' +
                     std::string(fd.minimized ? "1" : "0") + ' ' +
                     std::string(fd.degraded ? "1" : "0") + ' ' +
                     std::to_string(fd.instrsBefore) + ' ' +
                     std::to_string(fd.instrsAfter) + ' ' +
                     std::to_string(fd.stateBitsBefore) + ' ' +
                     std::to_string(fd.stateBitsAfter) + ' ' +
                     esc(fd.core) + ' ' + encodeRegs(fd.tc.s1.regs) +
                     ' ' + encodeMem(fd.tc.s1.mem) + ' ' +
                     encodeRegs(fd.tc.s2.regs) + ' ' +
                     encodeMem(fd.tc.s2.mem));
    }
}

/** One group's accumulated lines, committed only when fully valid. */
struct GroupParse {
    int k = -1;
    core::ProgramOutcome outcome;
    bool bad = false;
};

bool
parseGroupLine(std::string_view prefix, GroupParse &group)
{
    const std::vector<std::string_view> f = split(prefix);
    if (f.empty())
        return false;
    core::ProgramOutcome &o = group.outcome;
    if (f[0] == "C") {
        std::uint64_t val = 0;
        auto key = f.size() == 3 ? unesc(f[1]) : std::nullopt;
        if (!key || !parseU64(f[2], val))
            return false;
        o.metrics.counters[*key] = val;
        return true;
    }
    if (f[0] == "G") {
        double val = 0;
        auto key = f.size() == 3 ? unesc(f[1]) : std::nullopt;
        if (!key || !parseDouble(f[2], val))
            return false;
        o.metrics.gauges[*key] = val;
        return true;
    }
    if (f[0] == "H") {
        if (f.size() < 5)
            return false;
        auto key = unesc(f[1]);
        std::uint64_t nb = 0;
        if (!key || !parseU64(f[2], nb) || nb > 4096 ||
            f.size() < 3 + nb + 1)
            return false;
        metrics::HistogramData h;
        h.bounds.resize(nb);
        std::size_t at = 3;
        for (std::uint64_t i = 0; i < nb; ++i)
            if (!parseDouble(f[at++], h.bounds[i]))
                return false;
        std::uint64_t nc = 0;
        if (!parseU64(f[at++], nc) || nc != nb + 1 ||
            f.size() != at + nc + 2)
            return false;
        h.counts.resize(nc);
        for (std::uint64_t i = 0; i < nc; ++i)
            if (!parseU64(f[at++], h.counts[i]))
                return false;
        if (!parseU64(f[at++], h.count) ||
            !parseDouble(f[at++], h.sum))
            return false;
        o.metrics.histograms[*key] = std::move(h);
        return true;
    }
    if (f[0] == "V") {
        if (f.size() != 8)
            return false;
        auto templ = unesc(f[1]);
        auto model = unesc(f[2]);
        cover::ProgramDelta &d = o.coverDelta;
        if (!templ || templ->empty() || !model ||
            !parseU64(f[3], d.universe) ||
            !parseI64(f[4], d.verdicts.experiments) ||
            !parseI64(f[5], d.verdicts.counterexamples) ||
            !parseI64(f[6], d.verdicts.inconclusive) ||
            !parseI64(f[7], d.verdicts.indistinguishable))
            return false;
        d.templ = *templ;
        d.model = *model;
        return true;
    }
    if (f[0] == "K") {
        if (f.size() != 5 || o.coverDelta.templ.empty())
            return false;
        int cls = 0;
        cover::ClassStats st;
        if (!parseInt(f[1], cls) || !parseI64(f[2], st.hits) ||
            !parseI64(f[3], st.draws) ||
            !parseDouble(f[4], st.solverSeconds))
            return false;
        o.coverDelta.classes[cls] = st;
        return true;
    }
    if (f[0] == "Q") {
        if (f.size() != 3 || o.coverDelta.templ.empty())
            return false;
        auto pair = unesc(f[1]);
        std::int64_t n = 0;
        if (!pair || !parseI64(f[2], n))
            return false;
        o.coverDelta.pathPairs[*pair] = n;
        return true;
    }
    if (f[0] == "R") {
        if (f.size() != 14)
            return false;
        core::ExperimentRecord r;
        auto name = unesc(f[1]);
        auto text = unesc(f[2]);
        auto path = unesc(f[3]);
        int verdict = 0;
        if (!name || !text || !path || (f[4] != "0" && f[4] != "1") ||
            !parseInt(f[5], r.lineClass1) ||
            !parseInt(f[6], r.lineClass2) ||
            !parseInt(f[7], verdict) || verdict < 0 || verdict > 2 ||
            !parseInt(f[8], r.differingReps) ||
            !parseInt(f[9], r.totalReps) ||
            !decodeRegs(f[10], r.testCase.s1.regs) ||
            !decodeMem(f[11], r.testCase.s1.mem) ||
            !decodeRegs(f[12], r.testCase.s2.regs) ||
            !decodeMem(f[13], r.testCase.s2.mem))
            return false;
        r.programName = std::move(*name);
        r.programText = std::move(*text);
        r.pathId = std::move(*path);
        r.trained = f[4] == "1";
        r.verdict = static_cast<harness::Verdict>(verdict);
        o.records.push_back(std::move(r));
        return true;
    }
    if (f[0] == "F") {
        if (f.size() != 16)
            return false;
        triage::Finding fd;
        auto program = unesc(f[2]);
        auto mechanism = unesc(f[3]);
        auto signature = unesc(f[4]);
        auto core_text = unesc(f[11]);
        if (!parseInt(f[1], fd.progIndex) || !program || !mechanism ||
            !signature || (f[5] != "0" && f[5] != "1") ||
            (f[6] != "0" && f[6] != "1") ||
            !parseInt(f[7], fd.instrsBefore) ||
            !parseInt(f[8], fd.instrsAfter) ||
            !parseInt(f[9], fd.stateBitsBefore) ||
            !parseInt(f[10], fd.stateBitsAfter) || !core_text ||
            !decodeRegs(f[12], fd.tc.s1.regs) ||
            !decodeMem(f[13], fd.tc.s1.mem) ||
            !decodeRegs(f[14], fd.tc.s2.regs) ||
            !decodeMem(f[15], fd.tc.s2.mem))
            return false;
        fd.program = std::move(*program);
        fd.mechanism = std::move(*mechanism);
        fd.signature = std::move(*signature);
        fd.minimized = f[5] == "1";
        fd.degraded = f[6] == "1";
        fd.core = std::move(*core_text);
        o.findings.push_back(std::move(fd));
        return true;
    }
    return false;
}

} // namespace

std::string
encodeSlice(const core::CampaignSlice &slice, const ShardSpec &spec,
            const core::PipelineConfig &cfg)
{
    std::string out;
    pushLine(out, std::string(kHeader) + ' ' +
                      std::to_string(spec.index) + ' ' +
                      std::to_string(spec.count) + ' ' +
                      hex16(cfg.seed) + ' ' +
                      std::to_string(cfg.programs) + ' ' +
                      std::to_string(slice.first) + ' ' +
                      std::to_string(slice.count) + ' ' +
                      std::to_string(slice.earlyStopped) + ' ' +
                      std::string(slice.scheduleLocal ? "1" : "0"));
    for (int k = 0; k < slice.count; ++k)
        encodeOutcome(out, k,
                      slice.outcomes[static_cast<std::size_t>(k)]);
    return out;
}

std::optional<DecodedSlice>
decodeSlice(std::string_view text)
{
    std::size_t pos = 0;
    const auto nextLine = [&]() -> std::optional<std::string_view> {
        if (pos >= text.size())
            return std::nullopt;
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string_view::npos)
            nl = text.size();
        const std::string_view line = text.substr(pos, nl - pos);
        pos = nl + 1;
        return line;
    };

    const auto header_line = nextLine();
    if (!header_line)
        return std::nullopt;
    const auto header = linecodec::unseal(*header_line);
    if (!header)
        return std::nullopt;
    const std::vector<std::string_view> hf = split(*header);
    DecodedSlice out;
    std::uint64_t seed = 0;
    if (hf.size() != 9 || hf[0] != kHeader ||
        !parseInt(hf[1], out.spec.index) ||
        !parseInt(hf[2], out.spec.count) || !parseHex(hf[3], seed) ||
        !parseInt(hf[4], out.programs) ||
        !parseInt(hf[5], out.slice.first) ||
        !parseInt(hf[6], out.slice.count) ||
        !parseInt(hf[7], out.slice.earlyStopped) ||
        (hf[8] != "0" && hf[8] != "1"))
        return std::nullopt;
    out.seed = seed;
    out.slice.scheduleLocal = hf[8] == "1";
    if (out.slice.count < 0 || out.slice.count > (1 << 24))
        return std::nullopt;
    out.slice.outcomes.resize(
        static_cast<std::size_t>(out.slice.count));
    out.present.assign(static_cast<std::size_t>(out.slice.count),
                       false);

    GroupParse group;
    const auto commit = [&]() {
        if (group.k >= 0 && !group.bad) {
            out.slice.outcomes[static_cast<std::size_t>(group.k)] =
                std::move(group.outcome);
            out.present[static_cast<std::size_t>(group.k)] = true;
        }
        group = GroupParse{};
    };

    while (const auto line = nextLine()) {
        if (line->empty())
            continue;
        const auto prefix = linecodec::unseal(*line);
        if (prefix && !prefix->empty() && prefix->front() == 'P') {
            commit();
            const std::vector<std::string_view> f =
                split(*prefix);
            int k = -1;
            std::uint64_t flags = 0;
            double cex = 0, task = 0;
            auto name = f.size() == 6 ? unesc(f[3]) : std::nullopt;
            if (f[0] != "P" || !name || !parseInt(f[1], k) || k < 0 ||
                k >= out.slice.count ||
                out.present[static_cast<std::size_t>(k)] ||
                !parseU64(f[2], flags) || flags > 7 ||
                !parseDouble(f[4], cex) || !parseDouble(f[5], task)) {
                // A damaged or duplicate P line loses its whole
                // group; the body lines that follow are swallowed
                // until the next P line (group.k stays -1).
                continue;
            }
            group.k = k;
            group.outcome.hasCex = flags & 1;
            group.outcome.failed = flags & 2;
            group.outcome.quarantined = flags & 4;
            group.outcome.name = std::move(*name);
            group.outcome.firstCexOffsetSeconds = cex;
            group.outcome.taskSeconds = task;
            // The artifact-corruption fault site: damage surfaces at
            // group granularity, exactly like a checksum failure.
            if (faults::maybeInject(
                    faults::Site::ShardArtifactCorrupt))
                group.bad = true;
            continue;
        }
        if (group.k < 0 || group.bad)
            continue; // inside a dropped (or no) group
        if (!prefix || !parseGroupLine(*prefix, group))
            group.bad = true;
    }
    commit();
    // Every slot without an intact group — corrupted, injected,
    // duplicated or truncated away — is one dropped group.
    for (int k = 0; k < out.slice.count; ++k)
        if (!out.present[static_cast<std::size_t>(k)])
            ++out.droppedGroups;
    return out;
}

std::optional<std::uint64_t>
mergeQcacheFiles(const std::vector<std::string> &inputs,
                 const std::string &out_path)
{
    metrics::Counter &dropped =
        metrics::Registry::global().counter("shard.load_dropped");
    std::string out = std::string(qcache::kFileHeader) + "\n";
    std::unordered_set<qcache::Key, qcache::KeyHash> seen;
    std::uint64_t written = 0;
    for (const std::string &path : inputs) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            continue; // cache disabled on that shard
        std::string line;
        if (!std::getline(in, line) || line != qcache::kFileHeader) {
            warn("shard: foreign qcache checkpoint " + path +
                 ", skipping");
            dropped.inc();
            continue;
        }
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            const auto rec = qcache::decodeRecord(line);
            if (!rec) {
                dropped.inc();
                continue;
            }
            if (!seen.insert(rec->first).second)
                continue; // keep-first, as QueryCache::store does
            out += line;
            out += '\n';
            ++written;
        }
    }
    std::ofstream os(out_path, std::ios::binary | std::ios::trunc);
    if (!os || !(os << out) || !os.flush())
        return std::nullopt;
    return written;
}

bool
writeCampaignArtifacts(const core::RunStats &stats,
                       const core::ExperimentDb *db,
                       const std::string &dir)
{
    const auto write_text = [](const std::string &path,
                               const std::string &text) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        if (!os || !(os << text) || !os.flush()) {
            warn("shard: cannot write " + path);
            return false;
        }
        return true;
    };

    bool ok = metrics::writeJson(stats.metrics,
                                 dir + "/" + kMetricsFile);
    if (!ok)
        warn("shard: cannot write " + dir + "/" + kMetricsFile);
    if (stats.coverageTracked)
        ok = cover::writeJson(stats.coverage,
                              dir + "/" + kCoverageFile) &&
             ok;
    if (db)
        ok = db->exportCsv(dir + "/" + kDbFile) && ok;

    // stats.json: the headline RunStats counters in fixed key order.
    // Wall-clock fields (ttc, gen/exe seconds) are excluded so the
    // file is byte-comparable across runs and shards.
    std::ostringstream js;
    js << "{\n  \"schema\": \"scamv-shard-stats-v1\",\n";
    const auto field = [&js](const char *key, std::int64_t val,
                             bool last = false) {
        js << "  \"" << key << "\": " << val << (last ? "\n" : ",\n");
    };
    field("programs", stats.programs);
    field("programs_with_cex", stats.programsWithCex);
    field("experiments", stats.experiments);
    field("counterexamples", stats.counterexamples);
    field("inconclusive", stats.inconclusive);
    field("generation_failures", stats.generationFailures);
    field("faults_injected", stats.faultsInjected);
    field("retry_attempts", stats.retryAttempts);
    field("quarantined", stats.quarantined);
    field("degraded", stats.degraded);
    field("program_failures", stats.programFailures);
    field("db_write_drops", stats.dbWriteDrops);
    field("coverage_tracked", stats.coverageTracked ? 1 : 0);
    field("covered_classes", stats.coveredClasses);
    field("class_universe",
          static_cast<std::int64_t>(stats.classUniverse));
    field("early_stopped", stats.earlyStopped);
    field("ledger_merge_drops", stats.ledgerMergeDrops);
    field("scheduler_degraded", stats.schedulerDegraded ? 1 : 0, true);
    js << "}\n";
    return write_text(dir + "/" + kStatsFile, js.str()) && ok;
}

} // namespace scamv::shard
