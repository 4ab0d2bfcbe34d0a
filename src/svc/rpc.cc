/**
 * @file
 * "scamv-rpc-v1" frame codec and submission-spec marshalling.
 *
 * A frame payload is one support/linecodec sealed line whose fields
 * are percent-escaped, so fields with spaces or control bytes
 * survive.  On the wire each payload is preceded by an 8-hex-digit
 * byte length plus '\n', so a reader can frame the stream without
 * scanning for terminators and a truncated connection is detected as
 * NeedMore, never a short parse.  Damage handling mirrors the
 * qcache/shard codecs: a bad checksum or malformed field drops the
 * whole frame.
 */

#include "svc/svc.hh"

#include <cstdio>

#include "shard/shard.hh"
#include "support/linecodec.hh"

namespace scamv::svc {

using linecodec::esc;
using linecodec::parseDouble;
using linecodec::parseI64;
using linecodec::parseU64;

std::string
encodePayload(const Frame &frame)
{
    std::string line = esc(frame.type);
    for (const std::string &arg : frame.args) {
        line += ' ';
        line += esc(arg);
    }
    return linecodec::seal(std::move(line));
}

std::optional<Frame>
decodePayload(std::string_view payload)
{
    const std::optional<std::string_view> prefix =
        linecodec::unseal(payload);
    if (!prefix)
        return std::nullopt;
    Frame frame;
    for (std::string_view field : linecodec::split(*prefix)) {
        std::optional<std::string> plain = linecodec::unesc(field);
        if (!plain)
            return std::nullopt;
        frame.args.push_back(std::move(*plain));
    }
    frame.type = std::move(frame.args.front());
    frame.args.erase(frame.args.begin());
    if (frame.type.empty())
        return std::nullopt;
    return frame;
}

std::string
encodeFrame(const Frame &frame)
{
    const std::string payload = encodePayload(frame);
    char prefix[16];
    std::snprintf(prefix, sizeof prefix, "%08zx\n", payload.size());
    return prefix + payload;
}

FrameStatus
decodeFrame(std::string_view buf, Frame &out, std::size_t &consumed)
{
    if (buf.size() < 9)
        return FrameStatus::NeedMore;
    std::uint64_t len = 0;
    if (!linecodec::parseHex(buf.substr(0, 8), len) || buf[8] != '\n' ||
        len > kMaxFrameBytes)
        return FrameStatus::Bad;
    if (buf.size() < 9 + len)
        return FrameStatus::NeedMore;
    const std::optional<Frame> frame =
        decodePayload(buf.substr(9, len));
    if (!frame)
        return FrameStatus::Bad;
    out = *frame;
    consumed = 9 + len;
    return FrameStatus::Ok;
}

std::vector<std::string>
specToArgs(const SubmissionSpec &spec)
{
    std::vector<std::string> args;
    args.push_back("programs=" + std::to_string(spec.programs));
    args.push_back("tests=" + std::to_string(spec.tests));
    args.push_back("seed=" + std::to_string(spec.seed));
    args.push_back("adaptive=" + std::to_string(spec.adaptive ? 1 : 0));
    args.push_back("line=" + std::to_string(spec.line ? 1 : 0));
    args.push_back("priority=" + std::to_string(spec.priority));
    args.push_back("shards=" + std::to_string(spec.shards));
    args.push_back(std::string("fault_rate=") +
                   linecodec::g17(spec.faultRate));
    args.push_back("fault_plan=" + (spec.faultSites.empty()
                                        ? std::string("-")
                                        : spec.faultSites));
    args.push_back("retry_max=" + std::to_string(spec.retryMax));
    args.push_back("triage=" + std::to_string(spec.triage ? 1 : 0));
    args.push_back("minimize=" +
                   std::to_string(spec.minimize ? 1 : 0));
    args.push_back("corpus=" + (spec.corpusDir.empty()
                                    ? std::string("-")
                                    : spec.corpusDir));
    return args;
}

std::optional<SubmissionSpec>
specFromArgs(const std::vector<std::string> &args, std::string &error)
{
    SubmissionSpec spec;
    for (const std::string &arg : args) {
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos) {
            error = "malformed submission field '" + arg + "'";
            return std::nullopt;
        }
        const std::string_view key(arg.data(), eq);
        const std::string_view val(arg.data() + eq + 1,
                                   arg.size() - eq - 1);
        std::int64_t i = 0;
        std::uint64_t u = 0;
        double d = 0.0;
        if (key == "programs" && parseI64(val, i) && i >= 1 &&
            i <= 100000) {
            spec.programs = static_cast<int>(i);
        } else if (key == "tests" && parseI64(val, i) && i >= 1 &&
                   i <= 10000) {
            spec.tests = static_cast<int>(i);
        } else if (key == "seed" && parseU64(val, u)) {
            spec.seed = u;
        } else if (key == "adaptive" && parseI64(val, i) &&
                   (i == 0 || i == 1)) {
            spec.adaptive = i != 0;
        } else if (key == "line" && parseI64(val, i) &&
                   (i == 0 || i == 1)) {
            spec.line = i != 0;
        } else if (key == "priority" && parseI64(val, i) &&
                   i >= -100 && i <= 100) {
            spec.priority = static_cast<int>(i);
        } else if (key == "shards" && parseI64(val, i) && i >= 0 &&
                   i <= 64) {
            spec.shards = static_cast<int>(i);
        } else if (key == "fault_rate" && parseDouble(val, d) &&
                   d >= 0.0 && d <= 1.0) {
            spec.faultRate = d;
        } else if (key == "fault_plan") {
            spec.faultSites = val == "-" ? "" : std::string(val);
        } else if (key == "retry_max" && parseI64(val, i) &&
                   i >= -1 && i <= 64) {
            spec.retryMax = static_cast<int>(i);
        } else if (key == "triage" && parseI64(val, i) &&
                   (i == 0 || i == 1)) {
            spec.triage = i != 0;
        } else if (key == "minimize" && parseI64(val, i) &&
                   (i == 0 || i == 1)) {
            spec.minimize = i != 0;
        } else if (key == "corpus") {
            spec.corpusDir = val == "-" ? "" : std::string(val);
        } else {
            error = "invalid submission field '" + arg + "'";
            return std::nullopt;
        }
    }
    return spec;
}

faults::FaultPlan
faultPlanFor(const SubmissionSpec &spec)
{
    faults::FaultPlan plan;
    if (spec.faultRate <= 0.0)
        return plan;
    plan.rate = spec.faultRate;
    if (spec.faultSites.empty()) {
        plan.mask = faults::FaultPlan::maskAll();
        return plan;
    }
    std::string_view rest(spec.faultSites);
    while (!rest.empty()) {
        const std::size_t split = rest.find_first_of(", \t");
        const std::string_view token = rest.substr(0, split);
        rest = split == std::string_view::npos
                   ? std::string_view()
                   : rest.substr(split + 1);
        if (token.empty())
            continue;
        if (token == "all")
            plan.mask = faults::FaultPlan::maskAll();
        else if (auto site = faults::siteFromName(token))
            plan.mask |= 1u << static_cast<int>(*site);
    }
    if (plan.mask == 0)
        plan.rate = 0.0;
    return plan;
}

core::PipelineConfig
campaignConfig(const SubmissionSpec &spec)
{
    core::PipelineConfig cfg =
        spec.corpusDir.empty()
            ? shard::defaultWorkload(spec.programs, spec.tests,
                                     spec.seed, spec.adaptive,
                                     spec.line)
            : shard::corpusWorkload(spec.programs, spec.tests,
                                    spec.seed, spec.adaptive,
                                    spec.corpusDir);
    if (spec.faultRate > 0.0)
        cfg.faultPlan = faultPlanFor(spec);
    if (spec.retryMax >= 0)
        cfg.retryMax = spec.retryMax;
    if (spec.triage)
        cfg.triageScreen = 1;
    if (spec.minimize)
        cfg.triageMinimize = 1;
    return cfg;
}

const char *
stateName(SubmissionState state)
{
    switch (state) {
      case SubmissionState::Queued: return "queued";
      case SubmissionState::Running: return "running";
      case SubmissionState::Merging: return "merging";
      case SubmissionState::Done: return "done";
      case SubmissionState::Failed: return "failed";
    }
    return "?";
}

} // namespace scamv::svc
