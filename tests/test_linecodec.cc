/**
 * @file
 * The checksummed line codec (support/linecodec) and the three formats
 * built on it: qcache checkpoint records, shard artifacts and
 * scamv-rpc-v1 frames.
 *
 * LineCodec.* pins the edge cases all three formats share.
 * LineCodecFuzz.* (scaled by SCAMV_FUZZ_ITERS for the nightly lane)
 * round-trips random bytes through esc/unesc, checks that every
 * single-byte substitution in a sealed line's prefix is rejected, and
 * feeds mutated lines to every decoder: none may crash, and none may
 * yield a value that no checksum-valid line carried.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "shard/shard.hh"
#include "support/env.hh"
#include "support/linecodec.hh"
#include "support/qcache/qcache.hh"
#include "support/rng.hh"
#include "svc/svc.hh"

namespace scamv {
namespace {

using namespace linecodec;

/** SCAMV_FUZZ_ITERS scale, like test_solver_fuzz. */
int
fuzzIters(int base)
{
    static const int scale = static_cast<int>(
        envLong("SCAMV_FUZZ_ITERS", 1, 1000).value_or(1));
    return base * scale;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

// ---------------------------------------------------------------
// Edge cases shared by the three formats

TEST(LineCodec, EscapeEdgeCases)
{
    EXPECT_EQ(esc(""), "-");
    EXPECT_EQ(esc("-"), "%2D");
    EXPECT_EQ(esc("--"), "--");
    EXPECT_EQ(esc("a b%\n\x01"), "a%20b%25%0A%01");
    EXPECT_EQ(esc("\x7f\xff"), "\x7f\xff");
    EXPECT_EQ(unesc("-"), std::string());
    EXPECT_EQ(unesc("%2D"), "-");
    // Writers emit upper-case escapes; readers take either case.
    EXPECT_EQ(unesc("%2d"), "-");
    EXPECT_EQ(unesc("%7E%7e%41"), "~~A");
    EXPECT_EQ(unesc("100%25"), "100%");
    for (const char *bad :
         {"%", "%4", "%G1", "%1g", "%+1", "%-1", "a%", "%%"})
        EXPECT_FALSE(unesc(bad).has_value()) << bad;
}

TEST(LineCodec, SplitKeepsEmptyFields)
{
    using V = std::vector<std::string_view>;
    EXPECT_EQ(split(""), V{""});
    EXPECT_EQ(split("a"), V{"a"});
    EXPECT_EQ(split("a  b "), (V{"a", "", "b", ""}));
    EXPECT_EQ(split("x|y", '|'), (V{"x", "y"}));
}

TEST(LineCodec, FormattingAndHash)
{
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(hex(0), "0");
    EXPECT_EQ(hex(0xabcULL), "abc");
    EXPECT_EQ(hex16(0xabcULL), "0000000000000abc");
    EXPECT_EQ(g17(0.1), "0.10000000000000001");
    EXPECT_EQ(seal("a b"), "a b " + hex16(fnv1a("a b")));
}

TEST(LineCodec, UnsealAcceptsOneToSixteenDigits)
{
    const std::string sealed = seal("k 1");
    EXPECT_EQ(unseal(sealed), std::string_view("k 1"));
    // Find a prefix whose checksum has a leading zero nibble, so the
    // unpadded form is genuinely shorter.
    std::string prefix;
    for (int i = 0; hex(fnv1a(prefix)).size() == 16; ++i)
        prefix = "p " + std::to_string(i);
    const std::uint64_t sum = fnv1a(prefix);
    EXPECT_EQ(unseal(prefix + ' ' + hex(sum)), std::string_view(prefix));
    EXPECT_EQ(unseal(prefix + ' ' + hex16(sum)),
              std::string_view(prefix));
    EXPECT_FALSE(unseal(prefix + " 0" + hex16(sum)).has_value());
    EXPECT_FALSE(unseal(prefix + ' ').has_value());
    EXPECT_FALSE(unseal(prefix + " +" + hex(sum)).has_value());
    EXPECT_FALSE(unseal(hex16(fnv1a(""))).has_value()); // no space
    EXPECT_EQ(unseal(' ' + hex16(fnv1a(""))), std::string_view());
    EXPECT_FALSE(unseal("").has_value());
}

TEST(LineCodec, UnsignedParsersRejectSignOverflowAndTrailingBytes)
{
    std::uint64_t u = 7;
    EXPECT_TRUE(parseU64("18446744073709551615", u));
    EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(parseU64("0", u));
    EXPECT_EQ(u, 0u);
    EXPECT_TRUE(parseU64("010", u)); // decimal, not octal
    EXPECT_EQ(u, 10u);
    u = 7;
    for (const char *bad :
         {"18446744073709551616", "99999999999999999999", "-1", "+1",
          " 1", "1 ", "12abc", "abc", "", "0x10", "1e3", "1.0"}) {
        EXPECT_FALSE(parseU64(bad, u)) << bad;
        EXPECT_EQ(u, 7u) << bad; // untouched on failure
    }
    EXPECT_TRUE(parseHex("ffffffffffffffff", u));
    EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(parseHex("00000000000000Ab", u));
    EXPECT_EQ(u, 0xabu);
    for (const char *bad : {"00000000000000000", "10000000000000000",
                            "-1", "+1", "0x1", "g", "", " a", "a "})
        EXPECT_FALSE(parseHex(bad, u)) << bad;
}

TEST(LineCodec, SignedParsersRejectOverflowAndTrailingBytes)
{
    std::int64_t i = 0;
    EXPECT_TRUE(parseI64("-9223372036854775808", i));
    EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());
    EXPECT_TRUE(parseI64("9223372036854775807", i));
    EXPECT_EQ(i, std::numeric_limits<std::int64_t>::max());
    for (const char *bad : {"9223372036854775808",
                            "-9223372036854775809", "+1", "--1", "1-",
                            " -1", "-", "", "5x"})
        EXPECT_FALSE(parseI64(bad, i)) << bad;
    int n = 0;
    EXPECT_TRUE(parseInt("-2147483648", n));
    EXPECT_EQ(n, std::numeric_limits<int>::min());
    for (const char *bad : {"2147483648", "-2147483649", "5x", ""})
        EXPECT_FALSE(parseInt(bad, n)) << bad;
}

TEST(LineCodec, DoublesRoundTripThroughG17)
{
    const double values[] = {
        0.0, -0.0, 0.1, -1.5e-300, 1e308,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    for (double v : values) {
        double back = 42;
        ASSERT_TRUE(parseDouble(g17(v), back)) << g17(v);
        EXPECT_TRUE(sameBits(back, v)) << g17(v);
    }
    double d = 0;
    ASSERT_TRUE(parseDouble(g17(std::nan("")), d));
    EXPECT_TRUE(std::isnan(d));
    for (const char *bad :
         {"1e999", "-1e999", "0.1x", "", " 1", "1 ", "+1", "0x1p3"})
        EXPECT_FALSE(parseDouble(bad, d)) << bad;
}

// ---------------------------------------------------------------
// Fuzz

std::string
randomBytes(Rng &rng)
{
    static const char kSpecial[] = {'%', ' ', '-', '\n', '\r', '\t',
                                    '\0', '\x1f', '\x7f', 'A', 'f'};
    std::string out;
    const std::uint64_t n = rng.below(4) == 0 ? 0 : rng.below(24);
    for (std::uint64_t i = 0; i < n; ++i)
        out += rng.below(2) ? kSpecial[rng.below(sizeof kSpecial)]
                            : static_cast<char>(rng.below(256));
    return out;
}

TEST(LineCodecFuzz, EscRoundTripsRandomBytes)
{
    Rng rng(0x11ec0de);
    for (int iter = 0; iter < fuzzIters(2000); ++iter) {
        const std::string s = randomBytes(rng);
        const std::string e = esc(s);
        ASSERT_FALSE(e.empty());
        for (char c : e)
            ASSERT_TRUE(c != ' ' && static_cast<unsigned char>(c) >= 0x20)
                << "iter " << iter;
        const auto back = unesc(e);
        ASSERT_TRUE(back.has_value()) << "iter " << iter;
        EXPECT_EQ(*back, s) << "iter " << iter;
    }
}

TEST(LineCodecFuzz, EverySingleByteSubstitutionInThePrefixIsRejected)
{
    // FNV-1a's per-byte step is a bijection of the running state, so
    // two same-length prefixes that differ in one byte always hash
    // differently: this holds for every substitution, not just most.
    Rng rng(0x5ea1);
    for (int iter = 0; iter < fuzzIters(20); ++iter) {
        std::string prefix = esc(randomBytes(rng));
        const int fields = static_cast<int>(rng.below(4));
        for (int f = 0; f < fields; ++f)
            prefix += ' ' + esc(randomBytes(rng));
        const std::string sealed = seal(prefix);
        ASSERT_EQ(unseal(sealed), std::string_view(prefix));
        for (std::size_t i = 0; i < prefix.size(); ++i) {
            for (int b = 0; b < 256; ++b) {
                if (static_cast<char>(b) == sealed[i])
                    continue;
                std::string bad = sealed;
                bad[i] = static_cast<char>(b);
                ASSERT_FALSE(unseal(bad).has_value())
                    << "iter " << iter << " byte " << i << " -> " << b;
            }
        }
    }
}

/** Substitute, truncate or insert at random, one to three times. */
std::string
mutate(std::string s, Rng &rng)
{
    const int n = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < n; ++i) {
        const std::size_t at = rng.below(s.size() + 1);
        const char byte = rng.below(2) ? static_cast<char>(rng.below(256))
                                       : "0 %\n-fF9"[rng.below(8)];
        switch (rng.below(3)) {
        case 0:
            if (at < s.size())
                s[at] = byte;
            break;
        case 1: s.resize(at); break;
        default: s.insert(at, 1, byte); break;
        }
    }
    return s;
}

std::set<std::string>
linesOf(const std::string &text)
{
    std::set<std::string> out;
    for (std::string_view line : split(text, '\n'))
        out.emplace(line);
    return out;
}

harness::TestCase
sampleCase(Rng &rng)
{
    harness::TestCase tc;
    tc.s1.regs.regs[rng.below(bir::kNumRegs)] = rng.next();
    tc.s1.mem.emplace_back(0x80000 + 8 * rng.below(8), rng.next());
    tc.s2.mem.emplace_back(0x80000, rng.below(2) ? rng.next() : 0);
    return tc;
}

core::ProgramOutcome
sampleOutcome(Rng &rng)
{
    core::ProgramOutcome o;
    o.hasCex = rng.below(2) != 0;
    o.name = "Template A#" + std::to_string(rng.below(9));
    o.firstCexOffsetSeconds = 0.001 * static_cast<double>(rng.below(99));
    o.taskSeconds = 0.5;
    o.metrics.counters["smt.queries"] = rng.below(1000);
    o.metrics.gauges["gen.seconds"] = 0.25;
    o.metrics.histograms["smt.solve_seconds"] =
        metrics::HistogramData{{0.1, 1.0}, {1, 2, 0}, 0.75, 3};
    o.coverDelta.templ = "stride";
    o.coverDelta.model = "Mline";
    o.coverDelta.universe = 128;
    o.coverDelta.classes[static_cast<int>(rng.below(128))] =
        cover::ClassStats{1, 2, 0.125};
    o.coverDelta.pathPairs["p0|p1"] = 3;
    core::ExperimentRecord r;
    r.programName = o.name;
    r.programText = "ldr x1, [x0]\nadd x2, x1, #1";
    r.pathId = "p0|p1";
    r.testCase = sampleCase(rng);
    r.verdict = static_cast<harness::Verdict>(rng.below(3));
    r.differingReps = static_cast<int>(rng.below(11));
    r.totalReps = 10;
    o.records.push_back(r);
    triage::Finding f;
    f.progIndex = static_cast<int>(rng.below(100));
    f.program = r.programText;
    f.mechanism = "cache line";
    f.signature = "sig 1";
    f.core = "a53";
    f.tc = sampleCase(rng);
    o.findings.push_back(f);
    return o;
}

TEST(LineCodecFuzz, MutatedShardArtifactsYieldOnlyCheckedLines)
{
    Rng rng(0xa27f);
    core::CampaignSlice slice;
    slice.first = 4;
    slice.count = 3;
    for (int k = 0; k < slice.count; ++k)
        slice.outcomes.push_back(sampleOutcome(rng));
    core::PipelineConfig cfg;
    cfg.seed = 0x5eed;
    cfg.programs = 12;
    const std::string text =
        shard::encodeSlice(slice, shard::ShardSpec{1, 3}, cfg);

    for (int iter = 0; iter < fuzzIters(300); ++iter) {
        const std::string bad = mutate(text, rng);
        const auto dec = shard::decodeSlice(bad);
        if (!dec)
            continue;
        // Every line the decoded value re-encodes to — the header and
        // each group it kept — must be a whole line of the damaged
        // input: nothing was taken from a line that failed its check.
        const std::set<std::string> input = linesOf(bad);
        core::PipelineConfig cfg2;
        cfg2.seed = dec->seed;
        cfg2.programs = dec->programs;
        const std::string again =
            shard::encodeSlice(dec->slice, dec->spec, cfg2);
        bool keep = true; // the header line
        for (std::string_view line : split(again, '\n')) {
            if (line.empty())
                continue;
            if (line.substr(0, 2) == "P ") {
                int k = -1;
                ASSERT_TRUE(parseInt(split(line)[1], k));
                keep = dec->present[static_cast<std::size_t>(k)];
            }
            if (keep) {
                EXPECT_EQ(input.count(std::string(line)), 1u)
                    << "iter " << iter << ": " << line;
            }
        }
    }
}

TEST(LineCodecFuzz, MutatedRpcFramesDecodeWholeOrNotAtAll)
{
    Rng rng(0xf4a3e);
    for (int iter = 0; iter < fuzzIters(500); ++iter) {
        svc::Frame frame;
        frame.type = rng.below(2) ? "SUBMIT" : "OK";
        const int args = static_cast<int>(rng.below(4));
        for (int a = 0; a < args; ++a)
            frame.args.push_back(randomBytes(rng));
        const std::string wire = svc::encodeFrame(frame);
        const std::string payload = svc::encodePayload(frame);
        ASSERT_EQ(wire.substr(9), payload);

        const auto p = svc::decodePayload(mutate(payload, rng));
        if (p) {
            EXPECT_EQ(*p, frame) << "iter " << iter;
        }

        const std::string bad = mutate(wire, rng);
        svc::Frame out;
        std::size_t consumed = 0;
        if (svc::decodeFrame(bad, out, consumed) ==
            svc::FrameStatus::Ok) {
            EXPECT_EQ(out, frame) << "iter " << iter;
            EXPECT_LE(consumed, bad.size());
        }
    }
}

qcache::Entry
sampleEntry(Rng &rng)
{
    qcache::Entry e;
    e.sat = rng.below(4) != 0;
    e.pairDead = rng.below(2) != 0;
    e.fingerprint = rng.next();
    if (e.sat) {
        e.model.bvVars["v0"] = rng.next();
        e.model.boolVars["b0"] = rng.below(2) != 0;
        e.model.mems["m0"].storeWord(8 * rng.below(64), rng.next());
    }
    e.delta.counters["smt.queries"] = 1;
    e.delta.gauges["smt.g"] = 0.1 * static_cast<double>(rng.below(9));
    e.delta.histograms["smt.solve_seconds"] =
        metrics::HistogramData{{0.001, 0.01}, {0, 1, 0}, 0.005, 1};
    return e;
}

TEST(LineCodecFuzz, MutatedQcacheRecordsLoadWholeOrNotAtAll)
{
    Rng rng(0xcac4e);
    const std::string path =
        ::testing::TempDir() + "scamv_linecodec_qcache.txt";
    for (int iter = 0; iter < fuzzIters(40); ++iter) {
        std::vector<std::pair<qcache::Key, std::string>> records;
        std::string file = std::string(qcache::kFileHeader) + "\n";
        for (int r = 0; r < 4; ++r) {
            const qcache::Key key{rng.next(), rng.next()};
            const std::string line =
                qcache::encodeRecord(key, sampleEntry(rng));
            ASSERT_FALSE(line.empty());
            records.emplace_back(key, line);
            // Any decoded value re-encodes to the original line.
            const auto rec = qcache::decodeRecord(mutate(line, rng));
            if (rec) {
                EXPECT_EQ(rec->first, key) << "iter " << iter;
                EXPECT_EQ(qcache::encodeRecord(rec->first, rec->second),
                          line)
                    << "iter " << iter;
            }
            file += (r % 2 ? mutate(line, rng) : line) + "\n";
        }
        {
            std::ofstream out(path, std::ios::trunc);
            out << file;
        }
        // A whole-file load: intact records come back exactly, the
        // damaged ones are dropped and counted, none half-loaded.
        qcache::QueryCache cache({1 << 20, path});
        EXPECT_LE(cache.size() + cache.loadDropped(), 4u + 6u);
        for (const auto &[key, line] : records) {
            if (!cache.contains(key))
                continue;
            const auto rec = qcache::decodeRecord(line);
            ASSERT_TRUE(rec.has_value());
            const auto hit = cache.lookup(key, rec->second.fingerprint);
            ASSERT_TRUE(hit.has_value()) << "iter " << iter;
            EXPECT_EQ(qcache::encodeRecord(key, *hit), line)
                << "iter " << iter;
        }
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace scamv
