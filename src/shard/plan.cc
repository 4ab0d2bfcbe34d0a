/**
 * @file
 * Shard planner: deterministic partition of the program-index range.
 */

#include "shard/shard.hh"

#include <climits>
#include <cstdlib>

#include "support/linecodec.hh"
#include "support/logging.hh"
#include "support/qcache/canon.hh"

namespace scamv::shard {

std::optional<ShardSpec>
parseShardSpec(std::string_view spec)
{
    const std::size_t slash = spec.find('/');
    std::uint64_t index = 0, count = 0;
    if (slash == std::string_view::npos ||
        !linecodec::parseU64(spec.substr(0, slash), index) ||
        !linecodec::parseU64(spec.substr(slash + 1), count) ||
        count < 1 || index >= count || count > INT_MAX)
        return std::nullopt;
    return ShardSpec{static_cast<int>(index), static_cast<int>(count)};
}

std::optional<ShardSpec>
specFromEnv()
{
    const char *env = std::getenv("SCAMV_SHARD");
    if (!env || !*env)
        return std::nullopt;
    std::optional<ShardSpec> spec = parseShardSpec(env);
    if (!spec)
        warn("shard: invalid SCAMV_SHARD \"" + std::string(env) +
             "\" (want \"i/N\" with 0 <= i < N), ignoring");
    return spec;
}

std::string
dirFromEnv(const std::string &fallback)
{
    const char *env = std::getenv("SCAMV_SHARD_DIR");
    return env && *env ? std::string(env) : fallback;
}

Slice
planShard(std::uint64_t seed, int programs, int shard_count,
          int shard_index)
{
    if (programs < 0)
        programs = 0;
    if (shard_count < 1)
        shard_count = 1;
    if (shard_index < 0 || shard_index >= shard_count)
        return {};
    const int base = programs / shard_count;
    const int rem = programs % shard_count;
    // The remainder programs go to `rem` consecutive shards starting
    // at a seed-derived rotation, so which shards carry an extra
    // program varies per campaign but every worker computes the same
    // partition.
    const int rot = static_cast<int>(
        qcache::splitmix64(seed ^ 0x5a4dc0de5eedULL) %
        static_cast<std::uint64_t>(shard_count));
    const auto extra = [&](int i) {
        return ((i + shard_count - rot) % shard_count) < rem ? 1 : 0;
    };
    Slice out;
    for (int i = 0; i < shard_index; ++i)
        out.first += base + extra(i);
    out.count = base + extra(shard_index);
    return out;
}

std::string
shardDir(const std::string &root, int shard_index)
{
    return root + "/shard-" + std::to_string(shard_index);
}

} // namespace scamv::shard
