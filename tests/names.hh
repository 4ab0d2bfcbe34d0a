/**
 * @file
 * Indexed variable names for tests ("x3", "x3_1"), built piecewise:
 * GCC 12 misreports `"x" + std::to_string(i)`, which prepends into
 * the temporary, as -Wrestrict in optimized builds.
 */

#ifndef SCAMV_TESTS_NAMES_HH
#define SCAMV_TESTS_NAMES_HH

#include <cstdint>
#include <string>

namespace scamv {

inline std::string
indexedName(const char *prefix, std::uint64_t index,
            const char *suffix = "")
{
    std::string name = prefix;
    name += std::to_string(index);
    name += suffix;
    return name;
}

} // namespace scamv

#endif // SCAMV_TESTS_NAMES_HH
