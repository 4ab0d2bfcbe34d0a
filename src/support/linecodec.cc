#include "support/linecodec.hh"

#include <charconv>
#include <cinttypes>
#include <cstdio>

namespace scamv::linecodec {
namespace {

/** from_chars over the whole field: no leading blanks, no trailing
 *  bytes, out-of-range values rejected. */
template <class T, class... Base>
bool
parseWhole(std::string_view s, T &out, Base... base)
{
    T v{};
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v, base...);
    if (s.empty() || ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

} // namespace

std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
seal(std::string line)
{
    const std::uint64_t sum = fnv1a(line);
    line += ' ';
    line += hex16(sum);
    return line;
}

std::optional<std::string_view>
unseal(std::string_view line)
{
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos)
        return std::nullopt;
    const std::string_view prefix = line.substr(0, space);
    std::uint64_t sum = 0;
    if (!parseHex(line.substr(space + 1), sum) || sum != fnv1a(prefix))
        return std::nullopt;
    return prefix;
}

std::string
esc(std::string_view s)
{
    if (s.empty())
        return "-";
    if (s == "-")
        return "%2D";
    static constexpr char kDigits[] = "0123456789ABCDEF";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (c == '%' || c == ' ' || u < 0x20) {
            out += '%';
            out += kDigits[u >> 4];
            out += kDigits[u & 15];
        } else {
            out += c;
        }
    }
    return out;
}

std::optional<std::string>
unesc(std::string_view s)
{
    if (s == "-")
        return std::string();
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out += s[i];
            continue;
        }
        std::uint64_t byte = 0;
        if (i + 2 >= s.size() || !parseHex(s.substr(i + 1, 2), byte))
            return std::nullopt;
        out += static_cast<char>(byte);
        i += 2;
    }
    return out;
}

std::vector<std::string_view>
split(std::string_view s, char sep)
{
    std::vector<std::string_view> out;
    while (true) {
        const std::size_t pos = s.find(sep);
        if (pos == std::string_view::npos) {
            out.push_back(s);
            return out;
        }
        out.push_back(s.substr(0, pos));
        s.remove_prefix(pos + 1);
    }
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%" PRIx64, v);
    return buf;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

std::string
g17(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool
parseU64(std::string_view s, std::uint64_t &out)
{
    return parseWhole(s, out, 10);
}

bool
parseHex(std::string_view s, std::uint64_t &out)
{
    return s.size() <= 16 && parseWhole(s, out, 16);
}

bool
parseI64(std::string_view s, std::int64_t &out)
{
    return parseWhole(s, out, 10);
}

bool
parseInt(std::string_view s, int &out)
{
    return parseWhole(s, out, 10);
}

bool
parseDouble(std::string_view s, double &out)
{
    return parseWhole(s, out);
}

} // namespace scamv::linecodec
