/**
 * @file
 * The checksummed line discipline shared by every campaign state that
 * leaves a process: the query-cache checkpoint ("scamv-qcache-v1"),
 * the shard artifacts ("scamv-shard-v1") and the scamvd frames
 * ("scamv-rpc-v1").
 *
 * A line is space-separated fields followed by one more field, the
 * FNV-1a hash of everything before that last space in hex (`seal`).
 * A reader strips and verifies it first (`unseal`) and trusts nothing
 * from a line that fails.  String fields that may hold spaces or
 * control bytes are percent-escaped (`esc`); numbers are decimal,
 * hex, or `%.17g` for doubles, which round-trips binary64 exactly.
 *
 * The parsers are strict: a field must be consumed entirely, values
 * that overflow the target type are rejected, and the unsigned and
 * hex parsers accept no sign.  A damaged field is a decode failure,
 * never a clamped or truncated value.
 */

#ifndef SCAMV_SUPPORT_LINECODEC_HH
#define SCAMV_SUPPORT_LINECODEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace scamv::linecodec {

/** FNV-1a over a string (stable across platforms and runs). */
std::uint64_t fnv1a(std::string_view s);

/** @return `line` + ' ' + the 16-hex-digit fnv1a of `line`. */
std::string seal(std::string line);

/**
 * Verify and strip a sealed line's checksum field (1-16 hex digits,
 * so unpadded checksums verify too).
 * @return the prefix, or nullopt when the field is missing, malformed
 * or does not match.
 */
std::optional<std::string_view> unseal(std::string_view line);

/** Percent-escape a field: no spaces, no control bytes, never empty
 *  ("" becomes "-", "-" becomes "%2D"). */
std::string esc(std::string_view s);

/** Inverse of esc (either hex case); nullopt on a bad escape. */
std::optional<std::string> unesc(std::string_view s);

/** Split on `sep`; n separators always give n + 1 fields. */
std::vector<std::string_view> split(std::string_view s, char sep = ' ');

/** Lower-case hex without padding. */
std::string hex(std::uint64_t v);
/** Lower-case hex zero-padded to 16 digits. */
std::string hex16(std::uint64_t v);
/** `%.17g`, which round-trips every double. */
std::string g17(double v);

/** Unsigned decimal. */
bool parseU64(std::string_view s, std::uint64_t &out);
/** 1-16 hex digits, either case, no "0x". */
bool parseHex(std::string_view s, std::uint64_t &out);
/** Signed decimal ('-' only, no '+'), for each integer width. */
bool parseI64(std::string_view s, std::int64_t &out);
bool parseInt(std::string_view s, int &out);
/** Decimal or inf/nan, as `%.17g` prints; rejects overflow. */
bool parseDouble(std::string_view s, double &out);

} // namespace scamv::linecodec

#endif // SCAMV_SUPPORT_LINECODEC_HH
