/**
 * @file
 * Small string helpers shared by log parsing, table printing, and tests.
 */

#ifndef CLOUDSEER_COMMON_STRING_UTIL_HPP
#define CLOUDSEER_COMMON_STRING_UTIL_HPP

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace cloudseer::common {

/** Split on a single-character delimiter; empty fields are preserved. */
std::vector<std::string> split(const std::string &s, char delim);

/** Split on runs of whitespace; empty fields are dropped. */
std::vector<std::string> splitWhitespace(const std::string &s);

/** Join items with the given separator. */
std::string join(const std::vector<std::string> &items,
                 const std::string &sep);

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &s);

/** True iff s starts with the given prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** True iff s ends with the given suffix. */
bool endsWith(const std::string &s, const std::string &suffix);

/** Fixed-precision decimal formatting (printf "%.*f"). */
std::string formatDouble(double value, int precision);

/** Append formatDouble(value, precision) to `out` without a temporary.
 *  Same bytes as printf "%.*f" (precision >= 0), NaN and infinities
 *  included. */
void appendDouble(std::string &out, double value, int precision);

/**
 * Append `raw` as the body of a JSON string. A double quote or a
 * backslash gets a backslash in front, newline, carriage return and tab
 * their one-letter escapes, and any other byte below 0x20 the six-byte
 * unicode escape with four lowercase hex digits. Every other byte,
 * UTF-8 or not, is copied as it is.
 */
void appendJsonEscaped(std::string &out, std::string_view raw);

/** appendJsonEscaped for stream output: `out << JsonEscaped{raw}`. */
struct JsonEscaped
{
    std::string_view raw;
};

std::ostream &operator<<(std::ostream &out, JsonEscaped text);

/** Format a ratio as a percentage string like "92.08%". */
std::string formatPercent(double ratio, int precision = 2);

} // namespace cloudseer::common

#endif // CLOUDSEER_COMMON_STRING_UTIL_HPP
