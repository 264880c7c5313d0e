/**
 * @file
 * Small string helpers shared by log parsing, table printing, and tests.
 */

#ifndef CLOUDSEER_COMMON_STRING_UTIL_HPP
#define CLOUDSEER_COMMON_STRING_UTIL_HPP

#include <string>
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

/** Append formatDouble(value, precision) to `out` without a temporary. */
void appendDouble(std::string &out, double value, int precision);

/** Format a ratio as a percentage string like "92.08%". */
std::string formatPercent(double ratio, int precision = 2);

} // namespace cloudseer::common

#endif // CLOUDSEER_COMMON_STRING_UTIL_HPP
