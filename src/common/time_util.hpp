/**
 * @file
 * Simulated-time formatting and parsing.
 *
 * Simulation time is a double counting seconds from an arbitrary epoch.
 * Log lines render it OpenStack-style ("2016-01-12 08:30:01.123"); the
 * collector parses it back. A fixed synthetic epoch keeps output stable.
 */

#ifndef CLOUDSEER_COMMON_TIME_UTIL_HPP
#define CLOUDSEER_COMMON_TIME_UTIL_HPP

#include <string>
#include <string_view>

namespace cloudseer::common {

/** Seconds-from-epoch type used throughout the simulator and checker. */
using SimTime = double;

/** Render seconds-from-epoch as "YYYY-MM-DD HH:MM:SS.mmm". */
std::string formatTimestamp(SimTime t);

/** Append formatTimestamp(t) to `out` without a temporary string. */
void appendTimestamp(SimTime t, std::string &out);

/**
 * Parse a "YYYY-MM-DD HH:MM:SS.mmm" timestamp back to seconds-from-epoch.
 *
 * @param text      The timestamp text.
 * @param out       Receives the parsed value on success.
 * @retval true     if the text was a well-formed timestamp.
 */
bool parseTimestamp(std::string_view text, SimTime &out);

} // namespace cloudseer::common

#endif // CLOUDSEER_COMMON_TIME_UTIL_HPP
