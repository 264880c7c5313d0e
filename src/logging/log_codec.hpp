/**
 * @file
 * Serialises log records to text lines and parses them back.
 *
 * Line format (what the Logstash stand-in ships across "nodes"):
 *
 *     2016-01-12 08:30:01.123 compute-1 nova-compute INFO <body...>
 *
 * Ground-truth fields do not survive serialisation — parsing a line
 * yields a record with truthExecution == 0, which is exactly the
 * information barrier the monitor relies on.
 */

#ifndef CLOUDSEER_LOGGING_LOG_CODEC_HPP
#define CLOUDSEER_LOGGING_LOG_CODEC_HPP

#include <optional>
#include <string>
#include <string_view>

#include "logging/log_record.hpp"

namespace cloudseer::logging {

/** Render a record as one log line (no trailing newline). */
std::string encodeLogLine(const LogRecord &record);

/**
 * Render into a caller-owned buffer (replacing its contents). The
 * monitor's flight-recorder path encodes every delivered record, so
 * reusing one scratch string keeps that path allocation-free once the
 * buffer has warmed up to the longest line seen.
 */
void encodeLogLineTo(const LogRecord &record, std::string &out);

/** Why a line failed to parse (for quarantine accounting). */
enum class DecodeFailure
{
    None,            ///< parsed fine
    BadTimestamp,    ///< leading timestamp missing or unparseable
    BadHeader,       ///< node/service/level fields missing or invalid
    TruncatedPayload ///< header parsed but the body is empty/cut off
};

/** Canonical token ("BAD-TIMESTAMP", ...). */
const char *decodeFailureName(DecodeFailure cause);

/**
 * Parse one log line into a caller-owned record, reusing the capacity
 * of its strings. This is the one decoder; decodeLogLine wraps it.
 * On success every field is overwritten, ground truth included (id 0,
 * truth fields cleared), so a reused record equals a fresh decode. On
 * failure the record's contents are unspecified.
 *
 * @param line   The text line.
 * @param record Receives the parsed fields.
 * @param why    When non-null, receives the failure cause (None on
 *               success).
 * @retval true if the line was well formed.
 */
bool decodeLogLineInto(std::string_view line, LogRecord &record,
                       DecodeFailure *why = nullptr);

/**
 * Parse one log line into a fresh record.
 *
 * @param line The text line.
 * @param why  When non-null, receives the failure cause (None on
 *             success).
 * @return The parsed record, or nullopt if the line is malformed.
 */
std::optional<LogRecord> decodeLogLine(const std::string &line,
                                       DecodeFailure *why = nullptr);

} // namespace cloudseer::logging

#endif // CLOUDSEER_LOGGING_LOG_CODEC_HPP
