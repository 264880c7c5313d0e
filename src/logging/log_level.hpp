/**
 * @file
 * OpenStack-style log severity levels.
 */

#ifndef CLOUDSEER_LOGGING_LOG_LEVEL_HPP
#define CLOUDSEER_LOGGING_LOG_LEVEL_HPP

#include <string>
#include <string_view>

namespace cloudseer::logging {

/** Severity of a log record, mirroring OpenStack's oslo.log levels. */
enum class LogLevel
{
    Debug,
    Info,
    Warning,
    Error,
    Critical,
};

/** Render a level as its canonical upper-case token ("INFO", ...). */
const char *logLevelName(LogLevel level);

/**
 * Parse a level token.
 *
 * @param text  Token such as "INFO" or "ERROR".
 * @param out   Receives the parsed level on success.
 * @retval true if the token named a level.
 */
bool parseLogLevel(std::string_view text, LogLevel &out);

/** True for Error and Critical — the paper's error-message criterion. */
bool isErrorLevel(LogLevel level);

} // namespace cloudseer::logging

#endif // CLOUDSEER_LOGGING_LOG_LEVEL_HPP
