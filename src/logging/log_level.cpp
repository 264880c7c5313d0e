#include "logging/log_level.hpp"

namespace cloudseer::logging {

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "DEBUG";
      case LogLevel::Info: return "INFO";
      case LogLevel::Warning: return "WARNING";
      case LogLevel::Error: return "ERROR";
      case LogLevel::Critical: return "CRITICAL";
    }
    return "INFO";
}

bool
parseLogLevel(std::string_view text, LogLevel &out)
{
    if (text == "DEBUG") {
        out = LogLevel::Debug;
    } else if (text == "INFO") {
        out = LogLevel::Info;
    } else if (text == "WARNING") {
        out = LogLevel::Warning;
    } else if (text == "ERROR") {
        out = LogLevel::Error;
    } else if (text == "CRITICAL") {
        out = LogLevel::Critical;
    } else {
        return false;
    }
    return true;
}

bool
isErrorLevel(LogLevel level)
{
    return level == LogLevel::Error || level == LogLevel::Critical;
}

} // namespace cloudseer::logging
