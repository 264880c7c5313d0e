#include "logging/log_codec.hpp"

#include "common/char_class.hpp"
#include "common/time_util.hpp"

namespace cloudseer::logging {

namespace {

/** Advance past one whitespace-delimited token; returns the token. */
std::string_view
takeToken(std::string_view line, std::size_t &pos)
{
    while (pos < line.size() && common::isSpace(line[pos]))
        ++pos;
    std::size_t start = pos;
    while (pos < line.size() && !common::isSpace(line[pos]))
        ++pos;
    return line.substr(start, pos - start);
}

} // namespace

void
encodeLogLineTo(const LogRecord &record, std::string &out)
{
    out.clear();
    common::appendTimestamp(record.timestamp, out);
    out += ' ';
    out += record.node;
    out += ' ';
    out += record.service;
    out += ' ';
    out += logLevelName(record.level);
    out += ' ';
    out += record.body;
}

std::string
encodeLogLine(const LogRecord &record)
{
    std::string out;
    encodeLogLineTo(record, out);
    return out;
}

const char *
decodeFailureName(DecodeFailure cause)
{
    switch (cause) {
      case DecodeFailure::None: return "NONE";
      case DecodeFailure::BadTimestamp: return "BAD-TIMESTAMP";
      case DecodeFailure::BadHeader: return "BAD-HEADER";
      case DecodeFailure::TruncatedPayload: return "TRUNCATED-PAYLOAD";
    }
    return "UNKNOWN";
}

bool
decodeLogLineInto(std::string_view line, LogRecord &record,
                  DecodeFailure *why)
{
    auto fail = [why](DecodeFailure cause) {
        if (why != nullptr)
            *why = cause;
        return false;
    };
    if (why != nullptr)
        *why = DecodeFailure::None;

    std::size_t pos = 0;
    std::string_view date = takeToken(line, pos);
    std::size_t date_start = pos - date.size();
    std::string_view time = takeToken(line, pos);
    if (date.empty() || time.empty())
        return fail(DecodeFailure::BadTimestamp);

    // The stamp is parsed in place, gap included: the date token holds
    // no whitespace, and sscanf skips a whitespace run exactly as it
    // skips the single space the format names.
    if (!common::parseTimestamp(line.substr(date_start, pos - date_start),
                                record.timestamp)) {
        return fail(DecodeFailure::BadTimestamp);
    }

    std::string_view node = takeToken(line, pos);
    std::string_view service = takeToken(line, pos);
    std::string_view level_text = takeToken(line, pos);
    if (node.empty())
        return fail(DecodeFailure::BadHeader);
    if (service.empty() || level_text.empty()) {
        // A well-formed timestamp with the tail cut off mid-header is
        // a truncation artefact, not a malformed header.
        return fail(DecodeFailure::TruncatedPayload);
    }
    if (!parseLogLevel(level_text, record.level))
        return fail(DecodeFailure::BadHeader);

    while (pos < line.size() && common::isSpace(line[pos]))
        ++pos;
    if (pos == line.size())
        return fail(DecodeFailure::TruncatedPayload);
    record.id = 0;
    record.node.assign(node);
    record.service.assign(service);
    record.body.assign(line.substr(pos));
    record.truthExecution = 0;
    record.truthTask.clear();
    return true;
}

std::optional<LogRecord>
decodeLogLine(const std::string &line, DecodeFailure *why)
{
    LogRecord record;
    if (!decodeLogLineInto(line, record, why))
        return std::nullopt;
    return record;
}

} // namespace cloudseer::logging
