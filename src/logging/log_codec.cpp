#include "logging/log_codec.hpp"

#include <algorithm>

#include "common/char_class.hpp"
#include "common/time_util.hpp"

namespace cloudseer::logging {

namespace {

using common::kLaneHigh;
using common::Word;

constexpr std::ptrdiff_t kWordSpan = common::kWordBytes;

/**
 * The C-locale whitespace of a line, classified a word at a time as
 * the scan reaches it. A token and the gap after it usually share a
 * word, so the header's words are each loaded and classified once.
 * Positions asked for never go back before the current word.
 */
class SpaceScan
{
  public:
    SpaceScan(const char *begin, const char *end)
        : begin_(begin), end_(end)
    {
        if (begin < end)
            classify(begin);
    }

    /** First byte at or after p that is whitespace (`Space`) or is
     *  not, or the end of the line. */
    template <bool Space>
    const char *
    find(const char *p)
    {
        while (p < end_) {
            if (p - word_ >= kWordSpan)
                classify(p);
            // A lane past the end reads as a zero byte, which is not
            // whitespace; a non-space found there is clipped to end.
            const Word lanes = (Space ? spaces_ : ~spaces_ & kLaneHigh) >>
                               (8 * (p - word_));
            if (lanes != 0)
                return std::min(p + common::firstLane(lanes), end_);
            p = word_ + kWordSpan;
        }
        return end_;
    }

    /** Advance `p` past one whitespace-delimited token; returns it. */
    std::string_view
    takeToken(const char *&p)
    {
        p = find<false>(p);
        const char *start = p;
        p = find<true>(p);
        return {start, static_cast<std::size_t>(p - start)};
    }

  private:
    void
    classify(const char *p)
    {
        word_ = p;
        const Word w = end_ - p >= kWordSpan
                           ? common::loadWord(p)
                           : common::loadTail(begin_, p, end_);
        spaces_ = common::spaceMask(w);
    }

    const char *begin_;
    const char *end_;
    const char *word_ = nullptr; ///< start of the classified word
    Word spaces_ = 0;            ///< spaceMask of the word at word_
};

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

    const char *const begin = line.data();
    const char *const end = begin + line.size();
    SpaceScan scan(begin, end);
    const char *p = begin;
    std::string_view date = scan.takeToken(p);
    std::string_view time = scan.takeToken(p);
    if (date.empty() || time.empty())
        return fail(DecodeFailure::BadTimestamp);

    // The stamp is parsed in place, gap included: the date token holds
    // no whitespace, and sscanf skips a whitespace run exactly as it
    // skips the single space the format names.
    if (!common::parseTimestamp(
            {date.data(), static_cast<std::size_t>(p - date.data())},
            record.timestamp)) {
        return fail(DecodeFailure::BadTimestamp);
    }

    std::string_view node = scan.takeToken(p);
    std::string_view service = scan.takeToken(p);
    std::string_view level_text = scan.takeToken(p);
    if (node.empty())
        return fail(DecodeFailure::BadHeader);
    if (service.empty() || level_text.empty()) {
        // A well-formed timestamp with the tail cut off mid-header is
        // a truncation artefact, not a malformed header.
        return fail(DecodeFailure::TruncatedPayload);
    }
    if (!parseLogLevel(level_text, record.level))
        return fail(DecodeFailure::BadHeader);

    p = scan.find<false>(p);
    if (p == end)
        return fail(DecodeFailure::TruncatedPayload);
    record.id = 0;
    record.node.assign(node);
    record.service.assign(service);
    record.body.assign(p, static_cast<std::size_t>(end - p));
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
