/**
 * @file
 * The wire front end as it stood before the byte-class table and the
 * word-at-a-time kernels (DESIGN.md §18): a verbatim copy of the
 * variable scanner (one <cctype> call and one push_back per byte) and
 * of the decoder (std::isspace token scanning and the sscanf timestamp
 * parse). The differential tests and the decoder fuzz target hold the
 * production code to these, byte for byte.
 */

#ifndef CLOUDSEER_TESTS_FRONTEND_REFERENCE_HPP
#define CLOUDSEER_TESTS_FRONTEND_REFERENCE_HPP

#include <cctype>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "logging/log_codec.hpp"
#include "logging/log_level.hpp"
#include "logging/variable_extractor.hpp"

namespace reference {

using cloudseer::logging::DecodeFailure;
using cloudseer::logging::LogRecord;
using cloudseer::logging::parseLogLevel;
using cloudseer::logging::ParsedBody;
using cloudseer::logging::Variable;
using cloudseer::logging::VariableExtractor;
using cloudseer::logging::VariableKind;

// Verbatim copy of the variable scanner as it stood before the class
// table: one <cctype> call and one push_back per byte.

inline bool
isHex(char c)
{
    return std::isxdigit(static_cast<unsigned char>(c)) != 0;
}

inline bool
isDigit(char c)
{
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

inline bool
isAlnum(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

inline std::size_t
matchUuid(std::string_view s, std::size_t pos)
{
    static const int groups[5] = {8, 4, 4, 4, 12};
    std::size_t p = pos;
    for (int g = 0; g < 5; ++g) {
        if (g > 0) {
            if (p >= s.size() || s[p] != '-')
                return 0;
            ++p;
        }
        for (int i = 0; i < groups[g]; ++i, ++p) {
            if (p >= s.size() || !isHex(s[p]))
                return 0;
        }
    }
    if (p < s.size() && (isAlnum(s[p]) || s[p] == '-'))
        return 0;
    return p - pos;
}

inline std::size_t
matchIp(std::string_view s, std::size_t pos)
{
    std::size_t p = pos;
    for (int octet = 0; octet < 4; ++octet) {
        if (octet > 0) {
            if (p >= s.size() || s[p] != '.')
                return 0;
            ++p;
        }
        int value = 0;
        std::size_t digits = 0;
        while (p < s.size() && isDigit(s[p]) && digits < 3) {
            value = value * 10 + (s[p] - '0');
            ++p;
            ++digits;
        }
        if (digits == 0 || value > 255)
            return 0;
    }
    if (p < s.size() && (isDigit(s[p]) || s[p] == '.'))
        return 0;
    return p - pos;
}

inline std::size_t
matchNumber(std::string_view s, std::size_t pos)
{
    std::size_t p = pos;
    while (p < s.size() && isDigit(s[p]))
        ++p;
    if (p == pos)
        return 0;
    if (p < s.size() && std::isalpha(static_cast<unsigned char>(s[p])))
        return 0;
    return p - pos;
}

inline ParsedBody
parse(std::string_view body)
{
    ParsedBody out;
    char prev = '\0';
    std::size_t pos = 0;
    while (pos < body.size()) {
        char c = body[pos];
        std::size_t len = 0;
        VariableKind kind = VariableKind::Number;
        if (!isAlnum(prev) && isHex(c)) {
            if ((len = matchUuid(body, pos)) > 0) {
                kind = VariableKind::Uuid;
            } else if (isDigit(c)) {
                if (prev != '.' && (len = matchIp(body, pos)) > 0) {
                    kind = VariableKind::Ip;
                } else if ((len = matchNumber(body, pos)) > 0) {
                    kind = VariableKind::Number;
                }
            }
        }
        if (len > 0) {
            out.templateText += VariableExtractor::placeholder(kind);
            Variable &var = out.variables.emplace_back();
            var.kind = kind;
            var.text.assign(body.substr(pos, len));
            pos += len;
            prev = '\0';
        } else {
            out.templateText.push_back(c);
            prev = c;
            ++pos;
        }
    }
    return out;
}

// The decoder as it stood before the whitespace table: std::isspace
// token scanning and the sscanf timestamp parse.

inline bool
parseTimestamp(std::string_view text, double &out)
{
    std::string terminated(text);
    int year = 0, month = 0, day = 0, hh = 0, mm = 0, ss = 0, millis = 0;
    int n = std::sscanf(terminated.c_str(), "%d-%d-%d %d:%d:%d.%d", &year,
                        &month, &day, &hh, &mm, &ss, &millis);
    if (n != 7 || year != 2016 || month != 1 || day < 12)
        return false;
    out = (day - 12) * 86400.0 + hh * 3600.0 + mm * 60.0 + ss +
          millis / 1000.0;
    return true;
}

inline std::string_view
takeToken(std::string_view line, std::size_t &pos)
{
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
        ++pos;
    }
    std::size_t start = pos;
    while (pos < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[pos]))) {
        ++pos;
    }
    return line.substr(start, pos - start);
}

inline DecodeFailure
decode(std::string_view line, LogRecord &record)
{
    std::size_t pos = 0;
    std::string_view date = takeToken(line, pos);
    std::size_t date_start = pos - date.size();
    std::string_view time = takeToken(line, pos);
    if (date.empty() || time.empty())
        return DecodeFailure::BadTimestamp;
    if (!parseTimestamp(line.substr(date_start, pos - date_start),
                        record.timestamp)) {
        return DecodeFailure::BadTimestamp;
    }
    std::string_view node = takeToken(line, pos);
    std::string_view service = takeToken(line, pos);
    std::string_view level_text = takeToken(line, pos);
    if (node.empty())
        return DecodeFailure::BadHeader;
    if (service.empty() || level_text.empty())
        return DecodeFailure::TruncatedPayload;
    if (!parseLogLevel(level_text, record.level))
        return DecodeFailure::BadHeader;
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
        ++pos;
    }
    if (pos == line.size())
        return DecodeFailure::TruncatedPayload;
    record.node.assign(node);
    record.service.assign(service);
    record.body.assign(line.substr(pos));
    return DecodeFailure::None;
}

} // namespace reference

namespace fixture {

/**
 * A copy of some bytes in a heap block of exactly their size, so that
 * AddressSanitizer reports any read at or past the end of the view.
 */
class ExactCopy
{
  public:
    explicit ExactCopy(std::string_view bytes)
        : data_(new char[bytes.size()]), size_(bytes.size())
    {
        if (size_ > 0)
            std::memcpy(data_.get(), bytes.data(), size_);
    }

    std::string_view view() const { return {data_.get(), size_}; }

  private:
    std::unique_ptr<char[]> data_;
    std::size_t size_;
};

} // namespace fixture

#endif // CLOUDSEER_TESTS_FRONTEND_REFERENCE_HPP
