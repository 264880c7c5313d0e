#include "logging/variable_extractor.hpp"

#include "common/char_class.hpp"

namespace cloudseer::logging {

namespace {

using common::isAlnum;
using common::isAlpha;
using common::isDigit;
using common::isHex;

constexpr std::size_t kUuidLength = 36;

/**
 * Try to match a UUID (8-4-4-4-12 lower/upper hex) at position pos.
 *
 * @return Length of the match (36) or 0.
 */
std::size_t
matchUuid(std::string_view s, std::size_t pos)
{
    if (s.size() - pos < kUuidLength)
        return 0;
    const char *p = s.data() + pos;
    for (std::size_t i = 0; i < kUuidLength; ++i) {
        bool dash = i == 8 || i == 13 || i == 18 || i == 23;
        if (dash ? p[i] != '-' : !isHex(p[i]))
            return 0;
    }
    // Trailing boundary: not followed by another identifier character.
    std::size_t end = pos + kUuidLength;
    if (end < s.size() && (isAlnum(s[end]) || s[end] == '-'))
        return 0;
    return kUuidLength;
}

/**
 * Try to match an IPv4 dotted quad at position pos (octets <= 255).
 *
 * @return Length of the match or 0.
 */
std::size_t
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
    // Must not continue into more digits/dots ("1.2.3.4.5" is not an IP).
    if (p < s.size() && (isDigit(s[p]) || s[p] == '.'))
        return 0;
    return p - pos;
}

/**
 * Try to match a bare number at position pos.
 *
 * @return Length of the match or 0.
 */
std::size_t
matchNumber(std::string_view s, std::size_t pos)
{
    std::size_t p = pos;
    while (p < s.size() && isDigit(s[p]))
        ++p;
    if (p == pos)
        return 0;
    // Numbers glued to letters ("v2", "eth0") are part of a word, not a
    // variable; keep them in the template text.
    if (p < s.size() && isAlpha(s[p]))
        return 0;
    return p - pos;
}

} // namespace

const char *
VariableExtractor::placeholder(VariableKind kind)
{
    switch (kind) {
      case VariableKind::Uuid: return "<uuid>";
      case VariableKind::Ip: return "<ip>";
      case VariableKind::Number: return "<num>";
    }
    return "<var>";
}

void
VariableExtractor::parseInto(std::string_view body, ParsedBody &out) const
{
    out.templateText.clear();
    out.templateText.reserve(body.size());
    // Park every text buffer, then hand them back out in order: the
    // strings keep their capacity whatever the variable count does.
    for (Variable &var : out.variables)
        out.spareTexts.push_back(std::move(var.text));
    out.variables.clear();

    // A variable starts only where the byte before is not a literal
    // alphanumeric, so once a position fails to match, the rest of its
    // alphanumeric run is literal too and is skipped whole. Literal
    // bytes reach the template one run at a time.
    bool prev_alnum = false; // byte before pos is a literal alnum
    bool prev_dot = false;   // byte before pos is a literal '.'
    std::size_t literal = 0; // start of the pending literal run
    std::size_t pos = 0;
    const std::size_t size = body.size();
    while (pos < size) {
        char c = body[pos];
        std::size_t len = 0;
        VariableKind kind = VariableKind::Number;
        if (!prev_alnum && isHex(c)) {
            if ((len = matchUuid(body, pos)) > 0) {
                kind = VariableKind::Uuid;
            } else if (isDigit(c)) {
                // A dotted quad preceded by '.' is the tail of a longer
                // dotted sequence ("1.2.3.4.5"), not an address.
                if (!prev_dot && (len = matchIp(body, pos)) > 0) {
                    kind = VariableKind::Ip;
                } else if ((len = matchNumber(body, pos)) > 0) {
                    kind = VariableKind::Number;
                }
            }
        }
        if (len > 0) {
            out.templateText.append(body.substr(literal, pos - literal));
            out.templateText += placeholder(kind);
            Variable &var = out.variables.emplace_back();
            var.kind = kind;
            if (!out.spareTexts.empty()) {
                var.text = std::move(out.spareTexts.back());
                out.spareTexts.pop_back();
            }
            var.text.assign(body.substr(pos, len));
            pos += len;
            literal = pos;
            // The byte right after a variable may start another match,
            // as at the 'a' of "1.2.3.4abc".
            prev_alnum = false;
            prev_dot = false;
        } else if (isAlnum(c)) {
            do {
                ++pos;
            } while (pos < size && isAlnum(body[pos]));
            prev_alnum = true;
            prev_dot = false;
        } else {
            prev_alnum = false;
            prev_dot = c == '.';
            ++pos;
        }
    }
    out.templateText.append(body.substr(literal));
}

ParsedBody
VariableExtractor::parse(const std::string &body) const
{
    ParsedBody out;
    parseInto(body, out);
    return out;
}

std::vector<std::string>
VariableExtractor::extractIdentifiers(const std::string &body,
                                      bool include_numbers) const
{
    std::vector<std::string> out;
    ParsedBody parsed = parse(body);
    for (auto &var : parsed.variables) {
        if (var.kind == VariableKind::Number && !include_numbers)
            continue;
        out.push_back(std::move(var.text));
    }
    return out;
}

} // namespace cloudseer::logging
