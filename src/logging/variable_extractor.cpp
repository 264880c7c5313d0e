#include "logging/variable_extractor.hpp"

#include <cctype>

namespace cloudseer::logging {

namespace {

bool
isHex(char c)
{
    return std::isxdigit(static_cast<unsigned char>(c)) != 0;
}

bool
isDigit(char c)
{
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

bool
isAlnum(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

/**
 * Try to match a UUID (8-4-4-4-12 lower/upper hex) at position pos.
 *
 * @return Length of the match (36) or 0.
 */
std::size_t
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
    // Trailing boundary: not followed by another identifier character.
    if (p < s.size() && (isAlnum(s[p]) || s[p] == '-'))
        return 0;
    return p - pos;
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
    if (p < s.size() && std::isalpha(static_cast<unsigned char>(s[p])))
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
                // A dotted quad preceded by '.' is the tail of a longer
                // dotted sequence ("1.2.3.4.5"), not an address.
                if (prev != '.' && (len = matchIp(body, pos)) > 0) {
                    kind = VariableKind::Ip;
                } else if ((len = matchNumber(body, pos)) > 0) {
                    kind = VariableKind::Number;
                }
            }
        }
        if (len > 0) {
            out.templateText += placeholder(kind);
            Variable &var = out.variables.emplace_back();
            var.kind = kind;
            if (!out.spareTexts.empty()) {
                var.text = std::move(out.spareTexts.back());
                out.spareTexts.pop_back();
            }
            var.text.assign(body.substr(pos, len));
            pos += len;
            prev = '\0';
        } else {
            out.templateText.push_back(c);
            prev = c;
            ++pos;
        }
    }
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
