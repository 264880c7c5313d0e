#include "logging/variable_extractor.hpp"

#include "common/char_class.hpp"

namespace cloudseer::logging {

namespace {

using common::alnumMask;
using common::byteMask;
using common::digitMask;
using common::hexMask;
using common::isAlnum;
using common::isAlpha;
using common::isDigit;
using common::isHex;
using common::kLaneHigh;
using common::loadWord;
using common::Word;

constexpr std::size_t kUuidLength = 36;

/** A kind's placeholder as a view, so appending it needs no strlen.
 *  Each is a string literal, so data() is NUL-terminated too. */
std::string_view
placeholderView(VariableKind kind)
{
    switch (kind) {
      case VariableKind::Uuid: return "<uuid>";
      case VariableKind::Ip: return "<ip>";
      case VariableKind::Number: return "<num>";
    }
    return "<var>";
}

/** The high bit of byte lane i. */
constexpr Word
lane(int i)
{
    return Word{0x80} << (8 * i);
}

/** The 8-4-4-4-12 dashes at offsets 8 and 13 (the second word) and
 *  18 and 23 (the third). */
constexpr Word kSecondWordDashes = lane(0) | lane(5);
constexpr Word kThirdWordDashes = lane(2) | lane(7);

/** Lanes of `w` off the UUID shape: a `dashes` lane that is not '-',
 *  or another lane that is not a hex digit. */
constexpr Word
offShape(Word w, Word dashes)
{
    return ((hexMask(w) & ~dashes) | (byteMask(w, '-') & dashes)) ^
           kLaneHigh;
}

/**
 * Try to match a UUID (8-4-4-4-12 lower/upper hex) at p, checking the
 * 32 digits and 4 dashes a word at a time: the words at 0, 8, 16 and
 * 24, then the one at 28, which covers the last four digits without
 * reading past the 36 bytes.
 *
 * @return Length of the match (36) or 0.
 */
std::size_t
matchUuid(const char *p, const char *end)
{
    if (static_cast<std::size_t>(end - p) < kUuidLength)
        return 0;
    // Most starts are words of text, which the first word turns away.
    if (offShape(loadWord(p), 0) != 0)
        return 0;
    if ((offShape(loadWord(p + 8), kSecondWordDashes) |
         offShape(loadWord(p + 16), kThirdWordDashes) |
         offShape(loadWord(p + 24), 0) | offShape(loadWord(p + 28), 0)) !=
        0) {
        return 0;
    }
    // Trailing boundary: not followed by another identifier character.
    const char *after = p + kUuidLength;
    if (after < end && (isAlnum(*after) || *after == '-'))
        return 0;
    return kUuidLength;
}

/**
 * Try to match an IPv4 dotted quad at p (octets <= 255). At most 15
 * bytes and one more are read, so this stays a byte loop.
 *
 * @return Length of the match or 0.
 */
std::size_t
matchIp(const char *p, const char *end)
{
    const char *q = p;
    for (int octet = 0; octet < 4; ++octet) {
        if (octet > 0) {
            if (q == end || *q != '.')
                return 0;
            ++q;
        }
        int value = 0;
        int digits = 0;
        while (q < end && isDigit(*q) && digits < 3) {
            value = value * 10 + (*q - '0');
            ++q;
            ++digits;
        }
        if (digits == 0 || value > 255)
            return 0;
    }
    // Must not continue into more digits/dots ("1.2.3.4.5" is not an IP).
    if (q < end && (isDigit(*q) || *q == '.'))
        return 0;
    return static_cast<std::size_t>(q - p);
}

/**
 * The variable at p, whose byte is a digit: a dotted quad unless the
 * byte before p is a literal '.' ("1.2.3.4.5" is not an address), or
 * else the digit run, unless a letter follows it ("v2", "eth0" are
 * words, kept in the template text). The run is found a word at a
 * time; a quad needs a first octet of at most three digits and a dot.
 *
 * @return Length of the match, or 0.
 */
std::size_t
matchNumeric(const char *begin, const char *p, const char *end,
             bool prev_dot, VariableKind &kind)
{
    const char *run = common::findFirst(
        begin, p, end, [](Word w) { return ~digitMask(w) & kLaneHigh; });
    const std::size_t digits = static_cast<std::size_t>(run - p);
    if (!prev_dot && digits <= 3 && run < end && *run == '.') {
        if (std::size_t len = matchIp(p, end); len > 0) {
            kind = VariableKind::Ip;
            return len;
        }
    }
    if (run < end && isAlpha(*run))
        return 0;
    kind = VariableKind::Number;
    return digits;
}

/**
 * First byte in [p, end) that may start a variable: a hex digit whose
 * previous byte is not an alphanumeric. Once a position fails to
 * match, the rest of its alphanumeric run is literal, and this skips
 * it with the literal text around it, a word at a time. p must be past
 * the start of the view [begin, end).
 */
const char *
nextStart(const char *begin, const char *p, const char *end)
{
    // The previous byte's alphanumeric lane, moved to lane 0.
    Word prev_alnum = isAlnum(p[-1]) ? lane(0) : 0;
    return common::findFirst(begin, p, end, [&prev_alnum](Word w) {
        const Word alnum = alnumMask(w);
        const Word starts = hexMask(w) & ~((alnum << 8) | prev_alnum);
        prev_alnum = alnum >> 56;
        return starts;
    });
}

} // namespace

const char *
VariableExtractor::placeholder(VariableKind kind)
{
    return placeholderView(kind).data();
}

void
VariableExtractor::parseInto(std::string_view body, ParsedBody &out) const
{
    out.templateText.clear();
    out.templateText.reserve(body.size());
    // Variables are overwritten in place, their texts keeping their
    // capacity; a parse that finds more takes parked texts back, and
    // one that finds fewer parks the texts it leaves over.
    std::size_t count = 0;
    // A variable starts only at a hex digit whose previous byte is not
    // a literal alphanumeric; the first byte, and the byte right after
    // a variable (the 'a' of "1.2.3.4abc"), are tried whatever precedes
    // them. Literal bytes reach the template one run at a time.
    const char *const begin = body.data();
    const char *const end = begin + body.size();
    const char *literal = begin; // start of the pending literal run
    const char *p = begin;
    bool prev_dot = false; // the byte before p is a literal '.'
    while (p < end) {
        std::size_t len = 0;
        VariableKind kind = VariableKind::Uuid;
        if (isHex(*p)) {
            len = matchUuid(p, end);
            if (len == 0 && isDigit(*p))
                len = matchNumeric(begin, p, end, prev_dot, kind);
        }
        if (len == 0) {
            p = nextStart(begin, p + 1, end);
            prev_dot = p < end && p[-1] == '.';
            continue;
        }
        out.templateText.append(literal,
                                static_cast<std::size_t>(p - literal));
        out.templateText.append(placeholderView(kind));
        if (count == out.variables.size()) {
            Variable &added = out.variables.emplace_back();
            if (!out.spareTexts.empty()) {
                added.text = std::move(out.spareTexts.back());
                out.spareTexts.pop_back();
            }
        }
        Variable &var = out.variables[count++];
        var.kind = kind;
        var.text.assign(p, len);
        p += len;
        literal = p;
        prev_dot = false;
    }
    out.templateText.append(literal,
                            static_cast<std::size_t>(end - literal));
    for (std::size_t i = count; i < out.variables.size(); ++i)
        out.spareTexts.push_back(std::move(out.variables[i].text));
    out.variables.erase(out.variables.begin() +
                            static_cast<std::ptrdiff_t>(count),
                        out.variables.end());
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
