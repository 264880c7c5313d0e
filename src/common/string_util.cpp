#include "common/string_util.hpp"

#include <cctype>
#include <charconv>
#include <limits>

namespace cloudseer::common {

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = s.find(delim, start);
        if (pos == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::vector<std::string>
splitWhitespace(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos]))) {
            ++pos;
        }
        std::size_t start = pos;
        while (pos < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[pos]))) {
            ++pos;
        }
        if (pos > start)
            out.push_back(s.substr(start, pos - start));
    }
    return out;
}

std::string
join(const std::vector<std::string> &items, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += sep;
        out += items[i];
    }
    return out;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void
appendDouble(std::string &out, double value, int precision)
{
    char buf[64];
    auto [end, error] = std::to_chars(buf, buf + sizeof(buf), value,
                                      std::chars_format::fixed, precision);
    if (error == std::errc()) {
        out.append(buf, end);
        return;
    }
    // Only |value| beyond about 1e60 (or a long precision) needs more
    // room: the integer part can run to max_exponent10 + 1 digits.
    std::string wide(std::numeric_limits<double>::max_exponent10 + 4 +
                         static_cast<std::size_t>(precision),
                     '\0');
    end = std::to_chars(wide.data(), wide.data() + wide.size(), value,
                        std::chars_format::fixed, precision)
              .ptr;
    out.append(wide.data(), end);
}

void
appendJsonEscaped(std::string &out, std::string_view raw)
{
    static constexpr char kHex[] = "0123456789abcdef";
    // Plain bytes are copied a run at a time; only '"', '\\' and
    // control bytes break a run.
    std::size_t run = 0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const auto c = static_cast<unsigned char>(raw[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(raw.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
            const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                    kHex[c & 0xf]};
            out.append(escaped, sizeof(escaped));
          }
        }
    }
    out.append(raw.data() + run, raw.size() - run);
}

std::string
formatDouble(double value, int precision)
{
    std::string out;
    appendDouble(out, value, precision);
    return out;
}

std::string
formatPercent(double ratio, int precision)
{
    return formatDouble(ratio * 100.0, precision) + "%";
}

} // namespace cloudseer::common
