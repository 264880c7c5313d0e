#include "common/string_util.hpp"

#include <cctype>
#include <cstdio>

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
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    out += buf;
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
