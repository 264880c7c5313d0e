#include "common/time_util.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace cloudseer::common {

namespace {

// Synthetic epoch: 2016-01-12 00:00:00 (the paper's era). Only the
// rendering is calendar-shaped; arithmetic stays in plain seconds.
constexpr int kEpochYear = 2016;
constexpr int kEpochMonth = 1;
constexpr int kEpochDay = 12;

constexpr double kSecondsPerDay = 86400.0;

} // namespace

void
appendTimestamp(SimTime t, std::string &out)
{
    if (t < 0)
        t = 0;
    long long whole = static_cast<long long>(std::floor(t));
    int millis = static_cast<int>(std::llround((t - whole) * 1000.0));
    if (millis >= 1000) {
        millis -= 1000;
        ++whole;
    }
    long long days = whole / static_cast<long long>(kSecondsPerDay);
    long long rem = whole % static_cast<long long>(kSecondsPerDay);
    int hh = static_cast<int>(rem / 3600);
    int mm = static_cast<int>((rem % 3600) / 60);
    int ss = static_cast<int>(rem % 60);
    // Days roll the date forward within January for simplicity; runs are
    // far shorter than the remaining days of the month.
    int day = kEpochDay + static_cast<int>(days);
    char buf[48];
    int len = std::snprintf(buf, sizeof(buf),
                            "%04d-%02d-%02d %02d:%02d:%02d.%03d",
                            kEpochYear, kEpochMonth, day, hh, mm, ss,
                            millis);
    out.append(buf, static_cast<std::size_t>(len));
}

std::string
formatTimestamp(SimTime t)
{
    std::string out;
    appendTimestamp(t, out);
    return out;
}

bool
parseTimestamp(std::string_view text, SimTime &out)
{
    // sscanf needs a terminated string. Stamps are ~23 bytes, so a
    // stack copy serves every real line; longer text (garbage) takes
    // the heap, which keeps the parse identical for any input.
    char local[64];
    std::string spill;
    const char *cstr = local;
    if (text.size() < sizeof(local)) {
        std::memcpy(local, text.data(), text.size());
        local[text.size()] = '\0';
    } else {
        spill.assign(text);
        cstr = spill.c_str();
    }
    int year = 0, month = 0, day = 0, hh = 0, mm = 0, ss = 0, millis = 0;
    int n = std::sscanf(cstr, "%d-%d-%d %d:%d:%d.%d",
                        &year, &month, &day, &hh, &mm, &ss, &millis);
    if (n != 7 || year != kEpochYear || month != kEpochMonth ||
        day < kEpochDay) {
        return false;
    }
    out = (day - kEpochDay) * kSecondsPerDay + hh * 3600.0 + mm * 60.0 +
          ss + millis / 1000.0;
    return true;
}

} // namespace cloudseer::common
