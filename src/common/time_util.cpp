#include "common/time_util.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/char_class.hpp"

namespace cloudseer::common {

namespace {

// Synthetic epoch: 2016-01-12 00:00:00 (the paper's era). Only the
// rendering is calendar-shaped; arithmetic stays in plain seconds.
constexpr int kEpochYear = 2016;
constexpr int kEpochMonth = 1;
constexpr int kEpochDay = 12;

constexpr double kSecondsPerDay = 86400.0;

/**
 * Append `value` as printf's "%0<width>d" does: an optional '-', then
 * the decimal digits, zero-padded so sign and digits fill `width`.
 */
void
appendPadded(std::string &out, int value, int width)
{
    char digits[12];
    int n = 0;
    // Unsigned magnitude: -INT_MIN does not fit an int.
    unsigned magnitude = value < 0 ? 0u - static_cast<unsigned>(value)
                                   : static_cast<unsigned>(value);
    do {
        digits[n++] = static_cast<char>('0' + magnitude % 10);
        magnitude /= 10;
    } while (magnitude != 0);
    int len = n + (value < 0 ? 1 : 0);
    if (value < 0)
        out += '-';
    if (len < width)
        out.append(static_cast<std::size_t>(width - len), '0');
    while (n > 0)
        out += digits[--n];
}

/** The seven numeric fields of a stamp, in text order. */
struct StampFields
{
    int year = 0, month = 0, day = 0, hh = 0, mm = 0, ss = 0, millis = 0;
};

/** Byte lanes `lanes` (bit i = lane i) as 0xff, the others 0. */
constexpr Word
byteLanes(unsigned lanes)
{
    Word out = 0;
    for (int i = 0; i < 8; ++i) {
        if ((lanes >> i) & 1u)
            out |= Word{0xff} << (8 * i);
    }
    return out;
}

/** A word's bytes, given as text in lane order. */
constexpr Word
textWord(const char (&text)[9])
{
    Word out = 0;
    for (int i = 0; i < 8; ++i)
        out |= Word{static_cast<unsigned char>(text[i])} << (8 * i);
    return out;
}

/**
 * One word of the canonical stamp: which lanes hold digits, and the
 * bytes of the others.
 */
struct StampWord
{
    Word digits; ///< 0xff in each digit lane
    Word punct;  ///< the separator bytes, 0 in digit lanes

    constexpr StampWord(unsigned digit_lanes, const char (&text)[9])
        : digits(byteLanes(digit_lanes)),
          punct(textWord(text) & ~byteLanes(digit_lanes))
    {
    }

    /** The word's digit lanes reduced to 0-9, or ~0 when `w` is off
     *  the shape. Only digit lanes are reduced, so none borrows. */
    constexpr Word
    digitValues(Word w) const
    {
        if (digitMask(w) != (digits & kLaneHigh) || (w & ~digits) != punct)
            return ~Word{0};
        return (w & digits) - (repeatByte('0') & digits);
    }
};

// "2016-01-12 00:00:02.287": the words at bytes 0, 8 and 15.
constexpr StampWord kDateWord(0b01101111, "0000-00-");
constexpr StampWord kClockWord(0b11011011, "00 00:00");
constexpr StampWord kSecondWord(0b11101101, "0:00.000");

/** The decimal value of `count` lanes of `values` from lane `first`. */
constexpr int
lanesValue(Word values, int first, int count)
{
    int v = 0;
    for (int i = first; i < first + count; ++i)
        v = v * 10 + static_cast<int>((values >> (8 * i)) & 0xff);
    return v;
}

/**
 * The canonical stamp "dddd-dd-dd dd:dd:dd.ddd", exactly 23 bytes.
 * On this shape every "%d" of the sscanf format reads exactly its
 * digit group, so the fields are the ones sscanf would produce. The
 * shape is checked a word at a time, at bytes 0, 8 and 15.
 *
 * @retval false when the text is not of that shape (the fields are then
 *         unspecified).
 */
bool
parseCanonical(std::string_view text, StampFields &f)
{
    if (text.size() != 23)
        return false;
    const char *s = text.data();
    const Word date = kDateWord.digitValues(loadWord(s));
    const Word clock = kClockWord.digitValues(loadWord(s + 8));
    const Word second = kSecondWord.digitValues(loadWord(s + 15));
    if (date == ~Word{0} || clock == ~Word{0} || second == ~Word{0})
        return false;
    f.year = lanesValue(date, 0, 4);
    f.month = lanesValue(date, 5, 2);
    f.day = lanesValue(clock, 0, 2);
    f.hh = lanesValue(clock, 3, 2);
    f.mm = lanesValue(clock, 6, 2);
    f.ss = lanesValue(second, 2, 2);
    f.millis = lanesValue(second, 5, 3);
    return true;
}

/**
 * Every other text goes through the original sscanf, so signs,
 * whitespace runs, long digit runs and overflow behave exactly as
 * they always have.
 */
bool
parseGeneral(std::string_view text, StampFields &f)
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
    return std::sscanf(cstr, "%d-%d-%d %d:%d:%d.%d", &f.year, &f.month,
                       &f.day, &f.hh, &f.mm, &f.ss, &f.millis) == 7;
}

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
    // The bytes of "%04d-%02d-%02d %02d:%02d:%02d.%03d", written by hand.
    appendPadded(out, kEpochYear, 4);
    out += '-';
    appendPadded(out, kEpochMonth, 2);
    out += '-';
    appendPadded(out, day, 2);
    out += ' ';
    appendPadded(out, hh, 2);
    out += ':';
    appendPadded(out, mm, 2);
    out += ':';
    appendPadded(out, ss, 2);
    out += '.';
    appendPadded(out, millis, 3);
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
    StampFields f;
    if (!parseCanonical(text, f) && !parseGeneral(text, f))
        return false;
    if (f.year != kEpochYear || f.month != kEpochMonth || f.day < kEpochDay)
        return false;
    out = (f.day - kEpochDay) * kSecondsPerDay + f.hh * 3600.0 +
          f.mm * 60.0 + f.ss + f.millis / 1000.0;
    return true;
}

} // namespace cloudseer::common
