/**
 * @file
 * Unit tests for the common substrate: RNG, UUIDs, strings, time,
 * statistics, and table rendering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>

#include "common/char_class.hpp"
#include "common/head_queue.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/time_util.hpp"
#include "common/uuid.hpp"

using namespace cloudseer::common;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformU64(), b.uniformU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.uniformU64() == b.uniformU64())
            ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformIntStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int v = rng.uniformInt(-3, 9);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(11);
    std::set<int> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.uniformInt(0, 4));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(5);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    double rate = static_cast<double>(hits) / trials;
    EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(Rng, ExpDelayPositiveWithRoughMean)
{
    Rng rng(9);
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        double v = rng.expDelay(0.5);
        EXPECT_GT(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum / trials, 0.5, 0.05);
}

TEST(Rng, NormalClampedRespectsBounds)
{
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
        double v = rng.normalClamped(1.0, 5.0, 0.5, 1.5);
        EXPECT_GE(v, 0.5);
        EXPECT_LE(v, 1.5);
    }
}

TEST(Rng, PickReturnsMember)
{
    Rng rng(17);
    std::vector<int> items = {10, 20, 30};
    for (int i = 0; i < 100; ++i) {
        int v = rng.pick(items);
        EXPECT_TRUE(v == 10 || v == 20 || v == 30);
    }
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(21);
    Rng child = a.fork();
    EXPECT_NE(a.uniformU64(), child.uniformU64());
}

TEST(HeadQueue, MatchesDequeUnderMixedOperations)
{
    // Seeded pushes, pops and sorted inserts from the back (the reorder
    // buffer's pattern), checked element for element against a deque;
    // the pops cross the compaction point many times.
    std::mt19937 gen(7);
    HeadQueue<std::string> queue;
    std::deque<std::string> reference;
    for (int step = 0; step < 20000; ++step) {
        const int op = static_cast<int>(gen() % 10);
        if (op < 4) {
            std::string value = "v" + std::to_string(gen() % 1000);
            queue.push_back(std::string(value));
            reference.push_back(value);
        } else if (op < 6) {
            std::string value = "v" + std::to_string(gen() % 1000);
            auto pos = queue.end();
            while (pos != queue.begin() && *std::prev(pos) > value)
                --pos;
            auto ref = reference.end();
            while (ref != reference.begin() && *std::prev(ref) > value)
                --ref;
            queue.insert(pos, std::string(value));
            reference.insert(ref, value);
        } else if (!reference.empty()) {
            ASSERT_EQ(queue.front(), reference.front());
            queue.pop_front();
            reference.pop_front();
        }
        ASSERT_EQ(queue.size(), reference.size());
        ASSERT_EQ(queue.empty(), reference.empty());
    }
    ASSERT_TRUE(std::equal(queue.begin(), queue.end(), reference.begin(),
                           reference.end()));
    queue.clear();
    EXPECT_TRUE(queue.empty());
    queue.emplace_back("after clear");
    EXPECT_EQ(queue.front(), "after clear");
}

TEST(Uuid, WellFormed)
{
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        std::string u = makeUuid(rng);
        EXPECT_EQ(u.size(), 36u);
        EXPECT_TRUE(isUuid(u)) << u;
    }
}

TEST(Uuid, DistinctDraws)
{
    Rng rng(2);
    std::set<std::string> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(makeUuid(rng));
    EXPECT_EQ(seen.size(), 200u);
}

TEST(Uuid, RejectsMalformed)
{
    EXPECT_FALSE(isUuid(""));
    EXPECT_FALSE(isUuid("1234"));
    EXPECT_FALSE(isUuid("zzzzzzzz-1111-2222-3333-444444444444"));
    EXPECT_FALSE(isUuid("12345678-1111-2222-3333-44444444444"));  // short
    EXPECT_FALSE(isUuid("12345678-1111-2222-3333-4444444444445")); // long
    EXPECT_FALSE(isUuid("12345678x1111-2222-3333-444444444444"));
}

TEST(Ip, WellFormed)
{
    Rng rng(3);
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(isIp(makeIp(rng)));
}

TEST(Ip, RejectsMalformed)
{
    EXPECT_FALSE(isIp(""));
    EXPECT_FALSE(isIp("1.2.3"));
    EXPECT_FALSE(isIp("1.2.3.4.5"));
    EXPECT_FALSE(isIp("256.1.1.1"));
    EXPECT_FALSE(isIp("a.b.c.d"));
    EXPECT_TRUE(isIp("255.255.255.255"));
    EXPECT_TRUE(isIp("0.0.0.0"));
}

TEST(StringUtil, SplitPreservesEmptyFields)
{
    auto parts = split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitWhitespaceDropsRuns)
{
    auto parts = splitWhitespace("  a\t b \n c  ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, JoinRoundTrip)
{
    std::vector<std::string> items = {"x", "y", "z"};
    EXPECT_EQ(join(items, ", "), "x, y, z");
    EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtil, Trim)
{
    EXPECT_EQ(trim("  hello \t"), "hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtil, Prefixes)
{
    EXPECT_TRUE(startsWith("nova-api", "nova"));
    EXPECT_FALSE(startsWith("api", "nova"));
    EXPECT_TRUE(endsWith("boot.log", ".log"));
    EXPECT_FALSE(endsWith("log", "boot.log"));
}

TEST(StringUtil, Formatting)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatPercent(0.9208), "92.08%");
    EXPECT_EQ(formatPercent(1.0, 1), "100.0%");
}

namespace {

/** appendJsonEscaped's contract spelled out one byte at a time, with
 *  snprintf for the control-byte escape. */
std::string
referenceJsonEscape(const std::string &raw)
{
    std::string out;
    for (char c : raw) {
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
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

/** printf "%.*f" with room for every digit of any double. */
std::string
referenceDouble(double value, int precision)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

} // namespace

TEST(JsonFormatting, EscapeMatchesReferenceOnRandomBytes)
{
    std::mt19937_64 rng(20161);
    std::string raw;
    for (int round = 0; round < 20000; ++round) {
        raw.clear();
        const int length = static_cast<int>(rng() % 48);
        for (int i = 0; i < length; ++i) {
            // Mostly plain text, with quotes, backslashes, control
            // bytes and high bytes mixed in at every position.
            switch (rng() % 6) {
              case 0:
                raw.push_back('"');
                break;
              case 1:
                raw.push_back('\\');
                break;
              case 2:
                raw.push_back(static_cast<char>(rng() % 0x20));
                break;
              case 3:
                raw.push_back(static_cast<char>(0x80 + rng() % 0x80));
                break;
              default:
                raw.push_back(static_cast<char>(0x20 + rng() % 0x5f));
            }
        }
        std::string out = "prefix";
        appendJsonEscaped(out, raw);
        ASSERT_EQ(out, "prefix" + referenceJsonEscape(raw))
            << "round " << round;
    }
}

TEST(JsonFormatting, AppendDoubleMatchesPrintf)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 3.14159, 0.0005, 1.0005, 2.0005, -0.0005,
        // Exact binary ties at precisions 0-3 (round half to even).
        0.5, 1.5, 2.5, -2.5, 0.25, 0.125, 0.375, 0.0625, 1.0625, -0.0625,
        1e15, 1e22, 1e59, 1e60, 1e61, 1e300, -1e300,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(), 1e-300, -1e-300,
        kInf, -kInf, kNaN, -kNaN};
    std::mt19937_64 rng(777);
    for (int i = 0; i < 100000; ++i) {
        // Raw bit patterns cover every exponent, NaN payloads and
        // signs; scaled draws cover the ordinary report range.
        std::uint64_t bits = rng();
        double raw;
        std::memcpy(&raw, &bits, sizeof(raw));
        values.push_back(raw);
        values.push_back(static_cast<double>(bits % 100000000) / 1000.0 -
                         50000.0);
    }
    for (double value : values) {
        for (int precision : {0, 1, 3, 6}) {
            std::string out = "x";
            appendDouble(out, value, precision);
            ASSERT_EQ(out, "x" + referenceDouble(value, precision))
                << "precision " << precision;
        }
    }
}

TEST(TimeUtil, FormatShape)
{
    std::string t = formatTimestamp(0.0);
    EXPECT_EQ(t, "2016-01-12 00:00:00.000");
    EXPECT_EQ(formatTimestamp(3661.5), "2016-01-12 01:01:01.500");
}

TEST(TimeUtil, RoundTrip)
{
    for (double t : {0.0, 0.001, 59.999, 3600.0, 86399.5, 86400.0,
                     123456.789}) {
        SimTime parsed = -1;
        ASSERT_TRUE(parseTimestamp(formatTimestamp(t), parsed)) << t;
        EXPECT_NEAR(parsed, t, 0.0015) << t;
    }
}

TEST(TimeUtil, ParseRejectsGarbage)
{
    SimTime out;
    EXPECT_FALSE(parseTimestamp("not a time", out));
    EXPECT_FALSE(parseTimestamp("2017-01-12 00:00:00.000", out));
    EXPECT_FALSE(parseTimestamp("", out));
}

// --- the hand-written stamp code vs the stdio forms it replaced ----------

namespace {

/** The stamp parse as it stood: sscanf over the whole text. */
bool
referenceParse(const std::string &text, SimTime &out)
{
    int year = 0, month = 0, day = 0, hh = 0, mm = 0, ss = 0, millis = 0;
    int n = std::sscanf(text.c_str(), "%d-%d-%d %d:%d:%d.%d", &year, &month,
                        &day, &hh, &mm, &ss, &millis);
    if (n != 7 || year != 2016 || month != 1 || day < 12)
        return false;
    out = (day - 12) * 86400.0 + hh * 3600.0 + mm * 60.0 + ss +
          millis / 1000.0;
    return true;
}

/** The stamp format as it stood: snprintf with seven "%d" fields. */
std::string
referenceFormat(SimTime t)
{
    if (t < 0)
        t = 0;
    long long whole = static_cast<long long>(std::floor(t));
    int millis = static_cast<int>(std::llround((t - whole) * 1000.0));
    if (millis >= 1000) {
        millis -= 1000;
        ++whole;
    }
    long long days = whole / 86400;
    long long rem = whole % 86400;
    char buf[64];
    int len = std::snprintf(buf, sizeof(buf),
                            "%04d-%02d-%02d %02d:%02d:%02d.%03d", 2016, 1,
                            12 + static_cast<int>(days),
                            static_cast<int>(rem / 3600),
                            static_cast<int>((rem % 3600) / 60),
                            static_cast<int>(rem % 60), millis);
    return std::string(buf, static_cast<std::size_t>(len));
}

} // namespace

TEST(CharClass, MatchesCctypeForEveryByte)
{
    for (int b = 0; b < 256; ++b) {
        char c = static_cast<char>(b);
        EXPECT_EQ(isDigit(c), std::isdigit(b) != 0) << b;
        EXPECT_EQ(isHex(c), std::isxdigit(b) != 0) << b;
        EXPECT_EQ(isAlpha(c), std::isalpha(b) != 0) << b;
        EXPECT_EQ(isAlnum(c), std::isalnum(b) != 0) << b;
        EXPECT_EQ(isSpace(c), std::isspace(b) != 0) << b;
    }
}

TEST(CharClass, WordMasksMatchTheTableInEveryLane)
{
    // Every byte value in every lane, between neighbours that would
    // carry or borrow into it if the lanes leaked into each other.
    const unsigned char fills[] = {0x00, 0x2f, '0',  '9',  ':',  '@',
                                   'a',  'z',  0x7f, 0x80, 0xff, ' '};
    for (int lane = 0; lane < 8; ++lane) {
        for (int b = 0; b < 256; ++b) {
            for (unsigned char fill : fills) {
                unsigned char bytes[8];
                std::memset(bytes, fill, sizeof(bytes));
                bytes[lane] = static_cast<unsigned char>(b);
                const Word w = loadWord(reinterpret_cast<char *>(bytes));
                Word digit = 0, hex = 0, alnum = 0, space = 0, same = 0;
                for (int i = 0; i < 8; ++i) {
                    const char c = static_cast<char>(bytes[i]);
                    const Word bit = Word{0x80} << (8 * i);
                    digit |= isDigit(c) ? bit : 0;
                    hex |= isHex(c) ? bit : 0;
                    alnum |= isAlnum(c) ? bit : 0;
                    space |= isSpace(c) ? bit : 0;
                    same |= bytes[i] == b ? bit : 0;
                }
                ASSERT_EQ(digitMask(w), digit) << lane << " " << b;
                ASSERT_EQ(hexMask(w), hex) << lane << " " << b;
                ASSERT_EQ(alnumMask(w), alnum) << lane << " " << b;
                ASSERT_EQ(spaceMask(w), space) << lane << " " << b;
                ASSERT_EQ(byteMask(w, static_cast<std::uint8_t>(b)), same)
                    << lane << " " << b;
            }
        }
    }
}

TEST(CharClass, TailLoadsStayInsideTheView)
{
    // Views of every length up to 20 bytes, each in a heap block of
    // exactly its size, so an over-read is an AddressSanitizer report.
    for (std::size_t size = 0; size <= 20; ++size) {
        std::unique_ptr<char[]> block(new char[size]);
        for (std::size_t i = 0; i < size; ++i)
            block[i] = static_cast<char>(0xa0 + i);
        const char *begin = block.get();
        const char *end = begin + size;
        for (const char *p = size < 8 ? begin : end - 7; p <= end; ++p) {
            Word expected = 0;
            for (const char *q = p; q < end; ++q) {
                expected |= Word{static_cast<unsigned char>(*q)}
                            << (8 * (q - p));
            }
            EXPECT_EQ(loadTail(begin, p, end), expected) << size;
        }
        // A negated class sets the zero padding lanes too; the scan
        // clips them, so it finds no byte past the end.
        auto notHigh = [](Word w) {
            return ~byteMask(w, 0xa0) & kLaneHigh;
        };
        EXPECT_EQ(findFirst(begin, begin, end, notHigh),
                  size > 1 ? begin + 1 : end)
            << size;
        EXPECT_EQ(findFirst(begin, begin, end, spaceMask), end) << size;
    }
}

TEST(TimeUtil, ParseMatchesSscanfReference)
{
    Rng rng(23);
    std::vector<std::string> stamps = {
        "2016-01-12 00:00:00.000", "2016-01-99 23:59:59.999",
        "2016-01-12 00:00:00.00",  "2016-01-12 00:00:00.0000",
        "2016-01-12 00:00:00",     "2016-01-12  00:00:00.000",
        "2016-01-12\t00:00:00.000", "+2016-01-12 00:00:00.000",
        "2016-01-12 -1:00:00.000", "2016-01-12 00:00:00.-01",
        "2016-01-12 00:00:00.+01", "2016-01-12 00:00: 0.000",
        "2016-01-12 00:00:00.000x", "2016-01-11 00:00:00.000",
        "2016-01-12 99999999999:00:00.000", "0002016-01-12 00:00:00.000",
        "2016-01-12 00:00:00.99999999999", " 2016-01-12 00:00:00.000",
        "2016-1-12 0:0:0.0",       "2016-01-12 00:00:00,000",
        "9999-99-99 99:99:99.999", "",
    };
    // A non-digit, a sign and a space at each digit slot of a stamp.
    const std::string canonical = "2016-01-13 07:08:09.010";
    for (std::size_t at = 0; at < canonical.size(); ++at) {
        for (char c : {'x', '-', '+', ' ', '\t', '\0', '9', '\xb2'}) {
            std::string s = canonical;
            s[at] = c;
            stamps.push_back(s);
        }
    }
    for (int i = 0; i < 3000; ++i) {
        SimTime t = rng.uniformReal(0.0, 40 * 86400.0);
        std::string s = formatTimestamp(t);
        stamps.push_back(s);
        switch (rng.uniformInt(0, 5)) {
          case 0: // 22 or 24 bytes
            if (rng.chance(0.5))
                s.pop_back();
            else
                s.insert(s.begin() + rng.uniformInt(0, 23),
                         static_cast<char>('0' + rng.uniformInt(0, 9)));
            break;
          case 1: // a sign or whitespace somewhere
            s.insert(s.begin() + rng.uniformInt(0, 23),
                     " \t\n+-"[rng.uniformInt(0, 4)]);
            break;
          case 2: // a long digit run
            s.insert(s.begin() + rng.uniformInt(0, 23),
                     static_cast<std::size_t>(rng.uniformInt(5, 30)), '7');
            break;
          case 3: // any byte at any slot
            s[static_cast<std::size_t>(rng.uniformInt(0, 22))] =
                static_cast<char>(rng.uniformInt(1, 255));
            break;
          case 4: // truncated
            s.resize(static_cast<std::size_t>(rng.uniformInt(0, 22)));
            break;
          default: // a long tail (past the stack copy)
            s.append(static_cast<std::size_t>(rng.uniformInt(30, 90)), '1');
            break;
        }
        stamps.push_back(s);
    }
    std::size_t accepted = 0;
    for (const std::string &s : stamps) {
        SimTime expected = -1, got = -1;
        bool expected_ok = referenceParse(s, expected);
        ASSERT_EQ(parseTimestamp(s, got), expected_ok) << s;
        if (!expected_ok)
            continue;
        ++accepted;
        EXPECT_EQ(std::memcmp(&got, &expected, sizeof(got)), 0) << s;
    }
    EXPECT_GT(accepted, stamps.size() / 2);
    EXPECT_LT(accepted, stamps.size());
}

TEST(TimeUtil, AppendMatchesSnprintfReference)
{
    Rng rng(31);
    std::vector<SimTime> times = {
        0.0,      -0.0,    -1.0,         -1e9,   0.0004,      0.0005,
        0.9994,   0.9995,  0.99951,      59.9995, 3599.9995,  86399.9995,
        86400.0,  88 * 86400.0 - 0.0005, 88 * 86400.0,
        987 * 86400.0 + 0.9995, 1e9 + 0.25, 123456.789,
        // Day counts past INT_MAX wrap in the int conversion, so the
        // day field prints negative ("%02d" of a negative value).
        2147483648.0 * 86400.0, 4294967295.0 * 86400.0 + 3661.5,
    };
    for (int i = 0; i < 20000; ++i) {
        switch (rng.uniformInt(0, 3)) {
          case 0: // a real run's range
            times.push_back(rng.uniformReal(0.0, 7 * 86400.0));
            break;
          case 1: // days of 100 and above
            times.push_back(rng.uniformReal(0.0, 1e9));
            break;
          case 2: // at a millisecond's half-way point
            times.push_back(rng.uniformInt(0, 2000000) / 1000.0 + 0.0005);
            break;
          default: // negatives clamp to 0
            times.push_back(-rng.uniformReal(0.0, 1e6));
            break;
        }
    }
    std::string out = "prefix ";
    for (SimTime t : times) {
        out.resize(7);
        appendTimestamp(t, out);
        ASSERT_EQ(out.substr(7), referenceFormat(t)) << t;
        ASSERT_EQ(formatTimestamp(t), referenceFormat(t)) << t;
    }
    EXPECT_EQ(formatTimestamp(88 * 86400.0), "2016-01-100 00:00:00.000");
    EXPECT_EQ(formatTimestamp(0.9995), "2016-01-12 00:00:01.000");
}

TEST(SampleStats, EmptyIsZero)
{
    SampleStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.median(), 0.0);
}

TEST(SampleStats, BasicMoments)
{
    SampleStats s;
    for (double v : {4.0, 1.0, 3.0, 2.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_EQ(s.min(), 1.0);
    EXPECT_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.median(), 2.5);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(SampleStats, PercentileInterpolates)
{
    SampleStats s;
    for (int i = 1; i <= 5; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 3.0);
    EXPECT_DOUBLE_EQ(s.percentile(25), 2.0);
}

TEST(SampleStats, AddAfterQueryKeepsSorted)
{
    SampleStats s;
    s.add(5.0);
    EXPECT_EQ(s.max(), 5.0);
    s.add(9.0);
    s.add(1.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_EQ(s.min(), 1.0);
}

TEST(DetectionStats, PrecisionRecallF1)
{
    DetectionStats d;
    d.truePositives = 54;
    d.falsePositives = 11;
    d.falseNegatives = 6;
    EXPECT_NEAR(d.precision(), 0.8308, 0.0001);
    EXPECT_NEAR(d.recall(), 0.9000, 0.0001);
    EXPECT_GT(d.f1(), 0.86);
}

TEST(DetectionStats, UndefinedRatiosAreZero)
{
    DetectionStats d;
    EXPECT_EQ(d.precision(), 0.0);
    EXPECT_EQ(d.recall(), 0.0);
    EXPECT_EQ(d.f1(), 0.0);
}

TEST(DetectionStats, MergeAccumulates)
{
    DetectionStats a;
    a.truePositives = 1;
    a.falsePositives = 2;
    DetectionStats b;
    b.truePositives = 3;
    b.falseNegatives = 4;
    a.merge(b);
    EXPECT_EQ(a.truePositives, 4u);
    EXPECT_EQ(a.falsePositives, 2u);
    EXPECT_EQ(a.falseNegatives, 4u);
}

TEST(TextTable, AlignsColumns)
{
    TextTable table({"Task", "Msgs"});
    table.addRow({"boot", "23"});
    table.addRow({"delete", "9"});
    std::string out = table.toString();
    EXPECT_NE(out.find("| Task   | Msgs |"), std::string::npos);
    EXPECT_NE(out.find("| boot   | 23   |"), std::string::npos);
    EXPECT_NE(out.find("| delete | 9    |"), std::string::npos);
}

TEST(TextTable, RangeFormatter)
{
    SampleStats s;
    s.add(0.9324);
    s.add(1.0);
    EXPECT_EQ(formatRange(s, 2), "0.93 - 1.00");
}

// --- HttpServer hardening against malformed clients -------------------

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/http_server.hpp"

namespace {

/**
 * A raw TCP client for speaking deliberately broken HTTP: send
 * `request` verbatim, optionally half-close the write side (so a
 * server waiting for more bytes sees EOF instead of blocking), and
 * return everything the server answered.
 */
std::string
rawHttpExchange(std::uint16_t port, const std::string &request,
                bool half_close = true)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    std::size_t sent = 0;
    while (sent < request.size()) {
        ssize_t n = ::send(fd, request.data() + sent,
                           request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += static_cast<std::size_t>(n);
    }
    if (half_close)
        ::shutdown(fd, SHUT_WR);
    std::string reply;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break;
        reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return reply;
}

/** An HttpServer on an ephemeral port with one document mounted. */
struct ScratchServer
{
    HttpServer server{"127.0.0.1", 0};

    ScratchServer()
    {
        server.handle("/doc", [] {
            return HttpResponse{200, "text/plain", "payload\n"};
        });
        EXPECT_TRUE(server.start()) << server.error();
    }
};

} // namespace

TEST(HttpServerHardening, OversizedRequestLineGets431)
{
    ScratchServer scratch;
    // 16 KiB of request line, never terminated: twice the 8 KiB cap,
    // so the server must answer 431 without waiting for the end.
    std::string request =
        "GET /" + std::string(16384, 'a') + " HTTP/1.0\r\n";
    std::string reply =
        rawHttpExchange(scratch.server.boundPort(), request);
    EXPECT_NE(reply.find("431"), std::string::npos) << reply;
    EXPECT_NE(reply.find("request too large"), std::string::npos)
        << reply;
    // The connection was drained, not reset: a well-formed request on
    // a fresh connection still works.
    int status = 0;
    std::string body;
    ASSERT_TRUE(httpGet("127.0.0.1", scratch.server.boundPort(),
                        "/doc", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, "payload\n");
}

TEST(HttpServerHardening, UnterminatedRequestGets400)
{
    ScratchServer scratch;
    // The client hangs up before ever sending the blank line.
    std::string reply = rawHttpExchange(scratch.server.boundPort(),
                                        "GET /doc HTTP/1.0\r\n");
    EXPECT_NE(reply.find("400"), std::string::npos) << reply;
    EXPECT_NE(reply.find("malformed request"), std::string::npos);
}

TEST(HttpServerHardening, GarbageRequestLineGets400)
{
    ScratchServer scratch;
    std::string reply = rawHttpExchange(scratch.server.boundPort(),
                                        "GARBAGE\r\n\r\n");
    EXPECT_NE(reply.find("400"), std::string::npos) << reply;
    EXPECT_NE(reply.find("malformed request line"), std::string::npos)
        << reply;
    // Absolute-form target (no leading slash) is equally malformed.
    reply = rawHttpExchange(scratch.server.boundPort(),
                            "GET example.com HTTP/1.0\r\n\r\n");
    EXPECT_NE(reply.find("malformed request line"), std::string::npos)
        << reply;
}

TEST(HttpServerHardening, NonGetMethodGets405)
{
    ScratchServer scratch;
    std::string reply =
        rawHttpExchange(scratch.server.boundPort(),
                        "POST /doc HTTP/1.0\r\n\r\n");
    EXPECT_NE(reply.find("405"), std::string::npos) << reply;
    EXPECT_NE(reply.find("only GET is supported"), std::string::npos);
}

TEST(HttpServerHardening, UnknownPathGets404WithNamedTarget)
{
    ScratchServer scratch;
    int status = 0;
    std::string body;
    ASSERT_TRUE(httpGet("127.0.0.1", scratch.server.boundPort(),
                        "/nowhere", status, body));
    EXPECT_EQ(status, 404);
    EXPECT_EQ(body, "unknown path: /nowhere\n");
}

TEST(HttpServerHardening, SurvivesClientDisconnectingMidRequest)
{
    ScratchServer scratch;
    // A burst of clients that connect and vanish without a byte: the
    // response write hits a dead socket (EPIPE, suppressed by
    // MSG_NOSIGNAL), and the accept loop must shrug all of it off.
    for (int i = 0; i < 5; ++i) {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(scratch.server.boundPort());
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        ::close(fd);
    }
    int status = 0;
    std::string body;
    ASSERT_TRUE(httpGet("127.0.0.1", scratch.server.boundPort(),
                        "/doc", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, "payload\n");
}
