/**
 * @file
 * Seeded mutation fuzzer for the two decoders of the observability
 * layer, in the shape of decoder_fuzz_test: parseAlertRules, which
 * reads operator rule packs, and HealthSample::fromJson, which reads
 * recorded HEALTH lines back for seer-stats and seer-pulse replay.
 *
 * Golden inputs are hand-written rule packs and HEALTH lines rendered
 * from seeded random samples. Each mutant flips, truncates, splices,
 * inserts, deletes or duplicates bytes of one of them. The checks:
 *   - parseAlertRules either fails with a "line N: " error and no
 *     rules, or every rule's ALERT record and the /alerts document
 *     hold only well-formed JSON strings, and the rule name decodes
 *     back to the parsed name;
 *   - HealthSample::fromJson reads a heap block of exactly the
 *     mutant's size, so an over-read is an AddressSanitizer report,
 *     and rendering what it read is stable under a second read;
 *   - every unmutated HEALTH line round-trips through toJson byte for
 *     byte.
 *
 * The budget is a fixed number of mutants per seed, so every run is
 * the same. The first failing input is written, byte for byte, to a
 * reproducer file in the working directory, named in the failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "obs/health_fields.hpp"
#include "obs/pulse.hpp"

namespace {

using namespace cloudseer;
using obs::AlertRule;
using obs::HealthField;
using obs::HealthSample;

/** Mutants per seed and target. */
constexpr int kMutantsPerSeed = 20000;

/** A copy of `bytes` in a heap block of exactly their size. */
class ExactCopy
{
  public:
    explicit ExactCopy(std::string_view bytes)
        : data(new char[bytes.size()]), size(bytes.size())
    {
        if (size > 0)
            std::memcpy(data.get(), bytes.data(), size);
    }

    std::string_view view() const { return {data.get(), size}; }

  private:
    std::unique_ptr<char[]> data;
    std::size_t size;
};

/** Rule packs as an operator writes them, odd names included. */
std::vector<std::string>
goldenRulePacks()
{
    return {
        "# burn-rate pack\n"
        "rule template_miss_burn signal=template_miss_rate "
        "threshold=0.05 pending=10 hold=30 resolve=0.5\n"
        "rule shed_burn signal=shed_rate threshold=0\n"
        "\n"
        "rule wal_slow signal=wal_append_p99_us threshold=500 ewma\n",
        "rule err signal=error_rate threshold=0.02 pending=30 hold=60 "
        "resolve=0.4\n"
        "rule timeouts signal=timeout_rate threshold=0.01\n"
        "rule backpressure signal=backpressure_rate threshold=1 ewma\n",
        "  # indented comment\n"
        "rule caf\xc3\xa9\"quoted\\ signal=divergence_recovery_rate "
        "threshold=0.1 hold=5\n"
        "rule feed signal=feed_p99_us threshold=250 pending=1\n",
    };
}

/** HEALTH lines of seeded random samples, over every magnitude. */
std::vector<std::string>
goldenHealthLines()
{
    common::Rng rng(11);
    std::vector<std::string> lines;
    lines.push_back(HealthSample{}.toJson());
    for (int i = 0; i < 48; ++i) {
        HealthSample sample;
        for (const HealthField &field : obs::kHealthFields) {
            const int scale = rng.uniformInt(0, 3);
            if (field.count != nullptr) {
                std::uint64_t value = rng.uniformU64();
                if (scale < 3)
                    value %= std::uint64_t{1000} << (20 * scale);
                sample.*field.count = value;
            } else {
                const double value =
                    rng.uniformReal(0.0, 1.0) *
                    (scale == 0 ? 1e-6 : scale == 1 ? 1.0 : 1e7);
                sample.*field.real =
                    scale == 3 ? std::numeric_limits<double>::infinity()
                               : value;
            }
        }
        lines.push_back(sample.toJson());
    }
    return lines;
}

/** A byte biased towards the ones the decoders look at. */
char
mutantByte(common::Rng &rng)
{
    static const char kPool[] = " \t\n\r#={}[]\":,.-+e0123456789abwxyz";
    switch (rng.uniformInt(0, 5)) {
      case 0: // a control byte, NUL included
        return static_cast<char>(rng.uniformInt(0, 0x1f));
      case 1: // any byte at all
        return static_cast<char>(rng.uniformInt(0, 255));
      default:
        return kPool[rng.uniformInt(0, sizeof(kPool) - 2)];
    }
}

std::size_t
position(common::Rng &rng, std::size_t size)
{
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(size)));
}

/** One to three mutations of a golden input. */
std::string
mutate(const std::vector<std::string> &golden, common::Rng &rng)
{
    const int last = static_cast<int>(golden.size()) - 1;
    std::string text = golden[static_cast<std::size_t>(
        rng.uniformInt(0, last))];
    for (int steps = rng.uniformInt(1, 3); steps > 0; --steps) {
        switch (rng.uniformInt(0, 5)) {
          case 0: // flip bytes
            for (int flips = rng.uniformInt(1, 4);
                 flips > 0 && !text.empty(); --flips) {
                text[position(rng, text.size() - 1)] = mutantByte(rng);
            }
            break;
          case 1: // truncate
            text.resize(position(rng, text.size()));
            break;
          case 2: { // splice the head of one onto the tail of another
            const std::string &other = golden[static_cast<std::size_t>(
                rng.uniformInt(0, last))];
            text = text.substr(0, position(rng, text.size())) +
                   other.substr(position(rng, other.size()));
            break;
          }
          case 3: { // insert a run of bytes
            std::string run;
            for (int n = rng.uniformInt(1, 8); n > 0; --n)
                run += mutantByte(rng);
            text.insert(position(rng, text.size()), run);
            break;
          }
          case 4: { // delete a range
            std::size_t at = position(rng, text.size());
            text.erase(at, position(rng, std::min<std::size_t>(
                                             16, text.size() - at)));
            break;
          }
          default: { // duplicate a range elsewhere
            std::size_t at = position(rng, text.size());
            std::string chunk = text.substr(
                at, position(rng, std::min<std::size_t>(
                                      40, text.size() - at)));
            text.insert(position(rng, text.size()), chunk);
            break;
          }
        }
    }
    return text;
}

/** Write a failing input where the failure message says it is. */
std::string
writeReproducer(std::string_view bytes, const char *target,
                std::uint64_t seed, int mutant)
{
    const std::string path = std::string("obs_fuzz_repro_") + target +
                             "_" + std::to_string(seed) + "_" +
                             std::to_string(mutant) + ".bin";
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
}

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/**
 * Strict check of every string in a JSON document: no raw byte below
 * 0x20 anywhere, every string closed, every escape one JSON allows.
 * Appends the decoded value of each string that follows a "rule" key
 * to `rules` (\u escapes decoded as single bytes, which is all the
 * escaper emits). False on the first violation.
 */
bool
strictJsonStrings(std::string_view doc, std::vector<std::string> &rules)
{
    std::string lastKey;
    std::size_t at = 0;
    while (at < doc.size()) {
        const char c = doc[at++];
        if (static_cast<unsigned char>(c) < 0x20)
            return false;
        if (c != '"')
            continue;
        std::string value;
        for (;;) {
            if (at >= doc.size())
                return false;
            const char s = doc[at++];
            if (static_cast<unsigned char>(s) < 0x20)
                return false;
            if (s == '"')
                break;
            if (s != '\\') {
                value += s;
                continue;
            }
            if (at >= doc.size())
                return false;
            const char e = doc[at++];
            switch (e) {
              case '"': value += '"'; break;
              case '\\': value += '\\'; break;
              case '/': value += '/'; break;
              case 'b': value += '\b'; break;
              case 'f': value += '\f'; break;
              case 'n': value += '\n'; break;
              case 'r': value += '\r'; break;
              case 't': value += '\t'; break;
              case 'u': {
                if (doc.size() - at < 4)
                    return false;
                int code = 0;
                for (int i = 0; i < 4; ++i) {
                    const int digit = hexDigit(doc[at++]);
                    if (digit < 0)
                        return false;
                    code = code * 16 + digit;
                }
                value += static_cast<char>(code);
                break;
              }
              default:
                return false;
            }
        }
        if (at < doc.size() && doc[at] == ':') {
            lastKey = value;
        } else {
            if (lastKey == "rule")
                rules.push_back(value);
            lastKey.clear();
        }
    }
    return true;
}

/** What went wrong with one rule-pack mutant, or empty. */
std::string
checkRulePack(const std::string &text, std::size_t &accepted,
              std::size_t &escaped)
{
    std::vector<AlertRule> rules;
    std::string error;
    if (!obs::parseAlertRules(text, rules, error)) {
        std::size_t digits = 0;
        while (5 + digits < error.size() &&
               std::isdigit(static_cast<unsigned char>(error[5 + digits])))
            ++digits;
        if (error.compare(0, 5, "line ") != 0 || digits == 0 ||
            error.compare(5 + digits, 2, ": ") != 0)
            return "error without a line number: " + error;
        if (!rules.empty())
            return "rules left after a failed parse";
        return {};
    }
    ++accepted;
    for (const AlertRule &rule : rules) {
        escaped += std::any_of(rule.name.begin(), rule.name.end(),
                               [](char c) {
                                   return static_cast<unsigned char>(c) <
                                              0x20 ||
                                          c == '"' || c == '\\';
                               });
        obs::AlertRecord record;
        record.rule = rule.name;
        record.signal = rule.signal;
        record.state = "firing";
        record.threshold = rule.threshold;
        std::vector<std::string> names;
        if (!strictJsonStrings(record.toJson(), names))
            return "ALERT record JSON";
        if (names != std::vector<std::string>{rule.name})
            return "ALERT record rule name";
    }
    // Every rule whose threshold a huge rate exceeds turns active.
    obs::AlertEngine engine(rules);
    obs::PulseRates rates;
    rates.time = 1.0;
    rates.value.fill(1e300);
    rates.ewma.fill(1e300);
    std::vector<std::string> fired;
    for (const obs::AlertRecord &record : engine.evaluate(rates)) {
        std::vector<std::string> names;
        if (!strictJsonStrings(record.toJson(), names) ||
            names != std::vector<std::string>{record.rule})
            return "evaluated ALERT record";
        fired.push_back(record.rule);
    }
    std::vector<std::string> active;
    if (!strictJsonStrings(engine.activeJson(1.0), active))
        return "/alerts JSON";
    if (active != fired)
        return "/alerts rule names";
    return {};
}

/** What went wrong with one HEALTH mutant, or empty. */
std::string
checkHealthLine(std::string_view line)
{
    const HealthSample read = HealthSample::fromJson(line);
    const std::string rendered = read.toJson();
    if (HealthSample::fromJson(rendered).toJson() != rendered)
        return "rendering is not stable under a second read";
    return {};
}

} // namespace

TEST(ObsDecoderFuzz, GoldenHealthLinesRoundTrip)
{
    for (const std::string &line : goldenHealthLines()) {
        EXPECT_TRUE(HealthSample::isJson(line));
        EXPECT_EQ(HealthSample::fromJson(line).toJson(), line);
    }
}

TEST(ObsDecoderFuzz, AlertRuleMutantsFailWithALineOrRenderStrictJson)
{
    const std::vector<std::string> golden = goldenRulePacks();
    std::size_t accepted = 0, escaped = 0;
    for (std::uint64_t seed : {2016u, 29u}) {
        common::Rng rng(seed);
        for (int mutant = 0; mutant < kMutantsPerSeed; ++mutant) {
            const std::string text = mutate(golden, rng);
            const std::string failure = checkRulePack(text, accepted, escaped);
            if (!failure.empty()) {
                FAIL() << failure << "; input written to "
                       << writeReproducer(text, "rules", seed, mutant);
            }
        }
    }
    // Both outcomes are exercised, and names that need escapes.
    const std::size_t total = 2 * kMutantsPerSeed;
    std::printf("rule mutants %zu, accepted %zu, names escaped %zu\n",
                total, accepted, escaped);
    EXPECT_GT(accepted, total / 20);
    EXPECT_LT(accepted, total);
    EXPECT_GT(escaped, accepted / 10);
}

TEST(ObsDecoderFuzz, HealthLineMutantsReadInBoundsAndRenderStably)
{
    const std::vector<std::string> golden = goldenHealthLines();
    for (std::uint64_t seed : {2016u, 29u}) {
        common::Rng rng(seed);
        for (int mutant = 0; mutant < kMutantsPerSeed; ++mutant) {
            const std::string line = mutate(golden, rng);
            const ExactCopy copy(line);
            const std::string failure = checkHealthLine(copy.view());
            if (!failure.empty()) {
                FAIL() << failure << "; input written to "
                       << writeReproducer(line, "health", seed, mutant);
            }
        }
    }
}
