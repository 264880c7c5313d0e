/**
 * @file
 * Unit tests for the logging substrate: variable extraction, template
 * interning, and log-line (de)serialisation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "frontend_reference.hpp"
#include "logging/log_codec.hpp"
#include "logging/log_level.hpp"
#include "logging/template_catalog.hpp"
#include "logging/variable_extractor.hpp"
#include "sim/simulation.hpp"
#include "workload/workload_generator.hpp"

using namespace cloudseer::logging;

namespace {

const VariableExtractor kExtractor;

} // namespace

TEST(LogLevel, NamesRoundTrip)
{
    for (LogLevel level : {LogLevel::Debug, LogLevel::Info,
                           LogLevel::Warning, LogLevel::Error,
                           LogLevel::Critical}) {
        LogLevel parsed;
        ASSERT_TRUE(parseLogLevel(logLevelName(level), parsed));
        EXPECT_EQ(parsed, level);
    }
    LogLevel out;
    EXPECT_FALSE(parseLogLevel("TRACE", out));
    EXPECT_FALSE(parseLogLevel("info", out)); // case-sensitive
}

TEST(LogLevel, ErrorClassification)
{
    EXPECT_TRUE(isErrorLevel(LogLevel::Error));
    EXPECT_TRUE(isErrorLevel(LogLevel::Critical));
    EXPECT_FALSE(isErrorLevel(LogLevel::Warning));
    EXPECT_FALSE(isErrorLevel(LogLevel::Info));
}

TEST(VariableExtractor, ExtractsUuid)
{
    ParsedBody parsed = kExtractor.parse(
        "Scheduling instance 01234567-89ab-cdef-0123-456789abcdef");
    EXPECT_EQ(parsed.templateText, "Scheduling instance <uuid>");
    ASSERT_EQ(parsed.variables.size(), 1u);
    EXPECT_EQ(parsed.variables[0].kind, VariableKind::Uuid);
    EXPECT_EQ(parsed.variables[0].text,
              "01234567-89ab-cdef-0123-456789abcdef");
}

TEST(VariableExtractor, ExtractsIp)
{
    ParsedBody parsed = kExtractor.parse("accepted 10.0.12.34");
    EXPECT_EQ(parsed.templateText, "accepted <ip>");
    ASSERT_EQ(parsed.variables.size(), 1u);
    EXPECT_EQ(parsed.variables[0].kind, VariableKind::Ip);
}

TEST(VariableExtractor, ExtractsNumber)
{
    ParsedBody parsed = kExtractor.parse("status: 202 len: 1748");
    EXPECT_EQ(parsed.templateText, "status: <num> len: <num>");
    ASSERT_EQ(parsed.variables.size(), 2u);
    EXPECT_EQ(parsed.variables[0].text, "202");
    EXPECT_EQ(parsed.variables[1].text, "1748");
}

TEST(VariableExtractor, MixedRealisticLine)
{
    ParsedBody parsed = kExtractor.parse(
        "[req-11111111-2222-3333-4444-555555555555] 10.1.2.3 "
        "\"POST /v2/aaaaaaaa-bbbb-cccc-dddd-eeeeeeeeeeee/servers "
        "HTTP/1.1\" status: 202");
    EXPECT_EQ(parsed.templateText,
              "[req-<uuid>] <ip> \"POST /v2/<uuid>/servers "
              "HTTP/<num>.<num>\" status: <num>");
    // req UUID, client IP, tenant UUID, "1", "1", "202".
    ASSERT_EQ(parsed.variables.size(), 6u);
    EXPECT_EQ(parsed.variables[0].kind, VariableKind::Uuid);
    EXPECT_EQ(parsed.variables[1].kind, VariableKind::Ip);
    EXPECT_EQ(parsed.variables[2].kind, VariableKind::Uuid);
    EXPECT_EQ(parsed.variables[5].text, "202");
}

TEST(VariableExtractor, KeepsWordGluedDigits)
{
    ParsedBody parsed = kExtractor.parse("GET /v2/servers on eth0");
    EXPECT_EQ(parsed.templateText, "GET /v2/servers on eth0");
    EXPECT_TRUE(parsed.variables.empty());
}

TEST(VariableExtractor, HexWordIsNotUuid)
{
    ParsedBody parsed = kExtractor.parse("cafe babe feed");
    EXPECT_EQ(parsed.templateText, "cafe babe feed");
    EXPECT_TRUE(parsed.variables.empty());
}

TEST(VariableExtractor, FiveOctetsIsNotIp)
{
    ParsedBody parsed = kExtractor.parse("path 1.2.3.4.5 end");
    // Falls back to numbers; no IP variable extracted.
    for (const Variable &var : parsed.variables)
        EXPECT_NE(var.kind, VariableKind::Ip);
}

TEST(VariableExtractor, OctetOver255IsNotIp)
{
    ParsedBody parsed = kExtractor.parse("addr 300.1.1.1");
    for (const Variable &var : parsed.variables)
        EXPECT_NE(var.kind, VariableKind::Ip);
}

TEST(VariableExtractor, UuidTailNotReparsed)
{
    // The trailing 12-hex group must not surface as separate numbers.
    ParsedBody parsed = kExtractor.parse(
        "id 01234567-89ab-cdef-0123-456789abcdef end");
    ASSERT_EQ(parsed.variables.size(), 1u);
    EXPECT_EQ(parsed.variables[0].kind, VariableKind::Uuid);
}

TEST(VariableExtractor, IdenticalTemplatesForDifferentValues)
{
    ParsedBody a = kExtractor.parse("Starting instance "
        "01234567-89ab-cdef-0123-456789abcdef");
    ParsedBody b = kExtractor.parse("Starting instance "
        "fedcba98-7654-3210-fedc-ba9876543210");
    EXPECT_EQ(a.templateText, b.templateText);
}

TEST(VariableExtractor, IdentifierExtractionSkipsNumbers)
{
    std::string body = "10.1.2.3 did 42 things to "
                       "01234567-89ab-cdef-0123-456789abcdef";
    auto ids = kExtractor.extractIdentifiers(body);
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], "10.1.2.3");
    auto with_numbers = kExtractor.extractIdentifiers(body, true);
    EXPECT_EQ(with_numbers.size(), 3u);
}

TEST(VariableExtractor, EmptyBody)
{
    ParsedBody parsed = kExtractor.parse("");
    EXPECT_EQ(parsed.templateText, "");
    EXPECT_TRUE(parsed.variables.empty());
}

TEST(TemplateCatalog, InternIsIdempotent)
{
    TemplateCatalog catalog;
    TemplateId a = catalog.intern("nova-api", "Accepted <ip>");
    TemplateId b = catalog.intern("nova-api", "Accepted <ip>");
    EXPECT_EQ(a, b);
    EXPECT_EQ(catalog.size(), 1u);
}

TEST(TemplateCatalog, ServiceDisambiguates)
{
    TemplateCatalog catalog;
    TemplateId a = catalog.intern("nova-api", "same text");
    TemplateId b = catalog.intern("keystone", "same text");
    EXPECT_NE(a, b);
    EXPECT_EQ(catalog.service(a), "nova-api");
    EXPECT_EQ(catalog.service(b), "keystone");
}

TEST(TemplateCatalog, FindWithoutIntern)
{
    TemplateCatalog catalog;
    EXPECT_EQ(catalog.find("svc", "missing"), kInvalidTemplate);
    TemplateId a = catalog.intern("svc", "present");
    EXPECT_EQ(catalog.find("svc", "present"), a);
}

TEST(TemplateCatalog, LabelFormat)
{
    TemplateCatalog catalog;
    TemplateId a = catalog.intern("glance", "GET <uuid>");
    EXPECT_EQ(catalog.label(a), "glance: GET <uuid>");
    EXPECT_EQ(catalog.text(a), "GET <uuid>");
}

TEST(LogCodec, RoundTrip)
{
    LogRecord record;
    record.id = 7;
    record.timestamp = 3661.25;
    record.node = "compute-2";
    record.service = "nova-compute";
    record.level = LogLevel::Info;
    record.body = "Starting instance "
                  "01234567-89ab-cdef-0123-456789abcdef";
    record.truthExecution = 99;
    record.truthTask = "boot";

    std::string line = encodeLogLine(record);
    auto decoded = decodeLogLine(line);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_NEAR(decoded->timestamp, record.timestamp, 0.0015);
    EXPECT_EQ(decoded->node, record.node);
    EXPECT_EQ(decoded->service, record.service);
    EXPECT_EQ(decoded->level, record.level);
    EXPECT_EQ(decoded->body, record.body);
}

TEST(LogCodec, GroundTruthDoesNotSurviveTheWire)
{
    LogRecord record;
    record.timestamp = 1.0;
    record.node = "controller";
    record.service = "nova-api";
    record.level = LogLevel::Error;
    record.body = "boom";
    record.truthExecution = 123;
    record.truthTask = "boot";

    auto decoded = decodeLogLine(encodeLogLine(record));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->truthExecution, 0u);
    EXPECT_TRUE(decoded->truthTask.empty());
}

TEST(LogCodec, RejectsMalformedLines)
{
    EXPECT_FALSE(decodeLogLine("").has_value());
    EXPECT_FALSE(decodeLogLine("garbage").has_value());
    EXPECT_FALSE(decodeLogLine("2016-01-12 00:00:00.000 node").has_value());
    EXPECT_FALSE(
        decodeLogLine("2016-01-12 00:00:00.000 node svc NOPE body")
            .has_value());
    // Missing body.
    EXPECT_FALSE(
        decodeLogLine("2016-01-12 00:00:00.000 node svc INFO")
            .has_value());
}

TEST(LogCodec, BodyMayContainExtraSpaces)
{
    auto decoded = decodeLogLine(
        "2016-01-12 00:00:01.000 controller nova-api INFO a  b   c");
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->body, "a  b   c");
}

// --- reused-scratch cores vs the owning wrappers --------------------------

namespace {

/**
 * Wire lines of a seeded simulator run plus hand-written edge cases,
 * followed by seeded truncations, byte flips and splices of them. The
 * mutants interleave long and short lines, so a scratch that kept
 * bytes of a longer previous line would show.
 */
std::vector<std::string>
wireCorpus()
{
    std::vector<std::string> lines = {
        "2016-01-12 00:00:01.000 controller nova-api INFO a  b   c",
        "2016-01-12\t00:00:01.000   compute-1 nova-compute ERROR boom",
        "2016-01-12 00:00:00.000 node svc INFO",
        "2016-01-12 00:00:00.000 node svc NOPE body",
        "2016-01-12 00:00:00.000 node",
        "2017-01-12 00:00:00.000 node svc INFO body",
        "2016-01-12 00:00:00.000",
        "garbage",
        "",
        "   ",
    };
    cloudseer::sim::Simulation simulation(cloudseer::sim::SimConfig{}, 11);
    cloudseer::workload::WorkloadConfig workload;
    workload.users = 2;
    workload.tasksPerUser = 4;
    workload.seed = 11;
    cloudseer::workload::WorkloadGenerator(workload).submitAll(simulation);
    simulation.run();
    for (const LogRecord &record : simulation.records())
        lines.push_back(encodeLogLine(record));

    cloudseer::common::Rng rng(2016);
    const std::size_t golden = lines.size();
    for (int round = 0; round < 4000; ++round) {
        std::string line =
            lines[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(golden) - 1))];
        switch (rng.uniformInt(0, 2)) {
          case 0: // truncate
            line.resize(static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(line.size()))));
            break;
          case 1: // flip bytes
            for (int flips = rng.uniformInt(1, 3);
                 flips > 0 && !line.empty(); --flips) {
                std::size_t at = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(line.size()) - 1));
                line[at] = static_cast<char>(rng.uniformInt(0, 255));
            }
            break;
          default: { // splice the head of one onto the tail of another
            const std::string &other =
                lines[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(golden) - 1))];
            std::size_t cut = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(line.size())));
            std::size_t from = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(other.size())));
            line = line.substr(0, cut) + other.substr(from);
            break;
          }
        }
        lines.push_back(std::move(line));
    }
    return lines;
}

void
expectSameRecord(const LogRecord &reused, const LogRecord &fresh)
{
    EXPECT_EQ(reused.id, fresh.id);
    EXPECT_EQ(std::memcmp(&reused.timestamp, &fresh.timestamp,
                          sizeof(reused.timestamp)),
              0);
    EXPECT_EQ(reused.node, fresh.node);
    EXPECT_EQ(reused.service, fresh.service);
    EXPECT_EQ(reused.level, fresh.level);
    EXPECT_EQ(reused.body, fresh.body);
    EXPECT_EQ(reused.truthExecution, fresh.truthExecution);
    EXPECT_EQ(reused.truthTask, fresh.truthTask);
}

} // namespace

TEST(ScratchCores, DecodeIntoReusedRecordMatchesFreshDecode)
{
    const std::vector<std::string> corpus = wireCorpus();
    LogRecord reused;
    // Ground truth a reused record may carry in from elsewhere must
    // not survive a decode either.
    reused.id = 99;
    reused.truthExecution = 7;
    reused.truthTask = "boot";
    std::size_t decoded = 0;
    for (const std::string &line : corpus) {
        DecodeFailure fresh_why = DecodeFailure::None;
        DecodeFailure reused_why = DecodeFailure::BadHeader;
        std::optional<LogRecord> fresh = decodeLogLine(line, &fresh_why);
        bool ok = decodeLogLineInto(line, reused, &reused_why);
        ASSERT_EQ(ok, fresh.has_value()) << line;
        EXPECT_EQ(reused_why, fresh_why) << line;
        if (ok) {
            ++decoded;
            expectSameRecord(reused, *fresh);
        }
    }
    // The corpus must exercise both outcomes.
    EXPECT_GT(decoded, corpus.size() / 4);
    EXPECT_LT(decoded, corpus.size());
}

TEST(ScratchCores, ParseIntoReusedScratchMatchesParse)
{
    const std::vector<std::string> corpus = wireCorpus();
    ParsedBody reused;
    std::size_t with_variables = 0;
    for (const std::string &line : corpus) {
        // Raw lines and decoded bodies: the scanner takes any bytes.
        std::vector<std::string> inputs = {line};
        if (std::optional<LogRecord> record = decodeLogLine(line))
            inputs.push_back(record->body);
        for (const std::string &body : inputs) {
            ParsedBody fresh = kExtractor.parse(body);
            kExtractor.parseInto(body, reused);
            ASSERT_EQ(reused.templateText, fresh.templateText) << body;
            ASSERT_EQ(reused.variables, fresh.variables) << body;
            with_variables += fresh.variables.empty() ? 0 : 1;
        }
    }
    EXPECT_GT(with_variables, corpus.size() / 4);
}

// --- the word-at-a-time front end vs the <cctype> code it replaced -------

namespace {

/** Bytes a mutation writes: the ones the scanner's classes turn on. */
char
scannerByte(cloudseer::common::Rng &rng)
{
    static const char kPool[] = "0123456789abcdefABCDEFgzGZ.-:/_ ";
    switch (rng.uniformInt(0, 3)) {
      case 0: // a byte >= 0x80: in no class under the "C" locale
        return static_cast<char>(rng.uniformInt(0x80, 0xff));
      case 1: // any byte at all
        return static_cast<char>(rng.uniformInt(0, 255));
      default:
        return kPool[rng.uniformInt(0, sizeof(kPool) - 2)];
    }
}

/**
 * Simulator bodies, hand-written edge cases around every match rule,
 * and at least 4,000 seeded mutants of them: digit/hex/'.'/'-' flips,
 * high bytes, splices and truncations.
 */
std::vector<std::string>
scannerCorpus()
{
    std::vector<std::string> bodies = {
        "",
        "1.2.3.4abc",
        "1.2.3.4.5",
        "x.1.2.3.4 y",
        "256.1.1.1",
        "1234.5.6.7",
        "01.002.3.255",
        "v2 eth0 42 42x x42",
        "12345678-1234-1234-1234-123456789abc",
        "12345678-1234-1234-1234-123456789ABCdef",
        "12345678-1234-1234-1234-123456789abc-",
        "12345678-1234-1234-1234-123456789ab",
        "g2345678-1234-1234-1234-123456789abc",
        "a12345678-1234-1234-1234-123456789abc",
        "-12345678-1234-1234-1234-123456789abc.",
        "\x80" "12 \xff" "1.2.3.4 \xe9" "abc 7\xc3\xa9",
        "req-12345678-1234-1234-1234-123456789abc done",
        "dead beef 10.0.0.1:8774 /v2/9 200 0.123",
    };
    cloudseer::sim::Simulation simulation(cloudseer::sim::SimConfig{}, 17);
    cloudseer::workload::WorkloadConfig workload;
    workload.users = 2;
    workload.tasksPerUser = 4;
    workload.seed = 17;
    cloudseer::workload::WorkloadGenerator(workload).submitAll(simulation);
    simulation.run();
    for (const LogRecord &record : simulation.records())
        bodies.push_back(record.body);

    cloudseer::common::Rng rng(4242);
    const int golden = static_cast<int>(bodies.size());
    for (int round = 0; round < 6000; ++round) {
        std::string body = bodies[static_cast<std::size_t>(
            rng.uniformInt(0, golden - 1))];
        switch (rng.uniformInt(0, 3)) {
          case 0: // truncate
            body.resize(static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(body.size()))));
            break;
          case 1: // flip bytes
          case 2:
            for (int flips = rng.uniformInt(1, 4);
                 flips > 0 && !body.empty(); --flips) {
                body[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(body.size()) - 1))] =
                    scannerByte(rng);
            }
            break;
          default: { // splice the head of one onto the tail of another
            const std::string &other = bodies[static_cast<std::size_t>(
                rng.uniformInt(0, golden - 1))];
            std::size_t cut = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(body.size())));
            std::size_t from = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(other.size())));
            body = body.substr(0, cut) + other.substr(from);
            break;
          }
        }
        bodies.push_back(std::move(body));
    }
    return bodies;
}

} // namespace

TEST(FrontEnd, ScannerMatchesCctypeReference)
{
    const std::vector<std::string> corpus = scannerCorpus();
    ASSERT_GE(corpus.size(), 4000u);
    ParsedBody reused;
    std::size_t uuids = 0, ips = 0, numbers = 0;
    for (const std::string &body : corpus) {
        ParsedBody expected = reference::parse(body);
        kExtractor.parseInto(body, reused);
        ASSERT_EQ(reused.templateText, expected.templateText) << body;
        ASSERT_EQ(reused.variables, expected.variables) << body;
        for (const Variable &var : expected.variables) {
            uuids += var.kind == VariableKind::Uuid ? 1 : 0;
            ips += var.kind == VariableKind::Ip ? 1 : 0;
            numbers += var.kind == VariableKind::Number ? 1 : 0;
        }
    }
    // Every variable kind is exercised, not just one.
    EXPECT_GT(uuids, 1000u);
    EXPECT_GT(ips, 100u);
    EXPECT_GT(numbers, 100u);
}

TEST(FrontEnd, DecodeMatchesIsspaceReferenceFieldByField)
{
    std::vector<std::string> corpus = wireCorpus();
    // Every C-locale whitespace byte as a separator, plus look-alikes
    // that are not whitespace there (0x85 NEL, 0xa0 NBSP).
    static const char kGaps[] = {' ', '\t', '\n', '\v', '\f', '\r',
                                 '\x85', '\xa0', '\x1c'};
    cloudseer::common::Rng rng(77);
    const std::size_t golden = corpus.size();
    for (int round = 0; round < 4000; ++round) {
        std::string line = corpus[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(golden) - 1))];
        for (char &c : line) {
            if ((c == ' ' || c == '\t') && rng.chance(0.5))
                c = kGaps[rng.uniformInt(0, sizeof(kGaps) - 1)];
        }
        if (rng.chance(0.3)) {
            std::size_t at = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(line.size())));
            line.insert(at, static_cast<std::size_t>(rng.uniformInt(1, 3)),
                        kGaps[rng.uniformInt(0, 5)]);
        }
        corpus.push_back(std::move(line));
    }

    LogRecord got;
    std::size_t decoded = 0;
    for (const std::string &line : corpus) {
        LogRecord expected;
        DecodeFailure expected_why = reference::decode(line, expected);
        DecodeFailure why = DecodeFailure::BadHeader;
        bool ok = decodeLogLineInto(line, got, &why);
        ASSERT_EQ(why, expected_why) << line;
        ASSERT_EQ(ok, expected_why == DecodeFailure::None) << line;
        if (!ok)
            continue;
        ++decoded;
        EXPECT_EQ(std::memcmp(&got.timestamp, &expected.timestamp,
                              sizeof(got.timestamp)),
                  0)
            << line;
        EXPECT_EQ(got.node, expected.node) << line;
        EXPECT_EQ(got.service, expected.service) << line;
        EXPECT_EQ(got.level, expected.level) << line;
        EXPECT_EQ(got.body, expected.body) << line;
    }
    EXPECT_GT(decoded, corpus.size() / 4);
    EXPECT_LT(decoded, corpus.size());
}

TEST(FrontEnd, CatalogIdsFollowInsertionOrder)
{
    // Services and texts that share bytes, swap roles, hold the old
    // joined key's separator, and repeat.
    std::vector<std::pair<std::string, std::string>> pairs;
    cloudseer::common::Rng rng(5);
    static const char *kServices[] = {"nova-api", "nova-compute", "glance",
                                      "keystone", "", "a\x1f" "b"};
    for (int i = 0; i < 3000; ++i) {
        std::string service = kServices[rng.uniformInt(0, 5)];
        std::string text = "step <uuid> " +
                           std::to_string(rng.uniformInt(0, 400));
        if (rng.chance(0.1))
            std::swap(service, text);
        pairs.emplace_back(std::move(service), std::move(text));
    }
    TemplateCatalog catalog;
    std::vector<std::pair<std::string, std::string>> order;
    for (const auto &[service, text] : pairs) {
        TemplateId expected = kInvalidTemplate;
        for (std::size_t i = 0; i < order.size(); ++i) {
            if (order[i].first == service && order[i].second == text)
                expected = static_cast<TemplateId>(i);
        }
        EXPECT_EQ(catalog.find(service, text), expected);
        if (expected == kInvalidTemplate) {
            expected = static_cast<TemplateId>(order.size());
            order.emplace_back(service, text);
        }
        ASSERT_EQ(catalog.intern(service, text), expected);
    }
    ASSERT_EQ(catalog.size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        TemplateId id = static_cast<TemplateId>(i);
        EXPECT_EQ(catalog.service(id), order[i].first);
        EXPECT_EQ(catalog.text(id), order[i].second);
        EXPECT_EQ(catalog.find(order[i].first, order[i].second), id);
    }
    // Fields are compared whole, never as one joined string.
    EXPECT_NE(catalog.intern("a", "b\x1f" "c"),
              catalog.intern("a\x1f" "b", "c"));
    // A copy answers like the original.
    TemplateCatalog copy = catalog;
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(copy.find(order[i].first, order[i].second), i);
}

// --- the word-at-a-time kernels at every word and block offset -----------

namespace {

using fixture::ExactCopy;

/** A body with its bytes escaped, for failure messages. */
std::string
printable(std::string_view bytes)
{
    std::string out;
    for (char c : bytes) {
        unsigned char b = static_cast<unsigned char>(c);
        if (b >= 0x20 && b < 0x7f && c != '\\') {
            out += c;
        } else {
            char hex[8];
            std::snprintf(hex, sizeof(hex), "\\x%02x", b);
            out += hex;
        }
    }
    return out;
}

/**
 * Variables of every kind and shape, near misses of each, and
 * alphanumeric runs around the 8- and 16-byte word lengths: upper-case
 * hex, NUL and bytes >= 0x80 inside tokens included.
 */
std::vector<std::string>
boundaryTokens()
{
    using namespace std::string_literals;
    std::vector<std::string> tokens = {
        "01234567-89ab-cdef-0123-456789abcdef",
        "0123ABCD-89AB-CDEF-0123-456789ABCDEF",
        "a1B2c3D4-e5F6-a7B8-c9D0-e1F2a3B4c5D6",
        "01234567-89ab-cdef-0123-456789abcde", // 35 bytes
        "01234567-89ab-cdef-0123-456789abcdef0",
        "01234567-89ab-cdef-0123-456789abcdef-",
        "01234567-89ab-cdef-0123_456789abcdef",
        "01234567-89ab-cdeg-0123-456789abcdef",
        "0123456789ab-cdef-0123-456789abcdef-",
        "01234567-89ab-cd\0f-0123-456789abcdef"s,
        "01234567-89ab-cd\x80" "f-0123-456789abcdef",
        "01234567-89ab-cdef-0123-456789abcde\xe6",
        "10.0.12.34",
        "255.255.255.255",
        "256.1.1.1",
        "1.2.3.4",
        "1.2.3.4.5",
        "1.2.3",
        "1.2.3.4abc",
        "1.2.3.4-5",
        "01.002.3.255",
        "1234.5.6.7",
        "7",
        "42",
        "1234567890123456789012",
        "42x",
        "0x1F",
        "9\x80",
        "12\0" "34"s,
        "abc123def",
        "deadbeefcafe",
        "DEADBEEF",
        "x9",
        "eth0",
        "Zz09",
        "\xe9" "abc",
        "ab\xff" "cd",
    };
    for (std::size_t n : {1, 7, 8, 9, 15, 16, 17, 24}) {
        tokens.push_back(std::string(n, 'g')); // a non-hex run
        tokens.push_back(std::string(n, 'e')); // a hex-letter run
        tokens.push_back(std::string(n, '5')); // a digit run
    }
    return tokens;
}

/** Bytes placed before and after a token, from none to 16 of them. */
const char kFillers[] = {' ', '.', '-', 'a', 'Z', '0', '\x80', '\0', '/',
                         ':'};

} // namespace

TEST(FrontEnd, ScannerMatchesReferenceAtEveryWordOffset)
{
    const std::vector<std::string> tokens = boundaryTokens();
    ParsedBody got;
    std::size_t bodies = 0, uuids = 0, ips = 0, numbers = 0;
    auto check = [&](const std::string &body) {
        // An exact-size block: a read past the view is an ASan report.
        ExactCopy copy(body);
        ParsedBody expected = reference::parse(copy.view());
        kExtractor.parseInto(copy.view(), got);
        ASSERT_EQ(got.templateText, expected.templateText)
            << printable(body);
        ASSERT_EQ(got.variables, expected.variables) << printable(body);
        ++bodies;
        for (const Variable &var : expected.variables) {
            uuids += var.kind == VariableKind::Uuid ? 1 : 0;
            ips += var.kind == VariableKind::Ip ? 1 : 0;
            numbers += var.kind == VariableKind::Number ? 1 : 0;
        }
    };
    // Each token starts and ends at every offset mod 8 and mod 16, with
    // every filler before it, and the view ends on its last byte or up
    // to 16 bytes later.
    std::size_t round = 0;
    for (const std::string &token : tokens) {
        for (char before : kFillers) {
            for (std::size_t lead = 0; lead <= 16; ++lead) {
                for (std::size_t trail = 0; trail <= 16; ++trail) {
                    char after = kFillers[round++ % sizeof(kFillers)];
                    check(std::string(lead, before) + token +
                          std::string(trail, after));
                    if (testing::Test::HasFatalFailure())
                        return;
                }
            }
        }
    }
    // Two tokens with every short gap between them: a position right
    // after a variable may start the next one.
    for (const std::string &first : tokens) {
        for (const std::string &second : tokens) {
            for (std::size_t gap = 0; gap <= 2; ++gap) {
                char between = kFillers[round++ % sizeof(kFillers)];
                check(first + std::string(gap, between) + second);
                if (testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
    std::printf("bodies %zu: uuids %zu, ips %zu, numbers %zu\n", bodies,
                uuids, ips, numbers);
    EXPECT_GT(bodies, 150000u);
    EXPECT_GT(uuids, 4000u);
    EXPECT_GT(ips, 4000u);
    EXPECT_GT(numbers, 40000u);
}

TEST(FrontEnd, UuidAtTheEndOfTheView)
{
    const std::string uuid = "01234567-89ab-cdef-0123-456789abcdef";
    for (std::size_t lead = 0; lead <= 16; ++lead) {
        const std::string prefix = "id " + std::string(lead, ' ');
        // Ending on the last byte of the view.
        ExactCopy whole(prefix + uuid);
        ParsedBody parsed;
        kExtractor.parseInto(whole.view(), parsed);
        ASSERT_EQ(parsed.variables.size(), 1u) << lead;
        EXPECT_EQ(parsed.variables[0].kind, VariableKind::Uuid);
        EXPECT_EQ(parsed.variables[0].text, uuid);
        EXPECT_EQ(parsed.templateText, prefix + "<uuid>");
        // 35 bytes of one, cut off by the end of the view: no UUID,
        // and the same split as the reference's.
        ExactCopy partial(prefix + uuid.substr(0, 35));
        kExtractor.parseInto(partial.view(), parsed);
        ParsedBody expected = reference::parse(partial.view());
        EXPECT_EQ(parsed.templateText, expected.templateText) << lead;
        EXPECT_EQ(parsed.variables, expected.variables) << lead;
        for (const Variable &var : parsed.variables)
            EXPECT_NE(var.kind, VariableKind::Uuid) << lead;
    }
}

TEST(FrontEnd, DecoderMatchesReferenceForEveryGapByteAndOffset)
{
    // Every C-locale whitespace byte, then bytes that are not
    // whitespace there (NEL, NBSP, a separator control, NUL).
    static const char kGaps[] = {' ',    '\t',   '\n',   '\v',  '\f',
                                 '\r',   '\x85', '\xa0', '\x1c', '\0'};
    LogRecord got;
    std::size_t lines = 0, decoded = 0;
    auto check = [&](std::string_view line) {
        ExactCopy copy(line);
        LogRecord expected;
        DecodeFailure expected_why =
            reference::decode(copy.view(), expected);
        DecodeFailure why = DecodeFailure::BadHeader;
        bool ok = decodeLogLineInto(copy.view(), got, &why);
        ++lines;
        ASSERT_EQ(why, expected_why) << printable(line);
        ASSERT_EQ(ok, expected_why == DecodeFailure::None)
            << printable(line);
        if (!ok)
            return;
        ++decoded;
        EXPECT_EQ(std::memcmp(&got.timestamp, &expected.timestamp,
                              sizeof(got.timestamp)),
                  0)
            << printable(line);
        EXPECT_EQ(got.node, expected.node) << printable(line);
        EXPECT_EQ(got.service, expected.service) << printable(line);
        EXPECT_EQ(got.level, expected.level) << printable(line);
        EXPECT_EQ(got.body, expected.body) << printable(line);
    };
    // Gap 0 leads the line; gaps 1-5 follow the date, the time, the
    // node, the service and the level. Node names of 1 to 9 bytes move
    // every later field across the word boundaries.
    for (char gap_byte : kGaps) {
        for (int gap = 0; gap <= 5; ++gap) {
            for (std::size_t width = 1; width <= 9; ++width) {
                for (std::size_t node = 1; node <= 9; ++node) {
                    const std::string fields[] = {
                        "2016-01-12", "00:00:01.250",
                        std::string(node, 'n'), "nova-api", "INFO",
                        "body 42"};
                    std::string line;
                    if (gap == 0)
                        line.append(width, gap_byte);
                    for (int f = 0; f < 6; ++f) {
                        if (f > 0) {
                            if (f == gap)
                                line.append(width, gap_byte);
                            else
                                line += ' ';
                        }
                        line += fields[f];
                    }
                    check(line);
                    if (testing::Test::HasFatalFailure())
                        return;
                    // Every prefix: the view ends at each offset.
                    if (width > 2)
                        continue;
                    for (std::size_t cut = 0; cut < line.size(); ++cut) {
                        check(std::string_view(line).substr(0, cut));
                        if (testing::Test::HasFatalFailure())
                            return;
                    }
                }
            }
        }
    }
    EXPECT_GT(decoded, 1000u);
    EXPECT_GT(lines - decoded, 1000u);
}

TEST(TemplateCatalog, FlatIndexFindsEveryPairAcrossGrowths)
{
    // The same text under two services, and texts of every length
    // around the hash's word size, across nine doublings of the index.
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 6000; ++i) {
        std::string service = i % 2 == 0 ? "nova-api" : "nova-compute";
        std::string text = "step " + std::string(static_cast<std::size_t>(
                                                     (i / 2) % 23),
                                                 'x') +
                           " <uuid> " + std::to_string(i / 2);
        pairs.emplace_back(std::move(service), std::move(text));
    }
    TemplateCatalog catalog;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto &[service, text] = pairs[i];
        ASSERT_EQ(catalog.find(service, text), kInvalidTemplate) << i;
        ASSERT_EQ(catalog.intern(service, text),
                  static_cast<TemplateId>(i));
        // Right after each growth, every earlier pair is still found.
        if ((i & (i + 1)) == 0 || i % 1000 == 0) {
            for (std::size_t j = 0; j <= i; ++j) {
                ASSERT_EQ(catalog.find(pairs[j].first, pairs[j].second),
                          static_cast<TemplateId>(j))
                    << i << " " << j;
            }
        }
    }
    ASSERT_EQ(catalog.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const TemplateId id = static_cast<TemplateId>(i);
        EXPECT_EQ(catalog.find(pairs[i].first, pairs[i].second), id);
        EXPECT_EQ(catalog.intern(pairs[i].first, pairs[i].second), id);
        EXPECT_EQ(catalog.service(id), pairs[i].first);
        EXPECT_EQ(catalog.text(id), pairs[i].second);
    }
    EXPECT_EQ(catalog.size(), pairs.size());

    // Unknown pairs: a new text, a known text under another service, a
    // prefix and an extension of a known text, and the empty pair.
    const std::string &first = pairs[0].second;
    EXPECT_EQ(catalog.find("nova-api", "step <uuid> 99999"),
              kInvalidTemplate);
    EXPECT_EQ(catalog.find("glance", first), kInvalidTemplate);
    EXPECT_EQ(catalog.find("nova-api", first.substr(0, first.size() - 1)),
              kInvalidTemplate);
    EXPECT_EQ(catalog.find("nova-api", first + " "), kInvalidTemplate);
    EXPECT_EQ(catalog.find("", ""), kInvalidTemplate);
    const TemplateId empty = catalog.intern("", "");
    EXPECT_EQ(empty, static_cast<TemplateId>(pairs.size()));
    EXPECT_EQ(catalog.find("", ""), empty);
}
