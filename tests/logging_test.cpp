/**
 * @file
 * Unit tests for the logging substrate: variable extraction, template
 * interning, and log-line (de)serialisation.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "logging/log_codec.hpp"
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
