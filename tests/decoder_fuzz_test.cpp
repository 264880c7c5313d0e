/**
 * @file
 * Seeded mutation fuzzer for the wire front end: the decodeLogLineInto
 * target of ROADMAP item 1, with the scanner and the catalog lookup
 * that follow it on WorkflowMonitor::feedLine's path.
 *
 * Golden wire lines come from a Table 3 group-6 stream (the table6
 * workload's shape) and from the same kind of stream through the
 * transport perturber (drops, duplicates, truncation, corruption and
 * clock skew). Each mutant flips, truncates, splices, inserts, deletes
 * or duplicates bytes of them, or swaps one whitespace byte for
 * another. It is copied into a heap block of exactly its size, so an
 * over-read is an AddressSanitizer report, and run through
 * decodeLogLineInto, then VariableExtractor::parseInto, then
 * TemplateCatalog::find. Each step is compared with its reference:
 * the decoder and scanner as they stood before the byte-class table
 * (frontend_reference.hpp) and a std::map over the catalog's pairs.
 *
 * There is no fuzzing library to link, so the mutator is written out
 * here. The budget is a fixed number of mutants per seed, so every run
 * is the same. The first failing input is written, byte for byte, to a
 * reproducer file in the working directory, named in the failure.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "collect/stream_merger.hpp"
#include "collect/stream_perturber.hpp"
#include "common/rng.hpp"
#include "frontend_reference.hpp"
#include "logging/log_codec.hpp"
#include "logging/template_catalog.hpp"
#include "logging/variable_extractor.hpp"
#include "sim/simulation.hpp"
#include "workload/workload_generator.hpp"

namespace {

using namespace cloudseer;
using logging::DecodeFailure;
using logging::LogRecord;
using logging::ParsedBody;
using logging::TemplateCatalog;
using logging::TemplateId;

/** Mutants per seed. */
constexpr int kMutantsPerSeed = 20000;

/** Records of a seeded Table 3 group-6 run, in collector order. */
std::vector<LogRecord>
table6Records(std::uint64_t seed)
{
    sim::Simulation simulation(sim::SimConfig{}, seed);
    workload::WorkloadConfig traffic;
    traffic.users = 4;
    traffic.singleUid = true;
    traffic.tasksPerUser = 12;
    traffic.seed = seed;
    workload::WorkloadGenerator(traffic).submitAll(simulation);
    simulation.run();
    collect::ShippingConfig shipping;
    shipping.seed = seed;
    return collect::mergeStream(simulation.records(), shipping);
}

/** table6-shaped wire lines, then the same traffic perturbed. */
std::vector<std::string>
goldenLines()
{
    std::vector<std::string> lines;
    for (const LogRecord &record : table6Records(29))
        lines.push_back(logging::encodeLogLine(record));
    collect::PerturbationConfig adversity;
    adversity.dropProbability = 0.02;
    adversity.duplicateProbability = 0.02;
    adversity.truncateProbability = 0.05;
    adversity.corruptProbability = 0.05;
    adversity.clockSkewMaxSeconds = 0.5;
    adversity.seed = 7;
    for (std::string &line :
         collect::StreamPerturber(adversity).apply(table6Records(7)).lines)
        lines.push_back(std::move(line));
    return lines;
}

/** A byte biased towards the ones the kernels classify. */
char
mutantByte(common::Rng &rng)
{
    static const char kPool[] =
        " \t\n\v\f\r-.:/_0123456789abcdefABCDEFgzGZ";
    switch (rng.uniformInt(0, 5)) {
      case 0: // >= 0x80: in no class under the "C" locale
        return static_cast<char>(rng.uniformInt(0x80, 0xff));
      case 1: // any byte at all, NUL included
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

/** One to three mutations of a golden line. */
std::string
mutate(const std::vector<std::string> &golden, common::Rng &rng)
{
    const int last = static_cast<int>(golden.size()) - 1;
    std::string line = golden[static_cast<std::size_t>(
        rng.uniformInt(0, last))];
    for (int steps = rng.uniformInt(1, 3); steps > 0; --steps) {
        switch (rng.uniformInt(0, 6)) {
          case 0: // flip bytes
            for (int flips = rng.uniformInt(1, 4);
                 flips > 0 && !line.empty(); --flips) {
                line[position(rng, line.size() - 1)] = mutantByte(rng);
            }
            break;
          case 1: // truncate
            line.resize(position(rng, line.size()));
            break;
          case 2: { // splice the head of one onto the tail of another
            const std::string &other = golden[static_cast<std::size_t>(
                rng.uniformInt(0, last))];
            line = line.substr(0, position(rng, line.size())) +
                   other.substr(position(rng, other.size()));
            break;
          }
          case 3: { // insert a run of bytes
            std::string run;
            for (int n = rng.uniformInt(1, 8); n > 0; --n)
                run += mutantByte(rng);
            line.insert(position(rng, line.size()), run);
            break;
          }
          case 4: { // delete a range
            std::size_t at = position(rng, line.size());
            line.erase(at, position(rng, std::min<std::size_t>(
                                             16, line.size() - at)));
            break;
          }
          case 5: { // duplicate a range elsewhere
            std::size_t at = position(rng, line.size());
            std::string chunk = line.substr(
                at, position(rng, std::min<std::size_t>(
                                      40, line.size() - at)));
            line.insert(position(rng, line.size()), chunk);
            break;
          }
          default: // one whitespace byte for another
            for (char &c : line) {
                if (c == ' ' && rng.chance(0.3)) {
                    static const char kSpaces[] = " \t\n\v\f\r";
                    c = kSpaces[rng.uniformInt(0, 5)];
                }
            }
            break;
        }
    }
    return line;
}

/** Write a failing input where the failure message says it is. */
std::string
writeReproducer(std::string_view bytes, std::uint64_t seed, int mutant)
{
    const std::string path = "decoder_fuzz_repro_" + std::to_string(seed) +
                             "_" + std::to_string(mutant) + ".bin";
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
}

/** What went differently from the references, or empty. */
std::string
compare(std::string_view line, const TemplateCatalog &catalog,
        const std::map<std::pair<std::string, std::string>, TemplateId>
            &expected_ids,
        LogRecord &record, ParsedBody &parsed, std::size_t &decoded,
        std::size_t &found)
{
    const logging::VariableExtractor extractor;
    LogRecord expected;
    const DecodeFailure expected_why = reference::decode(line, expected);
    DecodeFailure why = DecodeFailure::BadHeader;
    const bool ok = logging::decodeLogLineInto(line, record, &why);
    if (why != expected_why || ok != (expected_why == DecodeFailure::None))
        return "decode outcome";
    std::string_view body = line; // the scanner takes any bytes
    if (ok) {
        ++decoded;
        if (std::memcmp(&record.timestamp, &expected.timestamp,
                        sizeof(record.timestamp)) != 0 ||
            record.node != expected.node ||
            record.service != expected.service ||
            record.level != expected.level ||
            record.body != expected.body) {
            return "decoded fields";
        }
        body = record.body;
    }
    extractor.parseInto(body, parsed);
    const ParsedBody expected_parse = reference::parse(body);
    if (parsed.templateText != expected_parse.templateText ||
        parsed.variables != expected_parse.variables) {
        return "parsed body";
    }
    if (!ok)
        return {};
    auto it = expected_ids.find({record.service, parsed.templateText});
    const TemplateId expected_id =
        it == expected_ids.end() ? logging::kInvalidTemplate : it->second;
    if (catalog.find(record.service, parsed.templateText) != expected_id)
        return "catalog lookup";
    found += expected_id != logging::kInvalidTemplate ? 1 : 0;
    return {};
}

} // namespace

TEST(DecoderFuzz, MutantsMatchTheReferences)
{
    const std::vector<std::string> golden = goldenLines();
    ASSERT_GT(golden.size(), 1000u);

    // The catalog a monitor would look up: every golden line's
    // template, interned in stream order.
    TemplateCatalog catalog;
    std::map<std::pair<std::string, std::string>, TemplateId> expected_ids;
    for (const std::string &line : golden) {
        LogRecord record;
        if (reference::decode(line, record) != DecodeFailure::None)
            continue;
        const std::string text = reference::parse(record.body).templateText;
        const TemplateId id = catalog.intern(record.service, text);
        expected_ids.emplace(std::make_pair(record.service, text), id);
    }
    ASSERT_GT(catalog.size(), 20u);

    LogRecord record;
    ParsedBody parsed;
    std::size_t decoded = 0, found = 0;
    for (std::uint64_t seed : {2016u, 29u}) {
        common::Rng rng(seed);
        for (int mutant = 0; mutant < kMutantsPerSeed; ++mutant) {
            const std::string line = mutate(golden, rng);
            const fixture::ExactCopy copy(line);
            const std::string failure = compare(copy.view(), catalog,
                                                expected_ids, record,
                                                parsed, decoded, found);
            if (!failure.empty()) {
                FAIL() << failure << " differs from the reference; input "
                       << "written to "
                       << writeReproducer(line, seed, mutant);
            }
        }
    }
    // Both outcomes, and catalog hits as well as misses, are exercised.
    const std::size_t total = 2 * kMutantsPerSeed;
    std::printf("mutants %zu, decoded %zu, catalog hits %zu\n", total,
                decoded, found);
    EXPECT_GT(decoded, total / 4);
    EXPECT_LT(decoded, total);
    EXPECT_GT(found, total / 50);
}
