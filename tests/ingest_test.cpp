/**
 * @file
 * Tests for the hardened monitor ingest pipeline: malformed-line
 * quarantine, the non-monotonic timestamp guard, near-duplicate
 * suppression, the reorder buffer, group-cap shedding, and the
 * bit-identical pass-through guarantee of the default configuration.
 * The dedup window and the reorder buffer are also held, decision by
 * decision and byte by byte, to verbatim copies of the containers they
 * replaced.
 */

#include <gtest/gtest.h>

#include <charconv>
#include <cstdio>
#include <functional>
#include <unordered_map>

#include "common/binio.hpp"
#include "common/head_queue.hpp"
#include "common/rng.hpp"
#include "core/monitor/ingest_guards.hpp"
#include "core/monitor/report_json.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "logging/log_codec.hpp"
#include "logging/record_binio.hpp"

using namespace cloudseer;
using namespace cloudseer::core;

namespace {

/** Fixture over the two-step ping/pong workflow from monitor_test. */
class IngestTest : public ::testing::Test
{
  protected:
    std::shared_ptr<logging::TemplateCatalog> catalog =
        std::make_shared<logging::TemplateCatalog>();
    logging::RecordId nextRecord = 1;

    std::unique_ptr<WorkflowMonitor>
    makeMonitor(const IngestConfig &ingest,
                double timeout_seconds = 10.0)
    {
        MonitorConfig config;
        config.timeoutSeconds = timeout_seconds;
        config.ingest = ingest;
        return std::make_unique<WorkflowMonitor>(config, catalog,
                                                 automata());
    }

    std::vector<TaskAutomaton>
    automata()
    {
        logging::TemplateId ping = catalog->intern("svc-a",
                                                   "ping <uuid>");
        logging::TemplateId pong = catalog->intern("svc-b",
                                                   "pong <uuid>");
        std::vector<EventNode> events = {{ping, 0}, {pong, 0}};
        std::vector<DependencyEdge> edges = {{0, 1, true}};
        std::vector<TaskAutomaton> out;
        out.emplace_back("ping-pong", std::move(events),
                         std::move(edges));
        return out;
    }

    logging::LogRecord
    record(const std::string &service, const std::string &body,
           double t, logging::LogLevel level = logging::LogLevel::Info)
    {
        logging::LogRecord out;
        out.id = nextRecord++;
        out.timestamp = t;
        out.node = "controller";
        out.service = service;
        out.level = level;
        out.body = body;
        return out;
    }

    static std::string
    uuid(int which)
    {
        char buf[48];
        std::snprintf(buf, sizeof buf,
                      "%08d-1111-2222-3333-444444444444", which);
        return buf;
    }

    logging::LogRecord
    ping(int which, double t)
    {
        return record("svc-a", "ping " + uuid(which), t);
    }

    logging::LogRecord
    pong(int which, double t)
    {
        return record("svc-b", "pong " + uuid(which), t);
    }
};

} // namespace

// --- Malformed-line quarantine ------------------------------------

TEST_F(IngestTest, MalformedLinesAreCountedByCause)
{
    auto monitor = makeMonitor(IngestConfig{});
    std::string good = logging::encodeLogLine(ping(1, 1.0));

    // Bad timestamp: the date tokens do not parse.
    std::string bad_stamp = good;
    bad_stamp.replace(0, 10, "XXXX-YY-ZZ");
    EXPECT_TRUE(monitor->feedLine(bad_stamp).empty());

    // Bad header: a level token that names no level.
    std::string bad_level =
        good.substr(0, good.find(" INFO ")) + " LOUD ping x";
    EXPECT_TRUE(monitor->feedLine(bad_level).empty());

    // Truncated payload: a clean timestamp with the tail cut off.
    std::string truncated = good.substr(0, good.find("svc-a") + 5);
    EXPECT_TRUE(monitor->feedLine(truncated).empty());

    const IngestStats &stats = monitor->ingestStats();
    EXPECT_EQ(stats.linesSeen, 3u);
    EXPECT_EQ(stats.malformedBadTimestamp, 1u);
    EXPECT_EQ(stats.malformedBadHeader, 1u);
    EXPECT_EQ(stats.malformedTruncatedPayload, 1u);
    EXPECT_EQ(stats.malformed(), 3u);
    EXPECT_EQ(monitor->malformedLines(), 3u);
    EXPECT_EQ(stats.recordsDelivered, 0u);

    // The quarantine retains the raw lines with their causes.
    ASSERT_EQ(monitor->quarantine().size(), 3u);
    EXPECT_EQ(monitor->quarantine()[0].line, bad_stamp);
    EXPECT_EQ(monitor->quarantine()[0].cause,
              logging::DecodeFailure::BadTimestamp);
    EXPECT_EQ(monitor->quarantine()[1].cause,
              logging::DecodeFailure::BadHeader);
    EXPECT_EQ(monitor->quarantine()[2].cause,
              logging::DecodeFailure::TruncatedPayload);
}

TEST_F(IngestTest, QuarantineSampleIsBounded)
{
    IngestConfig ingest;
    ingest.quarantineSampleCap = 2;
    auto monitor = makeMonitor(ingest);
    for (int i = 0; i < 5; ++i)
        monitor->feedLine("garbage line " + std::to_string(i));
    EXPECT_EQ(monitor->ingestStats().malformed(), 5u);
    EXPECT_EQ(monitor->quarantine().size(), 2u)
        << "counting is unbounded, retention is not";
}

TEST_F(IngestTest, TruncatedWireLineLandsInQuarantine)
{
    auto monitor = makeMonitor(IngestConfig{});
    std::string good = logging::encodeLogLine(ping(1, 1.0));
    // Cut inside the body: still parseable, so it is delivered (the
    // checker sees a mangled message, not the quarantine).
    std::string cut_body = good.substr(0, good.size() - 4);
    monitor->feedLine(cut_body);
    EXPECT_EQ(monitor->ingestStats().recordsDelivered, 1u);
    // Cut inside the header: quarantined as a truncation artefact.
    std::string cut_header = good.substr(0, 28);
    monitor->feedLine(cut_header);
    EXPECT_EQ(monitor->ingestStats().malformedTruncatedPayload, 1u);
}

// --- Non-monotonic timestamp guard --------------------------------

TEST_F(IngestTest, BackwardsStampMustNotRetroactivelyFireTimeout)
{
    // Regression: a record stamped far in the past used to plant its
    // group back at that stamp, so the very next sweep would "time
    // out" work that had been active for milliseconds.
    IngestConfig ingest;
    ingest.clampNonMonotonic = true;
    auto monitor = makeMonitor(ingest);

    monitor->feed(ping(1, 100.0));
    // Backwards by 95 s (for example a node whose NTP just stepped).
    EXPECT_TRUE(monitor->feed(ping(2, 5.0)).empty());
    EXPECT_EQ(monitor->ingestStats().nonMonotonicClamped, 1u);
    EXPECT_DOUBLE_EQ(monitor->ingestStats().maxRegressionSeconds,
                     95.0);

    // 5 s later (well under the 10 s timeout): neither group may
    // fire. Unclamped, the uuid(2) group would sit at t=5 and be 100 s
    // "old" already.
    auto reports = monitor->feed(ping(3, 105.0));
    EXPECT_TRUE(reports.empty())
        << "clamped group timed out retroactively";
    EXPECT_EQ(monitor->activeGroups(), 3u);

    // ... and the clamp must not *suppress* the criterion either: by
    // t=120 all three groups are genuinely stale.
    auto late = monitor->feed(record("svc-c", "noise", 120.0));
    EXPECT_EQ(late.size(), 3u);
    for (const MonitorReport &report : late)
        EXPECT_EQ(report.event.kind, CheckEventKind::Timeout);
}

TEST_F(IngestTest, UnclampedGuardCountsButDoesNotIntervene)
{
    // Default config: the hazard is visible (counted) but behavior is
    // exactly the unhardened path — the backwards group really does
    // fire retroactively.
    auto monitor = makeMonitor(IngestConfig{});
    monitor->feed(ping(1, 100.0));
    monitor->feed(ping(2, 5.0));
    EXPECT_EQ(monitor->ingestStats().nonMonotonicClamped, 1u);
    auto reports = monitor->feed(ping(3, 105.0));
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].event.kind, CheckEventKind::Timeout);
}

// --- Near-duplicate suppression -----------------------------------

TEST_F(IngestTest, DedupSuppressesExactRedeliveries)
{
    IngestConfig ingest;
    ingest.dedupWindowSeconds = 5.0;
    auto monitor = makeMonitor(ingest);

    logging::LogRecord first = ping(1, 1.0);
    monitor->feed(first);
    monitor->feed(first); // at-least-once shipper re-delivery
    EXPECT_EQ(monitor->ingestStats().duplicatesSuppressed, 1u);
    EXPECT_EQ(monitor->activeGroups(), 1u);

    auto reports = monitor->feed(pong(1, 2.0));
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].event.kind, CheckEventKind::Accepted);
    EXPECT_EQ(monitor->stats().accepted, 1u);
}

TEST_F(IngestTest, DedupSparesGenuineRepeats)
{
    IngestConfig ingest;
    ingest.dedupWindowSeconds = 5.0;
    auto monitor = makeMonitor(ingest);
    // Same template and identifier, different timestamps: a genuine
    // repeat, not a re-delivery.
    monitor->feed(ping(1, 1.0));
    monitor->feed(ping(1, 1.5));
    EXPECT_EQ(monitor->ingestStats().duplicatesSuppressed, 0u);
    EXPECT_EQ(monitor->ingestStats().recordsDelivered, 2u);
}

TEST_F(IngestTest, DedupWindowExpires)
{
    IngestConfig ingest;
    ingest.dedupWindowSeconds = 2.0;
    auto monitor = makeMonitor(ingest, 1000.0);
    logging::LogRecord first = ping(1, 1.0);
    monitor->feed(first);
    monitor->feed(record("svc-c", "noise", 10.0)); // advance the clock
    // The key expired with the window, so an identical record is
    // delivered again rather than suppressed.
    monitor->feed(first);
    EXPECT_EQ(monitor->ingestStats().duplicatesSuppressed, 0u);
    EXPECT_EQ(monitor->ingestStats().recordsDelivered, 3u);
}

// --- Reorder buffer -----------------------------------------------

TEST_F(IngestTest, ReorderBufferRepairsInversionWithinWindow)
{
    IngestConfig ingest;
    ingest.reorderWindowSeconds = 1.0;
    auto monitor = makeMonitor(ingest);

    std::vector<MonitorReport> reports;
    // Arrival order inverts the causal order by 0.1 s.
    for (auto r : monitor->feed(pong(1, 2.0)))
        reports.push_back(std::move(r));
    for (auto r : monitor->feed(ping(1, 1.9)))
        reports.push_back(std::move(r));
    // A later record moves the watermark past both.
    for (auto r : monitor->feed(record("svc-c", "noise", 5.0)))
        reports.push_back(std::move(r));
    for (auto r : monitor->finish())
        reports.push_back(std::move(r));

    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].event.kind, CheckEventKind::Accepted);
    EXPECT_EQ(monitor->stats().accepted, 1u);
    EXPECT_GE(monitor->ingestStats().reorderBufferPeak, 2u);
}

TEST_F(IngestTest, ReorderBufferOverflowForcesRelease)
{
    IngestConfig ingest;
    ingest.reorderWindowSeconds = 1000.0; // watermark never ripens
    ingest.reorderBufferCap = 2;
    auto monitor = makeMonitor(ingest, 1e6);
    for (int i = 0; i < 5; ++i)
        monitor->feed(ping(i + 1, 1.0 + 0.1 * i));
    EXPECT_EQ(monitor->ingestStats().forcedReleases, 3u);
    EXPECT_EQ(monitor->ingestStats().recordsDelivered, 3u);
    monitor->finish();
    EXPECT_EQ(monitor->ingestStats().recordsDelivered, 5u)
        << "finish must flush the buffer";
}

// --- Group-cap shedding -------------------------------------------

TEST_F(IngestTest, GroupCapShedsOldestAndEmitsDegraded)
{
    IngestConfig ingest;
    ingest.maxActiveGroups = 3;
    auto monitor = makeMonitor(ingest, 1000.0);

    std::vector<MonitorReport> degraded;
    for (int i = 0; i < 6; ++i) {
        for (auto r : monitor->feed(ping(i + 1, 1.0 + 0.1 * i))) {
            ASSERT_EQ(r.event.kind, CheckEventKind::Degraded);
            degraded.push_back(std::move(r));
        }
        EXPECT_LE(monitor->activeGroups(), 3u)
            << "cap exceeded after feeding ping " << i + 1;
    }
    // Every shed group is accounted for by exactly one Degraded
    // report.
    EXPECT_EQ(degraded.size(), 3u);
    EXPECT_EQ(monitor->ingestStats().groupsShed, 3u);
    EXPECT_EQ(monitor->stats().groupsShed, 3u);

    // The survivors are the youngest: their pongs still complete.
    std::size_t accepted = 0;
    for (int i = 3; i < 6; ++i) {
        for (auto &r : monitor->feed(pong(i + 1, 2.0 + 0.1 * i))) {
            if (r.event.kind == CheckEventKind::Accepted)
                ++accepted;
        }
    }
    EXPECT_EQ(accepted, 3u);
}

TEST_F(IngestTest, DegradedReportRendersAsHealthSignal)
{
    IngestConfig ingest;
    ingest.maxActiveGroups = 1;
    auto monitor = makeMonitor(ingest, 1000.0);
    monitor->feed(ping(1, 1.0));
    auto reports = monitor->feed(ping(2, 1.1));
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].event.kind, CheckEventKind::Degraded);
    std::string summary = reports[0].summary(monitor->catalog());
    EXPECT_NE(summary.find("DEGRADED"), std::string::npos);
    std::string json = reportToJson(reports[0], monitor->catalog());
    EXPECT_NE(json.find("\"kind\":\"DEGRADED\""), std::string::npos);
}

// --- Pass-through guarantee ---------------------------------------

TEST_F(IngestTest, CleanStreamReportsBitIdenticalAcrossProfiles)
{
    // Acceptance criterion: on a clean, timestamp-ordered stream the
    // hardened profile must produce exactly the report sequence of
    // the default (unhardened) path — every guard passes through.
    auto plain = makeMonitor(IngestConfig{});
    auto hardened = makeMonitor(hardenedIngestDefaults());

    std::vector<logging::LogRecord> stream;
    double t = 0.0;
    for (int i = 0; i < 60; ++i) {
        int id = i + 1;
        stream.push_back(ping(id, t += 0.05));
        if (i % 2 == 1) { // interleave: close two sequences together
            stream.push_back(pong(id - 1, t += 0.05));
            stream.push_back(pong(id, t += 0.05));
        }
        if (i % 7 == 0) // some sequences never finish -> timeouts
            stream.back().body = "unrelated chatter";
        if (i % 11 == 0)
            stream.push_back(record("svc-c", "noise", t += 0.05));
    }

    auto collect = [&](WorkflowMonitor &monitor) {
        std::vector<std::string> out;
        for (const logging::LogRecord &r : stream) {
            for (const MonitorReport &report : monitor.feed(r))
                out.push_back(reportToJson(report, monitor.catalog()));
        }
        for (const MonitorReport &report : monitor.finish())
            out.push_back(reportToJson(report, monitor.catalog()));
        return out;
    };

    std::vector<std::string> plain_reports = collect(*plain);
    std::vector<std::string> hardened_reports = collect(*hardened);
    ASSERT_FALSE(plain_reports.empty());
    ASSERT_EQ(plain_reports.size(), hardened_reports.size());
    for (std::size_t i = 0; i < plain_reports.size(); ++i)
        EXPECT_EQ(plain_reports[i], hardened_reports[i]) << "at " << i;

    // And the guards confirm they never intervened.
    const IngestStats &stats = hardened->ingestStats();
    EXPECT_EQ(stats.duplicatesSuppressed, 0u);
    EXPECT_EQ(stats.groupsShed, 0u);
    EXPECT_EQ(stats.forcedReleases, 0u);
    EXPECT_EQ(stats.nonMonotonicClamped, 0u);
}

// --- Guards against their former containers ------------------------

namespace {

/**
 * The dedup window as WorkflowMonitor kept it before DedupWindow: an
 * unordered_map of key -> newest time plus an expiry queue of
 * (time, key), with spare strings and map nodes recycled. admit() is
 * the former block of deliver() verbatim, returning its verdict;
 * saveState() is the former section of WorkflowMonitor::saveState.
 */
class ReferenceDedup
{
  public:
    bool
    admit(const std::string &dedupKey, common::SimTime now,
          double dedupWindowSeconds)
    {
        // Expired keys hand their storage to the next ones: map nodes
        // and queue strings are refilled, not reallocated.
        double window = dedupWindowSeconds;
        while (!recentOrder.empty() &&
               recentOrder.front().first < now - window) {
            auto &[stamp, old_key] = recentOrder.front();
            auto it = recentKeys.find(old_key);
            if (it != recentKeys.end() && it->second <= stamp)
                spareKeyNodes.push_back(recentKeys.extract(it));
            spareKeys.push_back(std::move(old_key));
            recentOrder.pop_front();
        }
        auto it = recentKeys.find(dedupKey);
        const bool inserted = it == recentKeys.end();
        if (inserted && spareKeyNodes.empty()) {
            it = recentKeys.emplace(dedupKey, now).first;
        } else if (inserted) {
            spareKeyNodes.back().key() = dedupKey;
            it = recentKeys.insert(std::move(spareKeyNodes.back())).position;
            spareKeyNodes.pop_back();
        }
        it->second = now;
        if (spareKeys.empty()) {
            recentOrder.emplace_back(now, dedupKey);
        } else {
            spareKeys.back().assign(dedupKey);
            recentOrder.emplace_back(now, std::move(spareKeys.back()));
            spareKeys.pop_back();
        }
        return !inserted;
    }

    void
    saveState(common::BinWriter &out) const
    {
        out.writeU64(recentOrder.size());
        for (const auto &[time, key] : recentOrder) {
            out.writeF64(time);
            out.writeString(key);
        }
    }

  private:
    std::unordered_map<std::string, common::SimTime> recentKeys;
    common::HeadQueue<std::pair<common::SimTime, std::string>> recentOrder;
    std::vector<std::string> spareKeys;
    std::vector<std::unordered_map<std::string, common::SimTime>::node_type>
        spareKeyNodes;
};

/**
 * The reorder buffer before the slot pool: sorted (record, seq) pairs
 * in a HeadQueue. bufferAndRelease() is the former member verbatim,
 * with deliver() handing each record to a callback and the ingest
 * counters kept here; saveState() is the former section.
 */
class ReferenceReorder
{
  public:
    struct BufferedRecord
    {
        logging::LogRecord record;
        std::uint64_t seq = 0; ///< arrival order, for stable ties
    };

    IngestConfig config;
    struct
    {
        std::size_t reorderBufferPeak = 0;
        std::uint64_t forcedReleases = 0;
    } ingest;
    std::function<void(const logging::LogRecord &)> deliverTo;

    void
    bufferAndRelease(logging::LogRecord &&record)
    {
        highestSeen = std::max(highestSeen, record.timestamp);

        // Keep the buffer sorted by (timestamp, arrival seq). Streams are
        // mostly ordered, so scanning from the back finds the insertion
        // point in O(1) amortized.
        BufferedRecord entry{std::move(record), nextSeq++};
        auto pos = reorderBuffer.end();
        while (pos != reorderBuffer.begin()) {
            auto prev = std::prev(pos);
            if (prev->record.timestamp <= entry.record.timestamp)
                break;
            pos = prev;
        }
        reorderBuffer.insert(pos, std::move(entry));
        ingest.reorderBufferPeak =
            std::max(ingest.reorderBufferPeak, reorderBuffer.size());

        // Watermark release: a record is ripe once everything that could
        // still precede it (within the window) must already have arrived.
        common::SimTime watermark =
            highestSeen - config.reorderWindowSeconds;
        while (!reorderBuffer.empty() &&
               reorderBuffer.front().record.timestamp <= watermark) {
            logging::LogRecord ripe =
                std::move(reorderBuffer.front().record);
            reorderBuffer.pop_front();
            deliver(ripe);
            spareRecords.push_back(std::move(ripe));
        }
        // Overflow: force the oldest out rather than buffering unboundedly
        // (a stuck node clock must not wedge the monitor).
        while (reorderBuffer.size() > config.reorderBufferCap) {
            logging::LogRecord forced =
                std::move(reorderBuffer.front().record);
            reorderBuffer.pop_front();
            ++ingest.forcedReleases;
            deliver(forced);
            spareRecords.push_back(std::move(forced));
        }
    }

    /** The former flush at the top of WorkflowMonitor::finish(). */
    void
    finish()
    {
        while (!reorderBuffer.empty()) {
            logging::LogRecord ripe =
                std::move(reorderBuffer.front().record);
            reorderBuffer.pop_front();
            deliver(ripe);
        }
    }

    void
    saveState(common::BinWriter &out) const
    {
        out.writeU64(reorderBuffer.size());
        for (const BufferedRecord &entry : reorderBuffer) {
            logging::writeLogRecord(out, entry.record);
            out.writeU64(entry.seq);
        }
        out.writeF64(highestSeen);
        out.writeU64(nextSeq);
    }

  private:
    common::HeadQueue<BufferedRecord> reorderBuffer;
    common::SimTime highestSeen = 0.0;
    std::uint64_t nextSeq = 0;
    std::vector<logging::LogRecord> spareRecords;

    void deliver(const logging::LogRecord &record) { deliverTo(record); }
};

/** One record as it left the reorder buffer and met the dedup window. */
struct Delivery
{
    logging::RecordId id = 0;
    bool forced = false;
    bool suppressed = false;

    bool
    operator==(const Delivery &other) const
    {
        return id == other.id && forced == other.forced &&
               suppressed == other.suppressed;
    }
};

std::ostream &
operator<<(std::ostream &out, const Delivery &delivery)
{
    return out << "{" << delivery.id << (delivery.forced ? " forced" : "")
               << (delivery.suppressed ? " suppressed" : "") << "}";
}

/**
 * The monitor's clock guard and dedup key around a window: the clock
 * never moves back, a backwards stamp is clamped to it, and the key
 * carries the record's original stamp ("%f"), as deliver() builds it.
 */
template <typename Window>
struct GuardedWindow
{
    Window window;
    common::SimTime clock = 0.0;
    std::string key;

    bool
    admit(const logging::LogRecord &record, double seconds)
    {
        clock = std::max(clock, record.timestamp);
        key.assign(record.node);
        key += '\x1f';
        key += record.service;
        key += '\x1f';
        key += record.body;
        key += '\x1f';
        char digits[320];
        auto stamp = std::to_chars(digits, digits + sizeof(digits),
                                   record.timestamp,
                                   std::chars_format::fixed, 6);
        key.append(digits, stamp.ptr);
        return window.admit(key, clock, seconds);
    }
};

/**
 * A seeded adverse stream on a 0.25 s grid, where every sum and
 * difference is exact: runs of equal stamps, exact redeliveries of
 * recent records (some inside the dedup window, some just at or past
 * its edge), stamps skewed back by up to 2 s (past the reorder window,
 * so they reach the clock guard out of order), and bursts that fill a
 * small reorder buffer.
 */
std::vector<logging::LogRecord>
adverseStream(std::uint64_t seed, int count)
{
    common::Rng rng(seed);
    std::vector<logging::LogRecord> out;
    double t = 0.0;
    logging::RecordId next = 1;
    while (static_cast<int>(out.size()) < count) {
        if (!out.empty() && rng.chance(0.2)) {
            // Redelivery: same bytes, same stamp, fresh record id.
            std::size_t back = static_cast<std::size_t>(rng.uniformInt(
                1, std::min(12, static_cast<int>(out.size()))));
            logging::LogRecord again = out[out.size() - back];
            again.id = next++;
            out.push_back(std::move(again));
            continue;
        }
        t += 0.25 * rng.uniformInt(0, 2);
        logging::LogRecord record;
        record.id = next++;
        record.timestamp = rng.chance(0.15)
                               ? std::max(0.0, t - 0.25 * rng.uniformInt(1, 8))
                               : t;
        record.node = rng.chance(0.5) ? "controller" : "compute-1";
        record.service = rng.chance(0.5) ? "svc-a" : "svc-b";
        record.body = "op " + std::to_string(rng.uniformInt(0, 5));
        out.push_back(std::move(record));
    }
    return out;
}

} // namespace

/**
 * Drive the slot-pooled buffer and the flat window, and the verbatim
 * former containers, through the same monitor pipeline (reorder, clock
 * guard, dedup) over seeded adverse streams. Every input must release
 * the same records in the same order, forced or not, with the same
 * suppression verdicts and peak. At random points both sides' state
 * images must be byte-identical; the new side is then replaced by a
 * fresh buffer and window restored from the reference's image.
 */
TEST(IngestGuards, MatchTheirFormerContainersDecisionByDecision)
{
    std::size_t suppressed = 0, forced = 0, restores = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        common::Rng rng(seed * 7919);
        const double reorder_window = 0.25 * rng.uniformInt(1, 4);
        const double dedup_window = 0.25 * rng.uniformInt(2, 8);
        const std::size_t cap =
            static_cast<std::size_t>(rng.uniformInt(2, 6));

        ReferenceReorder refBuffer;
        refBuffer.config.reorderWindowSeconds = reorder_window;
        refBuffer.config.reorderBufferCap = cap;
        GuardedWindow<ReferenceDedup> refWindow;
        std::vector<Delivery> expected;
        refBuffer.deliverTo = [&](const logging::LogRecord &record) {
            expected.push_back({record.id, false,
                                refWindow.admit(record, dedup_window)});
        };

        auto buffer = std::make_unique<ReorderBuffer>();
        auto window = std::make_unique<GuardedWindow<DedupWindow>>();
        std::size_t peak = 0;
        std::vector<Delivery> got;

        for (const logging::LogRecord &record : adverseStream(seed, 1500)) {
            expected.clear();
            got.clear();
            const std::uint64_t refForced = refBuffer.ingest.forcedReleases;
            refBuffer.bufferAndRelease(logging::LogRecord(record));

            buffer->vacant() = record;
            peak = std::max(peak, buffer->insert());
            buffer->release(reorder_window, cap,
                            [&](const logging::LogRecord &ripe,
                                bool was_forced) {
                                got.push_back({ripe.id, was_forced,
                                               window->admit(
                                                   ripe, dedup_window)});
                            });

            // The reference counts forced releases; they are its last
            // deliveries of the input.
            std::uint64_t refNewlyForced =
                refBuffer.ingest.forcedReleases - refForced;
            for (std::size_t i = expected.size() - refNewlyForced;
                 i < expected.size(); ++i)
                expected[i].forced = true;
            ASSERT_EQ(got, expected)
                << "seed " << seed << " record " << record.id;
            ASSERT_EQ(peak, refBuffer.ingest.reorderBufferPeak)
                << "seed " << seed << " record " << record.id;
            for (const Delivery &delivery : got) {
                suppressed += delivery.suppressed;
                forced += delivery.forced;
            }

            if (rng.chance(0.03)) {
                common::BinWriter ours, theirs;
                buffer->saveState(ours);
                window->window.saveState(ours);
                refBuffer.saveState(theirs);
                refWindow.window.saveState(theirs);
                ASSERT_EQ(ours.bytes(), theirs.bytes())
                    << "seed " << seed << " record " << record.id;

                common::BinReader in(theirs.bytes());
                buffer = std::make_unique<ReorderBuffer>();
                auto fresh = std::make_unique<GuardedWindow<DedupWindow>>();
                fresh->clock = window->clock;
                ASSERT_TRUE(buffer->restoreState(in));
                ASSERT_TRUE(fresh->window.restoreState(in));
                ASSERT_TRUE(in.atEnd());
                window = std::move(fresh);
                ++restores;
            }
        }
        // End of stream: both flush the same records in the same order.
        expected.clear();
        got.clear();
        refBuffer.finish();
        buffer->flush([&](const logging::LogRecord &ripe) {
            got.push_back({ripe.id, false, window->admit(ripe, dedup_window)});
        });
        EXPECT_EQ(got, expected) << "seed " << seed << " flush";
    }
    // The streams reached every path being compared.
    EXPECT_GT(suppressed, 200u);
    EXPECT_GT(forced, 50u);
    EXPECT_GT(restores, 100u);
}

/**
 * A hardened monitor over a perturbed wire stream (redeliveries,
 * backwards stamps, a small reorder cap) saved at random points and
 * restored into a fresh monitor: the fresh one re-saves the same bytes
 * and emits the uninterrupted monitor's reports to the end.
 */
TEST_F(IngestTest, RestoredGuardsContinueBitIdentically)
{
    IngestConfig ingest = hardenedIngestDefaults();
    ingest.reorderWindowSeconds = 0.5;
    ingest.reorderBufferCap = 3;
    ingest.dedupWindowSeconds = 1.0;

    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        common::Rng rng(seed);
        std::vector<std::string> lines;
        double t = 0.0;
        for (int task = 1; lines.size() < 600; ++task) {
            t += 0.25 * rng.uniformInt(0, 2);
            double skew = rng.chance(0.2) ? 0.25 * rng.uniformInt(1, 6) : 0;
            lines.push_back(
                logging::encodeLogLine(ping(task, std::max(0.0, t - skew))));
            if (rng.chance(0.3))
                lines.push_back(lines.back()); // redelivery
            if (rng.chance(0.8)) {
                t += 0.25 * rng.uniformInt(0, 1);
                lines.push_back(logging::encodeLogLine(pong(task, t)));
            }
        }

        auto live = makeMonitor(ingest);
        std::unique_ptr<WorkflowMonitor> resumed;
        std::string left, right;
        for (const std::string &line : lines) {
            for (const MonitorReport &report : live->feedLine(line))
                left += reportToJson(report, *catalog) + "\n";
            if (resumed != nullptr) {
                for (const MonitorReport &report : resumed->feedLine(line))
                    right += reportToJson(report, *catalog) + "\n";
            } else if (rng.chance(0.05)) {
                common::BinWriter image;
                live->saveState(image);
                resumed = makeMonitor(ingest);
                common::BinReader in(image.bytes());
                ASSERT_TRUE(resumed->restoreState(in));
                common::BinWriter again;
                resumed->saveState(again);
                ASSERT_EQ(again.bytes(), image.bytes()) << "seed " << seed;
                left.clear();
            }
        }
        ASSERT_NE(resumed, nullptr) << "seed " << seed;
        for (const MonitorReport &report : live->finish())
            left += reportToJson(report, *catalog) + "\n";
        for (const MonitorReport &report : resumed->finish())
            right += reportToJson(report, *catalog) + "\n";
        EXPECT_EQ(left, right) << "seed " << seed;
        EXPECT_GT(live->ingestStats().duplicatesSuppressed, 0u);
        EXPECT_GT(live->ingestStats().forcedReleases, 0u);
        EXPECT_GT(live->ingestStats().nonMonotonicClamped, 0u);
        EXPECT_EQ(live->ingestStats().duplicatesSuppressed,
                  resumed->ingestStats().duplicatesSuppressed);
    }
}
