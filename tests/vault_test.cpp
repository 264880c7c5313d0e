/**
 * @file
 * Unit and property tests for seer-vault (DESIGN.md §13): the binary
 * frame codec and its torn-tail semantics, write-ahead ledger and
 * checkpoint round-trips, interner and monitor state identity under
 * randomized workloads, and the headline restore-fidelity contract —
 * a VaultedMonitor killed at an arbitrary point and reconstructed
 * over the same directory emits verdicts bit-identical to an
 * uninterrupted run, for randomized kill points, checkpoint cadences,
 * torn ledger tails, and models with and without latency profiles.
 * A seeded mutation loop (flipped, truncated, spliced and re-sealed
 * vault files) holds the streaming frame reader to the whole-file
 * scanner it replaced, and every restore over a mutant to "recovered
 * or refused, never a crash".
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "common/binio.hpp"
#include "common/rng.hpp"
#include "core/mining/latency_profile.hpp"
#include "core/monitor/report_json.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "logging/identifier_interner.hpp"
#include "logging/log_codec.hpp"
#include "logging/record_binio.hpp"
#include "vault/vault.hpp"
#include "vault/vaulted_monitor.hpp"

using namespace cloudseer;
using namespace cloudseer::core;

namespace {

/** Fresh per-test scratch directory under the system temp root; the
 *  process id in its name keeps concurrent runs apart. */
class VaultDir
{
  public:
    explicit VaultDir(const std::string &name)
        : path((std::filesystem::temp_directory_path() /
                ("cloudseer_" + name + "_" + std::to_string(::getpid())))
                   .string())
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~VaultDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    const std::string path;
};

/** Bitwise reference CRC-32, for checking the sliced table version. */
std::uint32_t
referenceCrc32(std::string_view data)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (unsigned char byte : data) {
        crc ^= byte;
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xFFFFFFFFu;
}

/** What a full FrameReader pass accepted, in the shape of the whole-file
 *  scan it replaced. */
struct ReaderScan
{
    bool headerOk = false;
    bool torn = false;
    std::size_t tornBytes = 0;
    std::vector<std::string> frames;
};

ReaderScan
scanWithReader(const std::string &path, const char *magic,
               std::size_t chunk = vault::kGroupCommitBytes)
{
    ReaderScan out;
    vault::FrameReader reader(path, magic, chunk);
    std::string_view payload;
    while (reader.next(payload))
        out.frames.emplace_back(payload);
    out.headerOk = reader.headerOk();
    out.torn = reader.torn();
    out.tornBytes = reader.tornBytes();
    return out;
}

/** Write `payloads` as one framed file under `magic`. */
void
writeFramedFile(const std::string &path, const char *magic,
                const std::vector<std::string> &payloads)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(vault::writeFileHeader(out, magic));
    for (const std::string &payload : payloads)
        vault::writeFrame(out, payload);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

// --- binio ----------------------------------------------------------

TEST(BinioTest, Crc32KnownAnswer)
{
    // The standard CRC-32 check value (zlib/PNG convention).
    EXPECT_EQ(common::crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(common::crc32(""), 0u);
}

TEST(BinioTest, Crc32MatchesBitwiseReferenceAtEveryLength)
{
    // Where the host has PCLMULQDQ, inputs of 64 bytes or more fold
    // their 16-byte-multiple prefix 64 bytes per step and finish with
    // the four-byte tables; shorter inputs take the tables alone.
    // Lengths 0..1024 reach every fold count and tail split, and the
    // start offsets 0..15 make every 16-byte load unaligned somewhere.
    std::string buffer;
    common::Rng rng(7);
    for (int i = 0; i < 1024 + 16; ++i)
        buffer.push_back(static_cast<char>(rng.uniformInt(0, 255)));
    const std::string_view all(buffer);
    int mismatches = 0;
    for (std::size_t offset = 0; offset < 16; ++offset) {
        for (std::size_t len = 0; len <= 1024; ++len) {
            std::string_view data = all.substr(offset, len);
            if (common::crc32(data) != referenceCrc32(data)) {
                ADD_FAILURE() << "offset " << offset << " length " << len;
                if (++mismatches > 20)
                    return;
            }
        }
    }
}

TEST(BinioTest, Crc32ChainsAtEverySplit)
{
    // crc32(b, crc32(a)) == crc32(a + b) when either side, both or
    // neither is long enough to fold.
    std::string buffer;
    common::Rng rng(13);
    for (int i = 0; i < 300; ++i)
        buffer.push_back(static_cast<char>(rng.uniformInt(0, 255)));
    const std::string_view all(buffer);
    const std::uint32_t whole = referenceCrc32(all);
    ASSERT_EQ(common::crc32(all), whole);
    for (std::size_t cut = 0; cut <= all.size(); ++cut) {
        EXPECT_EQ(common::crc32(all.substr(cut),
                                common::crc32(all.substr(0, cut))),
                  whole)
            << "cut " << cut;
    }
}

TEST(BinioTest, WriterReaderRoundTrip)
{
    common::BinWriter out;
    out.writeU8(0xAB);
    out.writeU32(0xDEADBEEFu);
    out.writeU64(0x0123456789ABCDEFull);
    out.writeI64(-42);
    out.writeF64(3.25);
    out.writeBool(true);
    out.writeString("hello vault");
    out.writeU32Vector({1, 2, 3});
    out.writeU64Vector({});

    common::BinReader in(out.bytes());
    EXPECT_EQ(in.readU8(), 0xAB);
    EXPECT_EQ(in.readU32(), 0xDEADBEEFu);
    EXPECT_EQ(in.readU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(in.readI64(), -42);
    EXPECT_EQ(in.readF64(), 3.25);
    EXPECT_TRUE(in.readBool());
    EXPECT_EQ(in.readString(), "hello vault");
    EXPECT_EQ(in.readU32Vector(), (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_TRUE(in.readU64Vector().empty());
    EXPECT_TRUE(in.ok());
    EXPECT_TRUE(in.atEnd());
}

TEST(BinioTest, ReaderFailureIsSticky)
{
    common::BinWriter out;
    out.writeU32(7);
    common::BinReader in(out.bytes());
    EXPECT_EQ(in.readU64(), 0u); // runs past the 4 available bytes
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(in.readU32(), 0u); // still failed, still zero
    EXPECT_FALSE(in.ok());
}

// --- frame codec ----------------------------------------------------

TEST(FrameTest, ScanRoundTripAndTornTail)
{
    VaultDir dir("frame_test");
    std::string path = dir.path + "/frames.bin";
    writeFramedFile(path, vault::kLedgerMagic, {"alpha", "beta", "gamma"});
    ReaderScan scan = scanWithReader(path, vault::kLedgerMagic);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_FALSE(scan.torn);
    EXPECT_EQ(scan.tornBytes, 0u);
    ASSERT_EQ(scan.frames.size(), 3u);
    EXPECT_EQ(scan.frames[1], "beta");

    // Chop mid-way through the last frame: the crash signature. The
    // intact prefix survives; the tail is reported, not interpreted.
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 3);
    scan = scanWithReader(path, vault::kLedgerMagic);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_TRUE(scan.torn);
    EXPECT_EQ(scan.tornBytes, 8u + 5u - 3u); // gamma's frame, cut
    ASSERT_EQ(scan.frames.size(), 2u);
    EXPECT_EQ(scan.frames[1], "beta");
}

TEST(FrameTest, CorruptPayloadStopsScanAtChecksum)
{
    VaultDir dir("frame_corrupt");
    std::string path = dir.path + "/frames.bin";
    writeFramedFile(path, vault::kLedgerMagic, {"first", "second"});
    // Flip one payload byte of the second frame.
    std::fstream patch(path,
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(-1, std::ios::end);
    patch.put('X');
    patch.close();

    ReaderScan scan = scanWithReader(path, vault::kLedgerMagic);
    EXPECT_TRUE(scan.torn);
    EXPECT_EQ(scan.tornBytes, 8u + 6u);
    ASSERT_EQ(scan.frames.size(), 1u);
    EXPECT_EQ(scan.frames[0], "first");
}

TEST(FrameTest, WrongMagicRefusesFile)
{
    VaultDir dir("frame_magic");
    std::string path = dir.path + "/frames.bin";
    writeFramedFile(path, vault::kCheckpointMagic, {"payload"});
    ReaderScan scan = scanWithReader(path, vault::kLedgerMagic);
    EXPECT_FALSE(scan.headerOk);
    EXPECT_FALSE(scan.torn);
    EXPECT_TRUE(scan.frames.empty());
}

TEST(FrameTest, ReaderBufferGrowsOnlyToTheLargestFrame)
{
    // Frames far smaller and far larger than the read chunk, in every
    // chunk size from a few bytes to the whole file: the payloads and
    // the verdict never depend on where the chunk boundaries fall.
    VaultDir dir("frame_chunks");
    std::string path = dir.path + "/frames.bin";
    std::vector<std::string> payloads;
    for (std::size_t size : {0u, 1u, 5u, 300u, 70000u, 12u, 40000u, 3u})
        payloads.emplace_back(size, static_cast<char>('a' + size % 26));
    writeFramedFile(path, vault::kLedgerMagic, payloads);
    for (std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, std::size_t{4096},
          vault::kGroupCommitBytes, vault::FrameReader::kWholeFile}) {
        ReaderScan scan = scanWithReader(path, vault::kLedgerMagic, chunk);
        EXPECT_TRUE(scan.headerOk) << "chunk " << chunk;
        EXPECT_FALSE(scan.torn) << "chunk " << chunk;
        EXPECT_EQ(scan.frames, payloads) << "chunk " << chunk;
    }
}

TEST(FrameTest, FrameCrcContinuesAcrossHeadAndBody)
{
    // crc32(b, crc32(a)) is crc32(a + b) at every split point, so a
    // frame written from two spans checks like one written whole.
    std::string bytes = "checkpoint section kind word and body";
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
        std::string_view all(bytes);
        EXPECT_EQ(common::crc32(all.substr(cut),
                                common::crc32(all.substr(0, cut))),
                  common::crc32(all))
            << "cut " << cut;
    }
    EXPECT_EQ(common::crc32("", 0), 0u);
}

// --- write-ahead ledger ---------------------------------------------

TEST(LedgerTest, AppendReadRoundTrip)
{
    VaultDir dir("ledger_roundtrip");
    std::string path = vault::ledgerPath(dir.path);

    logging::LogRecord record;
    record.id = 42;
    record.timestamp = 1.5;
    record.node = "node-1";
    record.service = "svc";
    record.level = logging::LogLevel::Warning;
    record.body = "worker stalled";

    {
        vault::WriteAheadLedger ledger(path);
        ASSERT_TRUE(ledger.open());
        ledger.appendLine(1, "raw wire line");
        ledger.appendRecord(2, record);
        ledger.appendLine(3, "");
        // No explicit flush: the destructor group-commits the batch,
        // so an orderly shutdown loses nothing.
    }

    vault::LedgerScan scan = vault::readLedger(path);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_FALSE(scan.torn);
    ASSERT_EQ(scan.inputs.size(), 3u);
    EXPECT_EQ(scan.inputs[0].kind, vault::LedgerEntry::RawLine);
    EXPECT_EQ(scan.inputs[0].seq, 1u);
    EXPECT_EQ(scan.inputs[0].line, "raw wire line");
    EXPECT_EQ(scan.inputs[1].kind, vault::LedgerEntry::Record);
    EXPECT_EQ(scan.inputs[1].seq, 2u);
    EXPECT_EQ(scan.inputs[1].record.id, 42u);
    EXPECT_EQ(scan.inputs[1].record.level,
              logging::LogLevel::Warning);
    EXPECT_EQ(scan.inputs[1].record.body, "worker stalled");
    EXPECT_EQ(scan.inputs[2].line, "");
}

TEST(LedgerTest, RotateEmptiesAndDiscardsPending)
{
    VaultDir dir("ledger_rotate");
    std::string path = vault::ledgerPath(dir.path);
    vault::WriteAheadLedger ledger(path);
    ASSERT_TRUE(ledger.open());
    ledger.appendLine(1, "flushed");
    ledger.flush();
    ledger.appendLine(2, "still pending");
    ASSERT_TRUE(ledger.rotate());

    vault::LedgerScan scan = vault::readLedger(path);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_TRUE(scan.inputs.empty());

    // The ledger stays appendable after rotation.
    ledger.appendLine(3, "post-rotation");
    ledger.flush();
    scan = vault::readLedger(path);
    ASSERT_EQ(scan.inputs.size(), 1u);
    EXPECT_EQ(scan.inputs[0].seq, 3u);
}

// --- checkpoint files -----------------------------------------------

TEST(CheckpointTest, WriteReadRoundTrip)
{
    VaultDir dir("ckpt_roundtrip");
    std::string path = vault::checkpointPath(dir.path);

    vault::CheckpointMeta meta;
    meta.modelFingerprint = 0xFEEDFACEull;
    meta.coveredSeq = 128;
    meta.monitorTime = 99.5;
    const std::string meta_bytes = vault::encodeMeta(meta);
    std::uint64_t bytes = vault::writeCheckpoint(
        path, {{vault::CheckpointSection::Meta, meta_bytes},
               {vault::CheckpointSection::Interner, "interner-bytes"},
               {vault::CheckpointSection::Monitor, "monitor-bytes"}});
    EXPECT_GT(bytes, 0u);
    EXPECT_EQ(bytes, std::filesystem::file_size(path));

    vault::CheckpointScan scan = vault::readCheckpoint(path);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_TRUE(scan.complete);
    ASSERT_TRUE(scan.hasMeta);
    EXPECT_EQ(scan.meta.modelFingerprint, 0xFEEDFACEull);
    EXPECT_EQ(scan.meta.coveredSeq, 128u);
    EXPECT_EQ(scan.meta.monitorTime, 99.5);
    ASSERT_EQ(scan.sections.size(), 3u);
    EXPECT_EQ(scan.sections[1].second, "interner-bytes");
}

TEST(CheckpointTest, MissingTerminatorMeansIncomplete)
{
    VaultDir dir("ckpt_incomplete");
    std::string path = vault::checkpointPath(dir.path);
    vault::CheckpointMeta meta;
    const std::string meta_bytes = vault::encodeMeta(meta);
    ASSERT_GT(vault::writeCheckpoint(
                  path, {{vault::CheckpointSection::Meta, meta_bytes}}),
              0u);
    // Drop the End frame (4-byte kind + 8-byte frame header).
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 12);
    vault::CheckpointScan scan = vault::readCheckpoint(path);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_FALSE(scan.complete);
    EXPECT_TRUE(scan.hasMeta);
}

// --- interner snapshot/restore --------------------------------------

TEST(InternerVaultTest, SnapshotRestoreIsIdentityUnderRandomWorkload)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        common::Rng rng(seed);
        logging::IdentifierInterner source;
        // Randomized workload with repeats, so hits and misses both
        // accumulate; a small capacity on some seeds exercises the
        // rejection path too.
        if (seed % 2 == 0)
            source.setCapacity(12);
        std::vector<std::string> pool;
        for (int i = 0; i < 20; ++i)
            pool.push_back("id-" + std::to_string(seed) + "-" +
                           std::to_string(rng.uniformInt(0, 15)));
        std::vector<logging::IdToken> sourceTokens;
        for (const std::string &value : pool)
            sourceTokens.push_back(source.intern(value));
        if (seed % 2 == 0) {
            // Deterministically overflow the 12-entry capacity so
            // the rejection tally is exercised regardless of how
            // many distinct values the random pool produced.
            for (int i = 0; i < 13; ++i)
                source.intern("spill-" + std::to_string(i));
        }

        common::BinWriter out;
        source.snapshotState(out);
        logging::IdentifierInterner restored;
        common::BinReader in(out.bytes());
        ASSERT_TRUE(restored.restoreState(in)) << "seed " << seed;
        EXPECT_TRUE(in.atEnd());

        EXPECT_EQ(restored.size(), source.size());
        EXPECT_EQ(restored.stats().hits, source.stats().hits);
        EXPECT_EQ(restored.stats().misses, source.stats().misses);
        EXPECT_EQ(restored.stats().capacity, source.stats().capacity);
        EXPECT_EQ(restored.stats().capRejected,
                  source.stats().capRejected);
        for (logging::IdToken token = 0; token < source.size();
             ++token)
            EXPECT_EQ(restored.text(token), source.text(token));
        // Future interning behaves identically (same tokens, same
        // capacity enforcement) — the property that keeps a restored
        // monitor's eviction and routing decisions in lockstep.
        for (const std::string &value : pool)
            EXPECT_EQ(restored.intern(value), source.find(value));
        if (seed % 2 == 0) {
            EXPECT_GT(source.stats().capRejected, 0u);
            EXPECT_EQ(restored.intern("definitely-new-identifier"),
                      logging::kInvalidIdToken);
        }
    }
}

TEST(InternerVaultTest, RestoreRefusesDivergentExistingState)
{
    logging::IdentifierInterner source;
    source.intern("alpha");
    source.intern("beta");
    common::BinWriter out;
    source.snapshotState(out);

    logging::IdentifierInterner conflicting;
    conflicting.intern("gamma"); // takes token 0, conflicting with
                                 // the snapshot's "alpha"
    common::BinReader in(out.bytes());
    EXPECT_FALSE(conflicting.restoreState(in));
}

// --- monitor state round-trip and kill/restore fidelity --------------

namespace {

/**
 * Ping/pong monitor fixture mirroring monitor_test, plus a fork
 * model so groups hold real ambiguity when snapshots are taken.
 */
class VaultMonitorTest : public ::testing::Test
{
  protected:
    std::shared_ptr<logging::TemplateCatalog> catalog =
        std::make_shared<logging::TemplateCatalog>();

    std::vector<TaskAutomaton>
    automata()
    {
        logging::TemplateId ping =
            catalog->intern("svc-a", "ping <uuid>");
        logging::TemplateId pong =
            catalog->intern("svc-b", "pong <uuid>");
        logging::TemplateId ack =
            catalog->intern("svc-c", "ack <uuid>");
        std::vector<TaskAutomaton> out;
        out.emplace_back(
            "ping-pong",
            std::vector<EventNode>{{ping, 0}, {pong, 0}},
            std::vector<DependencyEdge>{{0, 1, true}});
        out.emplace_back(
            "ping-ack",
            std::vector<EventNode>{{ping, 0}, {ack, 0}},
            std::vector<DependencyEdge>{{0, 1, true}});
        return out;
    }

    static MonitorConfig
    config(bool with_profile)
    {
        MonitorConfig out;
        out.timeoutSeconds = 50.0;
        if (with_profile) {
            LatencyProfile profile;
            profile.task = "ping-pong";
            profile.runs = 4;
            profile.total = {4, 0.5, 1.0, 1.0, 1.0};
            profile.edges[{0, 1}] = profile.total;
            out.latencyProfiles = {profile};
        }
        return out;
    }

    static std::string
    uuid(int which)
    {
        char buf[37];
        std::snprintf(buf, sizeof buf,
                      "%08d-aaaa-bbbb-cccc-dddddddddddd", which);
        return buf;
    }

    /**
     * Randomized interleaved workload: ping always opens; roughly
     * half the tasks complete via pong or ack, some after a latency
     * that trips the (profiled) budget, and the rest are left to time
     * out — so Accepted, Timeout and LatencyAnomaly verdicts all
     * appear in the stream the fidelity property compares.
     */
    std::vector<logging::LogRecord>
    workload(std::uint64_t seed, int tasks)
    {
        common::Rng rng(seed);
        std::vector<logging::LogRecord> records;
        logging::RecordId next = 1;
        double t = 0.0;
        auto make = [&](const std::string &service,
                        const std::string &body) {
            logging::LogRecord record;
            record.id = next++;
            record.timestamp = (t += 0.25);
            record.node = "controller";
            record.service = service;
            record.level = logging::LogLevel::Info;
            record.body = body;
            return record;
        };
        std::vector<int> open;
        for (int task = 1; task <= tasks; ++task) {
            records.push_back(
                make("svc-a", "ping " + uuid(task)));
            open.push_back(task);
            while (open.size() > 3) {
                std::size_t pick = static_cast<std::size_t>(
                    rng.uniformInt(
                        0, static_cast<int>(open.size()) - 1));
                int closing = open[pick];
                open.erase(open.begin() +
                           static_cast<std::ptrdiff_t>(pick));
                int how = rng.uniformInt(0, 3);
                if (how == 3)
                    t += 3.0; // blows the profiled 1s budget
                records.push_back(
                    make(how == 1 ? "svc-c" : "svc-b",
                         (how == 1 ? "ack " : "pong ") +
                             uuid(closing)));
            }
        }
        return records;
    }

    static std::string
    render(const std::vector<MonitorReport> &reports,
           const std::shared_ptr<logging::TemplateCatalog> &catalog)
    {
        std::string out;
        for (const MonitorReport &report : reports) {
            out += reportToJson(report, *catalog);
            out += "\n";
        }
        return out;
    }
};

} // namespace

TEST_F(VaultMonitorTest, MonitorSaveRestoreMidStreamIsIdentity)
{
    std::vector<logging::LogRecord> records = workload(11, 16);
    WorkflowMonitor a(config(false), catalog, automata());
    WorkflowMonitor b(config(false), catalog, automata());
    std::size_t half = records.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
        a.feed(records[i]);

    common::BinWriter out;
    a.saveState(out);
    common::BinReader in(out.bytes());
    ASSERT_TRUE(b.restoreState(in));

    // From here on the two monitors must be indistinguishable.
    std::string left, right;
    for (std::size_t i = half; i < records.size(); ++i) {
        left += render(a.feed(records[i]), catalog);
        right += render(b.feed(records[i]), catalog);
    }
    left += render(a.finish(), catalog);
    right += render(b.finish(), catalog);
    EXPECT_EQ(left, right);
    EXPECT_FALSE(left.empty());
    EXPECT_EQ(a.stats().accepted, b.stats().accepted);
    EXPECT_EQ(a.lastTime(), b.lastTime());
}

TEST_F(VaultMonitorTest, DisabledVaultIsNullSink)
{
    VaultDir dir("vault_nullsink");
    std::vector<logging::LogRecord> records = workload(3, 10);

    WorkflowMonitor bare(config(false), catalog, automata());
    vault::VaultedMonitor vaulted({}, config(false), catalog,
                                  automata());
    EXPECT_FALSE(vaulted.enabled());
    EXPECT_FALSE(vaulted.recovery().attempted);
    EXPECT_FALSE(vaulted.checkpoint());

    std::string left, right;
    for (const logging::LogRecord &record : records) {
        left += render(bare.feed(record), catalog);
        right += render(vaulted.feed(record), catalog);
    }
    left += render(bare.finish(), catalog);
    right += render(vaulted.finish(), catalog);
    EXPECT_EQ(left, right);
    EXPECT_EQ(vaulted.stats().walAppends, 0u);
    EXPECT_EQ(vaulted.stats().checkpointsTaken, 0u);
    // Nothing durability-related ever touched the filesystem.
    EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

/**
 * The headline property (satellite of DESIGN.md §13): kill a vaulted
 * monitor at a random point — optionally tearing the ledger tail the
 * way a crash mid-append would — reconstruct it over the same
 * directory, and the restored monitor's verdicts are bit-identical
 * to an uninterrupted reference run: replayed-tail reports match the
 * reference for the same seq range, and every subsequent input
 * (including resends of inputs lost to the torn tail) produces the
 * reference report stream, through finish().
 */
TEST_F(VaultMonitorTest, KillRestoreFidelityAtRandomPoints)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        bool with_profile = seed % 2 == 1; // odd seeds arm seer-flight
        bool tear_tail = seed % 3 == 0;
        std::vector<logging::LogRecord> records =
            workload(seed * 977, 20);

        // Uninterrupted reference over the identical model/config,
        // reports indexed by input seq (1-based, as the ledger's).
        WorkflowMonitor reference(config(with_profile), catalog,
                                  automata());
        std::vector<std::string> refBySeq(records.size() + 1);
        for (std::size_t i = 0; i < records.size(); ++i)
            refBySeq[i + 1] = render(reference.feed(records[i]),
                                     catalog);

        VaultDir dir("vault_fidelity_" + std::to_string(seed));
        vault::VaultConfig vault_config;
        vault_config.directory = dir.path;
        common::Rng rng(seed);
        vault_config.checkpointEveryRecords =
            static_cast<std::uint64_t>(rng.uniformInt(0, 9));
        std::size_t kill_at = static_cast<std::size_t>(rng.uniformInt(
            1, static_cast<int>(records.size()) - 2));

        auto vaulted = std::make_unique<vault::VaultedMonitor>(
            vault_config, config(with_profile), catalog, automata());
        for (std::size_t i = 0; i < kill_at; ++i) {
            std::string got = render(vaulted->feed(records[i]),
                                     catalog);
            ASSERT_EQ(got, refBySeq[i + 1])
                << "seed " << seed << " pre-kill input " << i;
        }
        vaulted.reset(); // the kill (destructor flushes the batch)
        if (tear_tail) {
            // Simulate a crash mid-append: chop bytes off the ledger
            // and smear garbage over the cut.
            std::string wal = vault::ledgerPath(dir.path);
            auto size = std::filesystem::file_size(wal);
            if (size > 40)
                std::filesystem::resize_file(wal, size - 11);
            std::ofstream smear(wal,
                                std::ios::binary | std::ios::app);
            smear << "\x07garbage";
        }

        auto restored = std::make_unique<vault::VaultedMonitor>(
            vault_config, config(with_profile), catalog, automata());
        const vault::RecoverResult &rec = restored->recovery();
        ASSERT_TRUE(rec.attempted) << "seed " << seed;
        ASSERT_TRUE(rec.recovered)
            << "seed " << seed << ": " << rec.error;
        ASSERT_LE(rec.lastReplayedSeq, kill_at) << "seed " << seed;

        // Gate 1: the replayed tail re-emitted exactly the reports
        // the reference produced for those seqs.
        std::string expectReplay;
        for (std::uint64_t s = rec.checkpointSeq + 1;
             s <= rec.lastReplayedSeq; ++s)
            expectReplay += refBySeq[s];
        EXPECT_EQ(render(rec.replayReports, catalog), expectReplay)
            << "seed " << seed;

        // Gate 2: inputs lost to the torn tail are resent (the
        // restored monitor hands out the same seqs it lost), then
        // the rest of the stream continues — every report must match
        // the reference, through finish().
        for (std::size_t s = rec.lastReplayedSeq + 1;
             s <= records.size(); ++s) {
            std::string got =
                render(restored->feed(records[s - 1]), catalog);
            ASSERT_EQ(got, refBySeq[s])
                << "seed " << seed << " post-restore seq " << s;
        }
        EXPECT_EQ(render(restored->finish(), catalog),
                  render(reference.finish(), catalog))
            << "seed " << seed;
    }
}

/**
 * A checkpoint that cannot be written (here its temp path is a
 * directory, which no open can truncate) fails once and then waits a
 * full interval, like a successful one; it does not retry on every
 * input. The blocker is left alone, the ledger keeps every input, and
 * once the path is free the next interval checkpoints and a restart
 * recovers from it.
 */
TEST_F(VaultMonitorTest, FailedCheckpointWaitsAnIntervalThenRecovers)
{
    VaultDir dir("vault_ckpt_fail");
    vault::VaultConfig vault_config;
    vault_config.directory = dir.path;
    vault_config.checkpointEveryRecords = 10;
    std::vector<logging::LogRecord> records = workload(17, 40);
    ASSERT_GE(records.size(), 60u);

    WorkflowMonitor reference(config(false), catalog, automata());
    std::vector<std::string> refBySeq(records.size() + 1);
    for (std::size_t i = 0; i < records.size(); ++i)
        refBySeq[i + 1] = render(reference.feed(records[i]), catalog);

    const std::string blocker = vault::checkpointPath(dir.path) + ".tmp";
    std::filesystem::create_directory(blocker);
    auto vaulted = std::make_unique<vault::VaultedMonitor>(
        vault_config, config(false), catalog, automata());
    const vault::VaultStats fresh = vaulted->stats();
    for (std::size_t i = 0; i < 35; ++i) {
        ASSERT_EQ(render(vaulted->feed(records[i]), catalog),
                  refBySeq[i + 1])
            << "input " << i;
        // One attempt per ten inputs, each failing.
        EXPECT_EQ(vaulted->stats().checkpointsFailed,
                  fresh.checkpointsFailed + (i + 1) / 10)
            << "input " << i;
    }
    EXPECT_EQ(vaulted->stats().checkpointsTaken, fresh.checkpointsTaken);
    EXPECT_TRUE(std::filesystem::is_directory(blocker));

    std::filesystem::remove(blocker);
    for (std::size_t i = 35; i < 52; ++i) {
        ASSERT_EQ(render(vaulted->feed(records[i]), catalog),
                  refBySeq[i + 1])
            << "input " << i;
    }
    // Inputs 36..40 finish the interval that began at the third
    // failure (input 30); input 50 ends the next one.
    EXPECT_EQ(vaulted->stats().checkpointsFailed,
              fresh.checkpointsFailed + 3);
    EXPECT_EQ(vaulted->stats().checkpointsTaken,
              fresh.checkpointsTaken + 2);
    EXPECT_FALSE(std::filesystem::exists(blocker));
    vaulted.reset();

    auto restored = std::make_unique<vault::VaultedMonitor>(
        vault_config, config(false), catalog, automata());
    const vault::RecoverResult &rec = restored->recovery();
    ASSERT_TRUE(rec.recovered) << rec.error;
    EXPECT_EQ(rec.checkpointSeq, 50u);
    EXPECT_EQ(rec.lastReplayedSeq, 52u);
    for (std::size_t s = 53; s <= records.size(); ++s) {
        ASSERT_EQ(render(restored->feed(records[s - 1]), catalog),
                  refBySeq[s])
            << "post-restore seq " << s;
    }
    EXPECT_EQ(render(restored->finish(), catalog),
              render(reference.finish(), catalog));
}

TEST_F(VaultMonitorTest, RecoveryRefusesModelFingerprintMismatch)
{
    VaultDir dir("vault_mismatch");
    vault::VaultConfig vault_config;
    vault_config.directory = dir.path;
    std::vector<logging::LogRecord> records = workload(5, 8);
    {
        vault::VaultedMonitor vaulted(vault_config, config(false),
                                      catalog, automata());
        for (const logging::LogRecord &record : records)
            vaulted.feed(record);
    }

    // Reconstruct against a different model: recovery must refuse
    // (no silent verdicts from someone else's state) and fall back
    // to a fresh monitor that still works.
    logging::TemplateId solo = catalog->intern("svc-z", "solo <uuid>");
    std::vector<TaskAutomaton> other;
    other.emplace_back("solo",
                       std::vector<EventNode>{{solo, 0}},
                       std::vector<DependencyEdge>{});
    vault::VaultedMonitor restored(vault_config, config(false),
                                   catalog, std::move(other));
    EXPECT_TRUE(restored.recovery().attempted);
    EXPECT_FALSE(restored.recovery().recovered);
    EXPECT_NE(restored.recovery().error.find("fingerprint"),
              std::string::npos)
        << restored.recovery().error;
    // Nothing from the incompatible history was replayed; the
    // refused files were set aside for autopsy, not overwritten.
    EXPECT_EQ(restored.recovery().replayedInputs, 0u);
    EXPECT_TRUE(std::filesystem::exists(
        vault::checkpointPath(dir.path) + ".refused"));
    EXPECT_TRUE(std::filesystem::exists(
        vault::ledgerPath(dir.path) + ".refused"));
    restored.feedLine("bogus line");
    EXPECT_EQ(restored.monitor().malformedLines(), 1u);
}

TEST_F(VaultMonitorTest, RecoveryRefusesCheckpointOfAnOlderFormat)
{
    VaultDir dir("vault_old_format");
    vault::VaultConfig vault_config;
    vault_config.directory = dir.path;
    std::vector<logging::LogRecord> records = workload(7, 8);
    {
        // With metrics on, the checkpoint carries health samples,
        // whose layout is what changed between versions 1 and 2.
        MonitorConfig instrumented = config(false);
        instrumented.observability.metrics = true;
        instrumented.observability.snapshotIntervalSeconds = 1.0;
        vault::VaultedMonitor vaulted(vault_config, instrumented,
                                      catalog, automata());
        for (const logging::LogRecord &record : records)
            vaulted.feed(record);
        ASSERT_TRUE(vaulted.checkpoint());
    }

    // Rewrite the header's version word (bytes 8-11, little-endian)
    // to 1, the format before the health-sample layout changed.
    const std::string path = vault::checkpointPath(dir.path);
    {
        std::fstream file(path,
                          std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(file.is_open());
        file.seekp(8);
        const char version_one[4] = {1, 0, 0, 0};
        file.write(version_one, 4);
        ASSERT_TRUE(file.good());
    }

    MonitorConfig instrumented = config(false);
    instrumented.observability.metrics = true;
    instrumented.observability.snapshotIntervalSeconds = 1.0;
    vault::VaultedMonitor restored(vault_config, instrumented, catalog,
                                   automata());
    EXPECT_TRUE(restored.recovery().attempted);
    EXPECT_FALSE(restored.recovery().recovered);
    EXPECT_EQ(restored.recovery().error,
              "checkpoint unreadable or incomplete");
    EXPECT_EQ(restored.recovery().replayedInputs, 0u);

    // The monitor starts from a fresh state: nothing of the old run
    // survives, and the stream checks as on a brand-new monitor.
    EXPECT_EQ(restored.monitor().stats().messages, 0u);
    EXPECT_EQ(restored.monitor().ingestStats().recordsDelivered, 0u);
    EXPECT_EQ(restored.monitor().activeGroups(), 0u);
    WorkflowMonitor fresh(instrumented, catalog, automata());
    std::string left, right;
    for (const logging::LogRecord &record : records) {
        left += render(fresh.feed(record), catalog);
        right += render(restored.feed(record), catalog);
    }
    left += render(fresh.finish(), catalog);
    right += render(restored.finish(), catalog);
    EXPECT_FALSE(left.empty());
    EXPECT_EQ(left, right);
}

// --- mutation fuzz: WAL scan and checkpoint restore -------------------

namespace {

/**
 * The whole-file scanner and the copying checkpoint writer the
 * streaming reader and writer replaced, kept verbatim (bar the
 * namespace) as the reference the mutants are checked against.
 */
namespace reference {

std::string
encodeU32(std::uint32_t value)
{
    std::string out(4, '\0');
    for (int i = 0; i < 4; ++i) {
        out[static_cast<std::size_t>(i)] =
            static_cast<char>((value >> (8 * i)) & 0xffu);
    }
    return out;
}

std::uint32_t
decodeU32(const char *bytes)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
        value |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes[i]))
                 << (8 * i);
    }
    return value;
}

constexpr std::size_t kHeaderBytes = 12;

std::string
frameBytes(const std::string &payload)
{
    std::string out =
        encodeU32(static_cast<std::uint32_t>(payload.size()));
    out += encodeU32(common::crc32(payload));
    out += payload;
    return out;
}

void
appendFrame(std::ofstream &out, const std::string &payload)
{
    std::string frame = frameBytes(payload);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    out.flush();
}

bool
writeFileHeader(std::ofstream &out, const char *magic)
{
    out.write(magic, 8);
    out << encodeU32(vault::kVaultVersion);
    out.flush();
    return out.good();
}

struct FrameScan
{
    bool headerOk = false;
    bool torn = false;
    std::size_t tornBytes = 0;
    std::vector<std::string> frames;
};

FrameScan
scanFrames(const std::string &path, const char *magic)
{
    FrameScan scan;
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        return scan;
    }
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    if (contents.size() < kHeaderBytes ||
        contents.compare(0, 8, magic, 8) != 0 ||
        decodeU32(contents.data() + 8) != vault::kVaultVersion) {
        return scan;
    }
    scan.headerOk = true;
    std::size_t pos = kHeaderBytes;
    while (pos < contents.size()) {
        if (contents.size() - pos < 8) {
            break;
        }
        std::size_t len = decodeU32(contents.data() + pos);
        std::uint32_t crc = decodeU32(contents.data() + pos + 4);
        if (contents.size() - pos - 8 < len) {
            break;
        }
        std::string payload = contents.substr(pos + 8, len);
        if (common::crc32(payload) != crc) {
            break;
        }
        scan.frames.push_back(std::move(payload));
        pos += 8 + len;
    }
    if (pos < contents.size()) {
        scan.torn = true;
        scan.tornBytes = contents.size() - pos;
    }
    return scan;
}

vault::LedgerScan
readLedger(const std::string &path)
{
    vault::LedgerScan scan;
    FrameScan frames = scanFrames(path, vault::kLedgerMagic);
    scan.headerOk = frames.headerOk;
    scan.torn = frames.torn;
    for (const std::string &payload : frames.frames) {
        common::BinReader in(payload);
        vault::LedgerInput input;
        std::uint8_t kind = in.readU8();
        input.seq = in.readU64();
        if (kind ==
            static_cast<std::uint8_t>(vault::LedgerEntry::RawLine)) {
            input.kind = vault::LedgerEntry::RawLine;
            input.line = in.readString();
        } else if (kind == static_cast<std::uint8_t>(
                               vault::LedgerEntry::Record)) {
            input.kind = vault::LedgerEntry::Record;
            logging::readLogRecord(in, input.record);
        } else {
            in.fail();
        }
        if (!in.ok()) {
            scan.torn = true;
            break;
        }
        scan.inputs.push_back(std::move(input));
    }
    return scan;
}

std::uint64_t
writeCheckpoint(
    const std::string &path,
    const std::vector<std::pair<vault::CheckpointSection, std::string>>
        &sections)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out.is_open() ||
            !writeFileHeader(out, vault::kCheckpointMagic)) {
            return 0;
        }
        for (const auto &[kind, body] : sections) {
            std::string payload =
                encodeU32(static_cast<std::uint32_t>(kind));
            payload += body;
            appendFrame(out, payload);
        }
        appendFrame(out, encodeU32(static_cast<std::uint32_t>(
                             vault::CheckpointSection::End)));
        if (!out.good()) {
            return 0;
        }
    }
    std::error_code ec;
    auto size = std::filesystem::file_size(tmp, ec);
    if (ec || std::rename(tmp.c_str(), path.c_str()) != 0) {
        return 0;
    }
    return static_cast<std::uint64_t>(size);
}

vault::CheckpointScan
readCheckpoint(const std::string &path)
{
    vault::CheckpointScan scan;
    FrameScan frames = scanFrames(path, vault::kCheckpointMagic);
    scan.headerOk = frames.headerOk;
    for (const std::string &payload : frames.frames) {
        if (payload.size() < 4) {
            break;
        }
        auto kind = static_cast<vault::CheckpointSection>(
            decodeU32(payload.data()));
        if (kind == vault::CheckpointSection::End) {
            scan.complete = true;
            break;
        }
        std::string body = payload.substr(4);
        if (kind == vault::CheckpointSection::Meta) {
            scan.hasMeta = vault::decodeMeta(body, scan.meta);
        }
        scan.sections.emplace_back(kind, std::move(body));
    }
    return scan;
}

} // namespace reference

void
expectSameLedger(const vault::LedgerScan &got,
                 const vault::LedgerScan &want, const std::string &what)
{
    EXPECT_EQ(got.headerOk, want.headerOk) << what;
    EXPECT_EQ(got.torn, want.torn) << what;
    ASSERT_EQ(got.inputs.size(), want.inputs.size()) << what;
    for (std::size_t i = 0; i < got.inputs.size(); ++i) {
        const vault::LedgerInput &a = got.inputs[i];
        const vault::LedgerInput &b = want.inputs[i];
        EXPECT_EQ(a.kind, b.kind) << what << " input " << i;
        EXPECT_EQ(a.seq, b.seq) << what << " input " << i;
        EXPECT_EQ(a.line, b.line) << what << " input " << i;
        EXPECT_EQ(logging::encodeLogLine(a.record),
                  logging::encodeLogLine(b.record))
            << what << " input " << i;
        EXPECT_EQ(a.record.id, b.record.id) << what << " input " << i;
    }
}

void
expectSameCheckpoint(const vault::CheckpointScan &got,
                     const vault::CheckpointScan &want,
                     const std::string &what)
{
    EXPECT_EQ(got.headerOk, want.headerOk) << what;
    EXPECT_EQ(got.complete, want.complete) << what;
    EXPECT_EQ(got.hasMeta, want.hasMeta) << what;
    if (got.hasMeta && want.hasMeta) {
        EXPECT_EQ(got.meta.modelFingerprint, want.meta.modelFingerprint)
            << what;
        EXPECT_EQ(got.meta.coveredSeq, want.meta.coveredSeq) << what;
    }
    EXPECT_EQ(got.sections, want.sections) << what;
}

/** Offsets of the frames of a framed file, up to the first frame
 *  whose header or payload does not fit in it. */
std::vector<std::size_t>
frameOffsets(const std::string &bytes)
{
    std::vector<std::size_t> out;
    std::size_t pos = reference::kHeaderBytes;
    while (pos <= bytes.size() && bytes.size() - pos >= 8) {
        const std::size_t length = reference::decodeU32(bytes.data() + pos);
        if (length > bytes.size() - pos - 8)
            break;
        out.push_back(pos);
        pos += 8 + length;
    }
    return out;
}

/**
 * One mutant of `golden`: flipped bytes, a truncation, a splice with
 * `other` (the other kind of vault file, or itself), a duplicated
 * frame, or flipped payload bytes under a re-sealed CRC — the case
 * that reaches the decoders behind the checksum.
 */
std::string
mutate(const std::string &golden, const std::string &other,
       common::Rng &rng)
{
    std::string bytes = golden;
    auto pick = [&rng](std::size_t size) {
        return static_cast<std::size_t>(rng.uniformU64() % (size + 1));
    };
    switch (rng.uniformInt(0, 4)) {
      case 0: { // flip bytes
        int flips = rng.uniformInt(1, 4);
        for (int i = 0; i < flips && !bytes.empty(); ++i)
            bytes[pick(bytes.size() - 1)] ^=
                static_cast<char>(rng.uniformInt(1, 255));
        break;
      }
      case 1: // truncate
        bytes.resize(pick(bytes.size()));
        break;
      case 2: { // splice: a prefix of one file, a suffix of another
        const std::string &donor = rng.chance(0.5) ? other : golden;
        std::size_t cut = pick(bytes.size());
        std::size_t from = pick(donor.size());
        bytes = bytes.substr(0, cut) + donor.substr(from);
        break;
      }
      case 3: { // duplicate a whole frame in place
        std::vector<std::size_t> frames = frameOffsets(golden);
        if (frames.empty())
            break;
        std::size_t i = pick(frames.size() - 1);
        std::size_t end =
            i + 1 < frames.size() ? frames[i + 1] : golden.size();
        bytes.insert(frames[i],
                     golden.substr(frames[i], end - frames[i]));
        break;
      }
      default: { // flip payload bytes, then re-seal the frame's CRC
        std::vector<std::size_t> frames = frameOffsets(golden);
        if (frames.empty())
            break;
        std::size_t frame = pick(frames.size() - 1);
        std::size_t at = frames[frame];
        std::size_t len = reference::decodeU32(bytes.data() + at);
        if (len == 0)
            break;
        int flips = rng.uniformInt(1, 3);
        for (int i = 0; i < flips; ++i)
            bytes[at + 8 + pick(len - 1)] ^=
                static_cast<char>(rng.uniformInt(1, 255));
        std::string crc = reference::encodeU32(common::crc32(
            std::string_view(bytes).substr(at + 8, len)));
        bytes.replace(at + 4, 4, crc);
        break;
      }
    }
    return bytes;
}

} // namespace

TEST_F(VaultMonitorTest, CheckpointAndLedgerBytesMatchTheCopyingWriter)
{
    VaultDir dir("vault_bytes");
    vault::VaultConfig vault_config;
    vault_config.directory = dir.path;
    std::vector<logging::LogRecord> records = workload(3, 24);
    const std::size_t half = records.size() / 2;
    {
        vault::VaultedMonitor vaulted(vault_config, config(true),
                                      catalog, automata());
        for (std::size_t i = 0; i < half; ++i)
            vaulted.feed(records[i]);
        ASSERT_TRUE(vaulted.checkpoint());
    }

    // The image the monitor wrote, re-written section by section
    // through the copying writer: the same bytes.
    const std::string path = vault::checkpointPath(dir.path);
    const std::string written = readFile(path);
    vault::CheckpointScan scan = reference::readCheckpoint(path);
    ASSERT_TRUE(scan.complete);
    ASSERT_EQ(scan.sections.size(), 3u);
    const std::string copy_path = dir.path + "/copy.ckpt";
    ASSERT_GT(reference::writeCheckpoint(copy_path, scan.sections), 0u);
    EXPECT_EQ(readFile(copy_path), written);

    // Same sections through both writers, including an empty body.
    const std::string a = dir.path + "/a.ckpt";
    const std::string b = dir.path + "/b.ckpt";
    ASSERT_GT(vault::writeCheckpoint(
                  a, {{scan.sections[0].first, scan.sections[0].second},
                      {vault::CheckpointSection::Interner, ""},
                      {scan.sections[2].first, scan.sections[2].second}}),
              0u);
    ASSERT_GT(reference::writeCheckpoint(
                  b, {scan.sections[0],
                      {vault::CheckpointSection::Interner, ""},
                      scan.sections[2]}),
              0u);
    EXPECT_EQ(readFile(a), readFile(b));

    // The ledger: framed by the appender, against the copying framer
    // over hand-encoded payloads.
    const std::string wal = dir.path + "/check.wal";
    const std::string giant(40000, 'g'); // longer than a read chunk
    {
        vault::WriteAheadLedger ledger(wal);
        ASSERT_TRUE(ledger.open());
        ledger.appendLine(7, "a wire line");
        ledger.appendRecord(8, records[0]);
        ledger.appendLine(9, giant);
        ledger.appendLine(10, "");
    }
    const std::string expected_wal = dir.path + "/expected.wal";
    {
        std::ofstream out(expected_wal, std::ios::binary);
        ASSERT_TRUE(reference::writeFileHeader(out, vault::kLedgerMagic));
        auto line_payload = [](std::uint64_t seq,
                               const std::string &line) {
            common::BinWriter w;
            w.writeU8(
                static_cast<std::uint8_t>(vault::LedgerEntry::RawLine));
            w.writeU64(seq);
            w.writeString(line);
            return w.takeBytes();
        };
        reference::appendFrame(out, line_payload(7, "a wire line"));
        common::BinWriter w;
        w.writeU8(static_cast<std::uint8_t>(vault::LedgerEntry::Record));
        w.writeU64(8);
        logging::writeLogRecord(w, records[0]);
        reference::appendFrame(out, w.bytes());
        reference::appendFrame(out, line_payload(9, giant));
        reference::appendFrame(out, line_payload(10, ""));
    }
    EXPECT_EQ(readFile(wal), readFile(expected_wal));
}

TEST_F(VaultMonitorTest, MutatedVaultFilesScanLikeTheWholeFileReader)
{
    // Golden files from a real run: a checkpoint at the midpoint, then
    // a ledger tail of records, wire lines and one line longer than a
    // read chunk.
    VaultDir golden_dir("vault_fuzz_golden");
    vault::VaultConfig golden_config;
    golden_config.directory = golden_dir.path;
    std::vector<logging::LogRecord> records = workload(17, 40);
    const std::size_t half = records.size() / 2;
    {
        vault::VaultedMonitor vaulted(golden_config, config(true),
                                      catalog, automata());
        for (std::size_t i = 0; i < half; ++i)
            vaulted.feed(records[i]);
        ASSERT_TRUE(vaulted.checkpoint());
        for (std::size_t i = half; i < records.size(); ++i) {
            if (i % 2 == 0)
                vaulted.feed(records[i]);
            else
                vaulted.feedLine(logging::encodeLogLine(records[i]));
            if (i == half + 3)
                vaulted.feedLine(std::string(70000, 'x'));
        }
    } // the kill: the ledger tail stays behind
    const std::string golden_ckpt =
        readFile(vault::checkpointPath(golden_dir.path));
    const std::string golden_wal =
        readFile(vault::ledgerPath(golden_dir.path));
    ASSERT_GT(frameOffsets(golden_wal).size(), 20u);
    ASSERT_EQ(frameOffsets(golden_ckpt).size(), 4u);

    VaultDir dir("vault_fuzz");
    vault::VaultConfig vault_config;
    vault_config.directory = dir.path;
    const std::string ckpt_path = vault::checkpointPath(dir.path);
    const std::string wal_path = vault::ledgerPath(dir.path);
    constexpr int kIterations = 300;
    // Read chunks that move the frame boundaries around, and the
    // whole-file mode the checkpoint reader uses.
    constexpr std::size_t kChunks[] = {13, vault::kGroupCommitBytes, 1000,
                                       vault::FrameReader::kWholeFile};
    common::Rng rng(20261019);
    int recovered = 0, refused = 0, torn = 0;
    for (int iter = 0; iter < kIterations; ++iter) {
        const std::string what = "iteration " + std::to_string(iter);
        // Mutate the checkpoint, the ledger, or both.
        const int target = iter % 3;
        const std::string ckpt =
            target == 1 ? golden_ckpt : mutate(golden_ckpt, golden_wal, rng);
        const std::string wal =
            target == 0 ? golden_wal : mutate(golden_wal, golden_ckpt, rng);
        // The mutant is on disk before anything reads it, so a crash
        // leaves it in the directory as the reproducer.
        std::filesystem::remove_all(dir.path);
        std::filesystem::create_directories(dir.path);
        writeFile(ckpt_path, ckpt);
        writeFile(wal_path, wal);

        const std::size_t chunk = kChunks[iter % 4];
        for (const auto &[path, magic] :
             {std::pair{wal_path, vault::kLedgerMagic},
              std::pair{ckpt_path, vault::kCheckpointMagic}}) {
            ReaderScan got = scanWithReader(path, magic, chunk);
            reference::FrameScan want = reference::scanFrames(path, magic);
            EXPECT_EQ(got.headerOk, want.headerOk) << what;
            EXPECT_EQ(got.torn, want.torn) << what;
            EXPECT_EQ(got.tornBytes, want.tornBytes) << what;
            EXPECT_EQ(got.frames, want.frames) << what;
        }
        // Decoded entries and sections.
        vault::LedgerScan ledger = vault::readLedger(wal_path);
        expectSameLedger(ledger, reference::readLedger(wal_path), what);
        expectSameCheckpoint(vault::readCheckpoint(ckpt_path),
                             reference::readCheckpoint(ckpt_path), what);
        torn += ledger.torn ? 1 : 0;

        // A restore over the mutant ends recovered or refused — one,
        // never both, never a crash — and the monitor keeps working.
        vault::VaultedMonitor restored(vault_config, config(true),
                                       catalog, automata());
        const vault::RecoverResult &rec = restored.recovery();
        EXPECT_NE(rec.recovered, !rec.error.empty())
            << what << ": " << rec.error;
        (rec.recovered ? recovered : refused) += 1;
        for (std::size_t i = records.size() - 4; i < records.size(); ++i)
            restored.feed(records[i]);
        restored.finish();
    }
    std::printf("mutants: %d recovered, %d refused, %d with a torn "
                "ledger\n",
                recovered, refused, torn);
    // The loop must reach both outcomes and the torn-tail path.
    EXPECT_GT(recovered, kIterations / 10);
    EXPECT_GT(refused, kIterations / 10);
    EXPECT_GT(torn, kIterations / 10);
}
