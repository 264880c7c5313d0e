/**
 * @file
 * End-to-end tests for the operator CLIs, driven as real child
 * processes (binary paths injected by CMake as compile definitions).
 *
 * The seer_postmortem cases pin the graceful-degradation contract:
 * an empty input or a BUNDLE file truncated mid-record — the classic
 * postmortem artifact, cut short by the very crash it documents —
 * must produce a diagnostic and a nonzero exit, never confidently
 * wrong renderings. The seer_vault cases pin the verify command's
 * exit-code contract over sound, torn, and missing vaults.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "analysis/diagnostics.hpp"
#include "core/mining/model_io.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "obs/observability.hpp"
#include "obs/profiler.hpp"
#include "obs/pulse.hpp"
#include "test_util.hpp"
#include "vault/vault.hpp"
#include "vault/vaulted_monitor.hpp"

using namespace cloudseer;
using namespace cloudseer::core;

namespace {

/** Exit status and combined stdout+stderr of a shell command. */
struct RunResult
{
    int status = -1;
    std::string output;
};

RunResult
run(const std::string &command)
{
    RunResult result;
    FILE *pipe = popen((command + " 2>&1").c_str(), "r");
    if (pipe == nullptr)
        return result;
    char buffer[512];
    while (fgets(buffer, sizeof buffer, pipe) != nullptr)
        result.output += buffer;
    int raw = pclose(pipe);
    result.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    return result;
}

/** Fresh scratch directory under the system temp root. */
class ToolDir
{
  public:
    explicit ToolDir(const std::string &name)
        : path((std::filesystem::temp_directory_path() /
                ("cloudseer_tools_" + name))
                   .string())
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~ToolDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::string
    file(const std::string &name) const
    {
        return (std::filesystem::path(path) / name).string();
    }

    const std::string path;
};

/**
 * Produce genuine BUNDLE lines by running a flight-armed monitor
 * through a divergence and a timeout — the same producer the tool is
 * pointed at in the field.
 */
std::string
makeBundleLines()
{
    auto catalog = std::make_shared<logging::TemplateCatalog>();
    logging::TemplateId ping = catalog->intern("svc-a", "ping <uuid>");
    logging::TemplateId pong = catalog->intern("svc-b", "pong <uuid>");
    std::vector<TaskAutomaton> automata;
    automata.emplace_back(
        "ping-pong", std::vector<EventNode>{{ping, 0}, {pong, 0}},
        std::vector<DependencyEdge>{{0, 1, true}});
    MonitorConfig config;
    config.timeoutSeconds = 10.0;
    config.observability.flightRecorder.perNodeCapacity = 8;
    WorkflowMonitor monitor(config, catalog, std::move(automata));

    const char *uuid1 = "11111111-1111-1111-1111-111111111111";
    const char *uuid2 = "22222222-2222-2222-2222-222222222222";
    logging::RecordId next = 1;
    auto record = [&](const std::string &service,
                      const std::string &body, double t,
                      logging::LogLevel level) {
        logging::LogRecord out;
        out.id = next++;
        out.timestamp = t;
        out.node = "controller";
        out.service = service;
        out.level = level;
        out.body = body;
        return out;
    };
    monitor.feed(record("svc-a", std::string("ping ") + uuid1, 1.0,
                        logging::LogLevel::Info));
    monitor.feed(record("svc-a", std::string("exploded on ") + uuid1,
                        1.5, logging::LogLevel::Error));
    monitor.feed(record("svc-a", std::string("ping ") + uuid2, 2.0,
                        logging::LogLevel::Info));
    monitor.finish();
    return monitor.forensicBundleJsonLines();
}

} // namespace

// --- seer_postmortem ------------------------------------------------

TEST(PostmortemTool, EmptyInputDiagnosesAndFailsNonzero)
{
    ToolDir dir("pm_empty");
    std::string path = dir.file("empty.jsonl");
    std::ofstream(path).close();
    RunResult result =
        run(std::string(SEER_POSTMORTEM_BIN) + " --list " + path);
    EXPECT_NE(result.status, 0);
    EXPECT_NE(result.output.find("empty"), std::string::npos)
        << result.output;
}

TEST(PostmortemTool, TruncatedBundleIsSkippedWithDiagnostic)
{
    std::string bundles = makeBundleLines();
    // Two bundles: the error divergence and the end-of-stream
    // timeout.
    ASSERT_EQ(std::count(bundles.begin(), bundles.end(), '\n'), 2);
    std::size_t cut = bundles.find('\n');
    ASSERT_NE(cut, std::string::npos);

    ToolDir dir("pm_truncated");
    std::string path = dir.file("bundles.jsonl");
    {
        // First record intact, second chopped mid-object — the shape
        // a crashed writer or a filled disk leaves behind.
        std::ofstream out(path);
        out << bundles.substr(0, cut + 1)
            << bundles.substr(cut + 1, 40) << "\n";
    }
    RunResult result =
        run(std::string(SEER_POSTMORTEM_BIN) + " --list " + path);
    EXPECT_NE(result.status, 0);
    EXPECT_NE(result.output.find("truncated"), std::string::npos)
        << result.output;
    // The intact record is still listed (degraded, not refused).
    EXPECT_NE(result.output.find("ERROR"), std::string::npos)
        << result.output;
}

TEST(PostmortemTool, AllRecordsTruncatedIsItsOwnDiagnosis)
{
    ToolDir dir("pm_all_truncated");
    std::string path = dir.file("bundles.jsonl");
    {
        std::ofstream out(path);
        out << "{\"kind\":\"BUNDLE\",\"reason\":\"ERR\n";
        out << "{\"kind\":\"BUNDLE\",\"node\":\"n\n";
    }
    RunResult result =
        run(std::string(SEER_POSTMORTEM_BIN) + " --list " + path);
    EXPECT_NE(result.status, 0);
    EXPECT_NE(result.output.find("every BUNDLE record was truncated"),
              std::string::npos)
        << result.output;
}

TEST(PostmortemTool, IntactInputStillExitsZero)
{
    std::string bundles = makeBundleLines();
    ToolDir dir("pm_intact");
    std::string path = dir.file("bundles.jsonl");
    std::ofstream(path) << bundles;
    RunResult result =
        run(std::string(SEER_POSTMORTEM_BIN) + " --list " + path);
    EXPECT_EQ(result.status, 0) << result.output;
}

// --- seer_stats -----------------------------------------------------

// --- seer_vault -----------------------------------------------------

TEST(VaultTool, VerifyAcceptsSoundVaultAndRejectsTornOne)
{
    ToolDir dir("vault_cli");
    auto catalog = std::make_shared<logging::TemplateCatalog>();
    logging::TemplateId solo = catalog->intern("svc", "solo <uuid>");
    std::vector<TaskAutomaton> automata;
    automata.emplace_back("solo",
                          std::vector<EventNode>{{solo, 0}},
                          std::vector<DependencyEdge>{});
    vault::VaultConfig vault_config;
    vault_config.directory = dir.path;
    {
        vault::VaultedMonitor vaulted(vault_config, MonitorConfig{},
                                      catalog, std::move(automata));
        logging::LogRecord record;
        record.id = 1;
        record.timestamp = 1.0;
        record.node = "n";
        record.service = "svc";
        record.body =
            "solo 33333333-3333-3333-3333-333333333333";
        vaulted.feed(record);
    }

    std::string bin(SEER_VAULT_BIN);
    RunResult sound = run(bin + " verify " + dir.path);
    EXPECT_EQ(sound.status, 0) << sound.output;
    RunResult inspect = run(bin + " inspect " + dir.path);
    EXPECT_EQ(inspect.status, 0) << inspect.output;
    EXPECT_NE(inspect.output.find("fingerprint"), std::string::npos);

    // A self-diff is clean.
    RunResult same =
        run(bin + " diff " + dir.path + " " + dir.path);
    EXPECT_EQ(same.status, 0) << same.output;

    // Smear garbage over the ledger tail: verify must now fail.
    {
        std::ofstream smear(vault::ledgerPath(dir.path),
                            std::ios::binary | std::ios::app);
        smear << "\x07torn";
    }
    RunResult torn = run(bin + " verify " + dir.path);
    EXPECT_NE(torn.status, 0) << torn.output;
    EXPECT_NE(torn.output.find("torn"), std::string::npos)
        << torn.output;
}

// --- seer_prove ---------------------------------------------------------

namespace {

std::string
goldenPath(const std::string &relative)
{
    return std::string(CLOUDSEER_SOURCE_DIR) + "/" + relative;
}

} // namespace

TEST(SeerProveCli, GoldenBundlesPassTheWerrorGate)
{
    const std::string bin = SEER_PROVE_BIN;
    RunResult gate = run(
        bin + " --werror " + goldenPath("tests/golden/handcrafted.model") +
        " " + goldenPath("tests/golden/mined_tasks.model"));
    EXPECT_EQ(gate.status, 0) << gate.output;
    EXPECT_NE(gate.output.find("certified unambiguous"),
              std::string::npos)
        << gate.output;
    EXPECT_NE(gate.output.find("0 error(s), 0 warning(s)"),
              std::string::npos)
        << gate.output;
}

TEST(SeerProveCli, JsonReportIsGoldenPinned)
{
    const std::string bin = SEER_PROVE_BIN;
    RunResult report = run(
        bin + " --json " + goldenPath("tests/golden/handcrafted.model"));
    EXPECT_EQ(report.status, 0) << report.output;
    EXPECT_NE(report.output.find("\"tool\": \"seer-prove\""),
              std::string::npos)
        << report.output;
    EXPECT_NE(report.output.find("\"errors\": 0"), std::string::npos);
    // All 8 handcrafted signatures are uuid-separated and certify;
    // any drift here is a calibration regression.
    EXPECT_NE(report.output.find("\"certified\": 8"), std::string::npos)
        << report.output;
}

TEST(SeerProveCli, CertificateOutEmbedsAndReloads)
{
    const std::string bin = SEER_PROVE_BIN;
    ToolDir dir("prove_cert");
    std::string out = dir.file("proved.model");
    RunResult embed = run(
        bin + " --certificate-out " + out + " " +
        goldenPath("tests/golden/handcrafted.model"));
    EXPECT_EQ(embed.status, 0) << embed.output;

    std::ifstream proved(out);
    ASSERT_TRUE(proved.good());
    std::string contents((std::istreambuf_iterator<char>(proved)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("certificate "), std::string::npos);
    EXPECT_NE(contents.find("verdict "), std::string::npos);

    // The certified bundle re-analyzes identically.
    RunResult again = run(bin + " --werror " + out);
    EXPECT_EQ(again.status, 0) << again.output;
}

TEST(SeerProveCli, AmbiguousBundleFailsUnderWerror)
{
    // Two tasks sharing an identifier-free template chain: the
    // injected-ambiguity acceptance case, via the CLI gate.
    testutil::LetterCatalog letters;
    std::vector<TaskAutomaton> bundle;
    bundle.push_back(testutil::makeLetterAutomaton(
        letters, "alpha", {"S", "T"}, {{"S", "T"}}));
    bundle.push_back(testutil::makeLetterAutomaton(
        letters, "beta", {"S", "T"}, {{"S", "T"}}));
    ToolDir dir("prove_ambig");
    std::string path = dir.file("ambiguous.model");
    {
        std::ofstream out(path);
        saveModels(out, *letters.catalog, bundle, {});
    }

    const std::string bin = SEER_PROVE_BIN;
    RunResult plain = run(bin + " " + path);
    EXPECT_EQ(plain.status, 0) << plain.output;
    EXPECT_NE(plain.output.find("SL020"), std::string::npos)
        << plain.output;
    EXPECT_NE(plain.output.find("SL021"), std::string::npos)
        << plain.output;

    RunResult werror = run(bin + " --werror " + path);
    EXPECT_EQ(werror.status, 1) << werror.output;
}

// The --list/--explain catalog is generated from
// analysis::diagnosticCatalog(), the same table the passes emit from.
// This test is the drift gate: every ID the library can produce must
// be listed and explainable by the CLI, so a new diagnostic that
// forgets the catalog entry (the old SL010 hole) fails here, not in
// an operator's terminal.
TEST(SeerLintCli, CatalogParityWithTheAnalysisLayer)
{
    const std::string bin = SEER_LINT_BIN;
    RunResult list = run(bin + " --list");
    ASSERT_EQ(list.status, 0) << list.output;

    for (const analysis::DiagnosticInfo &info :
         analysis::diagnosticCatalog()) {
        EXPECT_NE(list.output.find(info.id), std::string::npos)
            << "--list is missing " << info.id;

        RunResult explain = run(bin + " --explain " + info.id);
        EXPECT_EQ(explain.status, 0) << info.id << ": " << explain.output;
        EXPECT_NE(explain.output.find(info.title), std::string::npos)
            << "--explain " << info.id << " lost its title";
    }

    // Unknown IDs must stay an error, or typos would pass silently.
    EXPECT_NE(run(bin + " --explain SL999").status, 0);
}

// --- seer_pulse -----------------------------------------------------

namespace {

/** Three HEALTH snapshots that walk shed_burn fire → resolve. */
std::string
makeHealthLines()
{
    obs::HealthSample s0;
    s0.time = 0.0;
    s0.messages = 100;
    obs::HealthSample s1 = s0;
    s1.time = 1.0;
    s1.messages = 200;
    s1.groupsShed = 5; // shed in-window: shed_burn fires immediately
    obs::HealthSample s2 = s1;
    s2.time = 100.0; // the shed ages out of the 60 s window
    s2.messages = 300;
    return s0.toJson() + "\n" + s1.toJson() + "\n" + s2.toJson() +
           "\n";
}

} // namespace

TEST(PulseTool, RulesCheckValidatesAndRejectsWithLineNumbers)
{
    ToolDir dir("pulse_rules");
    std::string good = dir.file("good.rules");
    std::ofstream(good)
        << "# pack\n"
           "rule err signal=error_rate threshold=0.02 pending=30 "
           "hold=60 resolve=0.4\n"
           "rule wal signal=wal_append_p99_us threshold=500 ewma\n";
    const std::string bin = SEER_PULSE_BIN;
    RunResult ok = run(bin + " rules-check " + good);
    EXPECT_EQ(ok.status, 0) << ok.output;
    EXPECT_NE(ok.output.find("2 rules ok"), std::string::npos)
        << ok.output;
    EXPECT_NE(ok.output.find("error_rate"), std::string::npos);
    EXPECT_NE(ok.output.find("(ewma)"), std::string::npos);

    std::string bad = dir.file("bad.rules");
    std::ofstream(bad) << "rule ok signal=error_rate threshold=0.1\n"
                          "rule bad signal=cpu_rate threshold=1\n";
    RunResult rejected = run(bin + " rules-check " + bad);
    EXPECT_EQ(rejected.status, 1) << rejected.output;
    EXPECT_NE(rejected.output.find("line 2"), std::string::npos)
        << rejected.output;

    EXPECT_EQ(run(bin + " rules-check " + dir.file("missing.rules"))
                  .status,
              2);
}

TEST(PulseTool, ReplayRehearsesAlertsOverRecordedHealth)
{
    ToolDir dir("pulse_replay");
    std::string path = dir.file("health.jsonl");
    std::ofstream(path) << makeHealthLines();

    const std::string bin = SEER_PULSE_BIN;
    RunResult result = run(bin + " replay " + path);
    EXPECT_EQ(result.status, 0) << result.output;
    EXPECT_NE(result.output.find("\"kind\":\"ALERT\""),
              std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("\"rule\":\"shed_burn\""),
              std::string::npos);
    EXPECT_NE(result.output.find("\"state\":\"firing\""),
              std::string::npos);
    EXPECT_NE(result.output.find("\"state\":\"resolved\""),
              std::string::npos);
    EXPECT_NE(result.output.find("replayed 3 snapshots, 2 alert"),
              std::string::npos)
        << result.output;

    // A stream with no HEALTH records is a diagnosed failure.
    std::string empty = dir.file("empty.jsonl");
    std::ofstream(empty) << "{\"kind\":\"SUMMARY\"}\n";
    RunResult refused = run(bin + " replay " + empty);
    EXPECT_EQ(refused.status, 1) << refused.output;
    EXPECT_NE(refused.output.find("no HEALTH records"),
              std::string::npos);
}

TEST(PulseTool, ScrapeDiagnosesBadAndUnreachableEndpoints)
{
    const std::string bin = SEER_PULSE_BIN;
    RunResult malformed = run(bin + " scrape not-an-endpoint");
    EXPECT_EQ(malformed.status, 2) << malformed.output;
    EXPECT_NE(malformed.output.find("bad endpoint"),
              std::string::npos);
    // Port 1 is never listening: connect failure, exit 2.
    RunResult unreachable = run(bin + " scrape 127.0.0.1:1");
    EXPECT_EQ(unreachable.status, 2) << unreachable.output;
    EXPECT_NE(unreachable.output.find("cannot reach"),
              std::string::npos);
}

// --- seer_stats × seer_pulse (ALERT interleave) ---------------------

namespace {

/** One genuine ALERT line from the same renderer the monitor uses. */
std::string
makeAlertLine()
{
    obs::AlertRecord rec;
    rec.rule = "shed_burn";
    rec.signal = obs::PulseSignal::ShedRate;
    rec.state = "firing";
    rec.time = 1.0;
    rec.since = 1.0;
    rec.value = 5.0;
    rec.threshold = 0.0;
    return rec.toJson() + "\n";
}

} // namespace

TEST(StatsTool, TableInterleavesAlertCallouts)
{
    ToolDir dir("stats_alerts");
    std::string path = dir.file("stream.jsonl");
    std::ofstream(path) << makeHealthLines() << makeAlertLine();

    RunResult result = run(std::string(SEER_STATS_BIN) + " " + path);
    EXPECT_EQ(result.status, 0) << result.output;
    EXPECT_NE(result.output.find("ALERT firing"), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("shed_burn"), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("shed_rate=5"), std::string::npos)
        << result.output;
}

TEST(StatsTool, FollowSurfacesAlertsAndHonorsPollLimit)
{
    ToolDir dir("stats_follow");
    std::string path = dir.file("stream.jsonl");
    std::ofstream(path) << makeHealthLines() << makeAlertLine();

    // --poll-limit bounds the tail so the test terminates: the rows
    // already present are printed, then two idle polls end the run.
    RunResult result = run(std::string(SEER_STATS_BIN) +
                           " --follow --poll-limit 2 " + path);
    EXPECT_EQ(result.status, 0) << result.output;
    EXPECT_NE(result.output.find("ALERT firing"), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("shed_burn"), std::string::npos);
}

// --- seer_prof --------------------------------------------------------

namespace {

/**
 * A hand-built profile with known shares (check 12, sink 6, untagged
 * 2 of 20 samples → 90% tagged), serialised through the same toJson()
 * every real producer uses — deterministic input for the viewer.
 */
obs::Profile
syntheticProfile(std::uint64_t check, std::uint64_t sink,
                 std::uint64_t untagged)
{
    obs::Profile profile;
    profile.hz = 99;
    profile.durationSeconds = 2.0;
    profile.samples = check + sink + untagged;
    profile.dropped = 1;
    profile.stageSamples[static_cast<std::size_t>(
        obs::ProfStage::Check)] = check;
    profile.stageSamples[static_cast<std::size_t>(
        obs::ProfStage::Sink)] = sink;
    profile.stageSamples[static_cast<std::size_t>(
        obs::ProfStage::None)] = untagged;
    obs::ProfileStack stack;
    stack.stage = obs::ProfStage::Check;
    stack.count = check;
    stack.frames = {"main", "WorkflowMonitor::feed",
                    "InterleavedChecker::feed"};
    profile.stacks.push_back(stack);
    stack = {};
    stack.stage = obs::ProfStage::Sink;
    stack.count = sink;
    stack.frames = {"main", "ingestLoop"};
    profile.stacks.push_back(stack);
    stack = {};
    stack.stage = obs::ProfStage::None;
    stack.count = untagged;
    stack.frames = {"main", "idleWait"};
    profile.stacks.push_back(stack);
    return profile;
}

} // namespace

TEST(ProfTool, TopRendersStageTableAndMinTaggedGate)
{
    ToolDir dir("prof_top");
    std::string path = dir.file("profile.json");
    std::ofstream(path) << syntheticProfile(12, 6, 2).toJson();
    const std::string bin = SEER_PROF_BIN;

    RunResult result = run(bin + " top " + path);
    EXPECT_EQ(result.status, 0) << result.output;
    EXPECT_NE(result.output.find("20 samples at 99 Hz"),
              std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("90.0% tagged"), std::string::npos)
        << result.output;
    // Stage table carries check at 60% and the hottest self frame is
    // the checker's leaf.
    EXPECT_NE(result.output.find("check"), std::string::npos);
    EXPECT_NE(result.output.find("60.0%"), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("InterleavedChecker::feed"),
              std::string::npos);

    // The CI gate: 90% tagged clears a 0.85 floor, misses 0.95.
    EXPECT_EQ(run(bin + " top " + path + " --min-tagged 0.85").status,
              0);
    RunResult failed = run(bin + " top " + path + " --min-tagged 0.95");
    EXPECT_EQ(failed.status, 1) << failed.output;
    EXPECT_NE(failed.output.find("FAIL: tagged fraction"),
              std::string::npos)
        << failed.output;

    // Unreadable and non-profile inputs are usage-class failures.
    EXPECT_EQ(run(bin + " top " + dir.file("absent.json")).status, 2);
    std::ofstream(dir.file("other.json")) << "{\"kind\": \"HEALTH\"}";
    EXPECT_EQ(run(bin + " top " + dir.file("other.json")).status, 2);
}

TEST(ProfTool, FoldedMatchesTheProfilesOwnCollapsedForm)
{
    ToolDir dir("prof_folded");
    obs::Profile profile = syntheticProfile(12, 6, 2);
    std::string path = dir.file("profile.json");
    std::ofstream(path) << profile.toJson();

    RunResult result =
        run(std::string(SEER_PROF_BIN) + " folded " + path);
    EXPECT_EQ(result.status, 0) << result.output;
    // The JSON round-trips to exactly the folded text the profile
    // itself renders — one archived artifact regenerates the other.
    EXPECT_EQ(result.output, profile.toFolded());
    EXPECT_NE(result.output.find("[check];main;"), std::string::npos)
        << result.output;
}

TEST(ProfTool, DiffRanksGrownFramesFirstAndRefusesEmptyProfiles)
{
    ToolDir dir("prof_diff");
    std::string base_path = dir.file("base.json");
    std::string fresh_path = dir.file("fresh.json");
    // Check share grows 60% → 80%: the checker frames must top the
    // regression ranking; the shrinking ingest frame must not.
    std::ofstream(base_path) << syntheticProfile(12, 6, 2).toJson();
    std::ofstream(fresh_path) << syntheticProfile(20, 3, 2).toJson();
    const std::string bin = SEER_PROF_BIN;

    RunResult result = run(bin + " diff " + base_path + " " +
                           fresh_path + " --limit 2");
    EXPECT_EQ(result.status, 0) << result.output;
    EXPECT_NE(result.output.find("base 20 samples vs fresh 25"),
              std::string::npos)
        << result.output;
    std::size_t checker =
        result.output.find("InterleavedChecker::feed");
    ASSERT_NE(checker, std::string::npos) << result.output;
    EXPECT_EQ(result.output.find("ingestLoop"), std::string::npos)
        << result.output;

    std::string empty_path = dir.file("empty.json");
    std::ofstream(empty_path) << syntheticProfile(0, 0, 0).toJson();
    RunResult refused =
        run(bin + " diff " + base_path + " " + empty_path);
    EXPECT_EQ(refused.status, 2) << refused.output;
    EXPECT_NE(refused.output.find("empty profile"), std::string::npos);
}

// --- seer_bench_diff --------------------------------------------------

namespace {

/** A one-level throughput document in the bench's own key layout. */
std::string
benchJson(double indexed_mps, double prove_speedup,
          double obs_overhead, bool with_speedup = true)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\n  \"bench\": \"throughput\",\n  \"levels\": [\n"
        << "    {\"inflight\": 10, \"messages\": 4000,\n"
        << "     \"indexed\": {\"mps\": " << indexed_mps
        << ", \"p50_us\": 0.5, \"p99_us\": 1.2},\n"
        << "     \"obs_overhead\": " << obs_overhead << ",\n";
    if (with_speedup)
        out << "     \"prove_speedup\": " << prove_speedup << ",\n";
    out << "     \"speedup\": 2.0}\n  ]\n}\n";
    return out.str();
}

} // namespace

TEST(BenchDiffTool, CommittedBaselineSelfCompareIsClean)
{
    std::string committed =
        std::string(CLOUDSEER_SOURCE_DIR) + "/BENCH_throughput.json";
    RunResult result = run(std::string(SEER_BENCH_DIFF_BIN) + " " +
                           committed + " " + committed);
    EXPECT_EQ(result.status, 0) << result.output;
    EXPECT_NE(result.output.find("ok: no regressions"),
              std::string::npos)
        << result.output;
}

TEST(BenchDiffTool, SyntheticRegressionTripsAndRatiosOnlyScopes)
{
    ToolDir dir("bench_diff");
    std::string base_path = dir.file("base.json");
    std::string fresh_path = dir.file("fresh.json");
    std::ofstream(base_path) << benchJson(1000000.0, 1.5, 0.05);
    // A 20% throughput drop — past the default 10% band — with the
    // hardware-independent ratios and overheads held steady.
    std::ofstream(fresh_path) << benchJson(800000.0, 1.5, 0.05);
    const std::string bin = SEER_BENCH_DIFF_BIN;

    RunResult tripped = run(bin + " " + base_path + " " + fresh_path);
    EXPECT_EQ(tripped.status, 1) << tripped.output;
    EXPECT_NE(tripped.output.find("indexed.mps"), std::string::npos)
        << tripped.output;
    EXPECT_NE(tripped.output.find("REGRESSED"), std::string::npos);
    EXPECT_NE(tripped.output.find("FAIL:"), std::string::npos);

    // --ratios-only drops the absolute-throughput class (the
    // cross-hardware CI mode), and nothing else regressed here.
    RunResult scoped = run(bin + " --ratios-only " + base_path + " " +
                           fresh_path);
    EXPECT_EQ(scoped.status, 0) << scoped.output;

    // A generous tolerance absorbs the same drop.
    EXPECT_EQ(run(bin + " --tolerance 0.25 " + base_path + " " +
                  fresh_path)
                  .status,
              0);

    // A ratio regression (speedup 1.5 → 1.0) survives --ratios-only.
    std::string slow_path = dir.file("slow.json");
    std::ofstream(slow_path) << benchJson(1000000.0, 1.0, 0.05);
    RunResult ratio = run(bin + " --ratios-only " + base_path + " " +
                          slow_path);
    EXPECT_EQ(ratio.status, 1) << ratio.output;
    EXPECT_NE(ratio.output.find("prove_speedup"), std::string::npos);

    // Overheads gate on an absolute band: +0.15 regresses, +0.05 not.
    std::string heavy_path = dir.file("heavy.json");
    std::ofstream(heavy_path) << benchJson(1000000.0, 1.5, 0.20);
    EXPECT_EQ(run(bin + " " + base_path + " " + heavy_path).status, 1);
    std::string light_path = dir.file("light.json");
    std::ofstream(light_path) << benchJson(1000000.0, 1.5, 0.10);
    EXPECT_EQ(run(bin + " " + base_path + " " + light_path).status, 0);
}

TEST(BenchDiffTool, MetricMissingFromFreshRunIsARegression)
{
    ToolDir dir("bench_diff_missing");
    std::string base_path = dir.file("base.json");
    std::string fresh_path = dir.file("fresh.json");
    std::ofstream(base_path) << benchJson(1000000.0, 1.5, 0.05);
    std::ofstream(fresh_path)
        << benchJson(1000000.0, 1.5, 0.05, /*with_speedup=*/false);
    RunResult result = run(std::string(SEER_BENCH_DIFF_BIN) + " " +
                           base_path + " " + fresh_path);
    EXPECT_EQ(result.status, 1) << result.output;
    EXPECT_NE(result.output.find("MISSING from fresh run"),
              std::string::npos)
        << result.output;

    // --json renders the same verdicts machine-readably.
    RunResult as_json = run(std::string(SEER_BENCH_DIFF_BIN) +
                            " --json " + base_path + " " + fresh_path);
    EXPECT_EQ(as_json.status, 1);
    EXPECT_NE(as_json.output.find("\"kind\": \"BENCH_DIFF\""),
              std::string::npos)
        << as_json.output;
    EXPECT_NE(as_json.output.find("prove_speedup"), std::string::npos);

    // Non-bench input is a usage-class failure, not a verdict.
    std::string bogus_path = dir.file("bogus.json");
    std::ofstream(bogus_path) << "{\"bench\": \"soak\"}";
    EXPECT_EQ(run(std::string(SEER_BENCH_DIFF_BIN) + " " + bogus_path +
                  " " + fresh_path)
                  .status,
              2);
}

// --- idle-stream warnings (seer_stats --follow, seer_pulse watch) -----

TEST(StatsTool, FollowWarnsOnceWhenTheStreamYieldsNothing)
{
    ToolDir dir("stats_idle");
    std::string path = dir.file("stream.jsonl");
    std::ofstream(path) << ""; // a stream that never produces
    // Five idle polls (~1.25 s) cross the one-second warning
    // threshold before --poll-limit ends the run.
    RunResult result = run(std::string(SEER_STATS_BIN) +
                           " --follow --poll-limit 5 " + path);
    EXPECT_EQ(result.status, 0) << result.output;
    EXPECT_NE(result.output.find("no records from"), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("still waiting"), std::string::npos);
}

TEST(PulseTool, WatchWarnsWhenHealthzTimeFreezes)
{
    obs::TelemetryServer server("127.0.0.1", 0);
    ASSERT_TRUE(server.start()) << server.error();
    obs::TelemetryServer::Documents docs;
    // A monitor that answers but never publishes anything new: the
    // snapshot clock is frozen across every poll.
    docs.healthz = "{\"status\":\"ok\",\"time\":42.5,\"firing\":[]}";
    docs.metrics = "seer_up 1\n";
    server.publish(std::move(docs));

    RunResult result =
        run(std::string(SEER_PULSE_BIN) + " watch 127.0.0.1:" +
            std::to_string(server.port()) +
            " --interval 0.05 --count 3");
    server.stop();
    EXPECT_EQ(result.status, 0) << result.output;
    EXPECT_NE(result.output.find("time stuck at 42.5"),
              std::string::npos)
        << result.output;
    // The warning is once-per-stretch, not once-per-poll.
    std::size_t first = result.output.find("time stuck");
    EXPECT_EQ(result.output.find("time stuck", first + 1),
              std::string::npos)
        << result.output;
}
