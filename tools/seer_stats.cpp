/**
 * @file
 * seer-stats: pretty-printer for seer-scope health snapshots.
 *
 * Consumes the health-JSON-lines stream the monitor emits (one
 * {"kind":"HEALTH",...} object per line, DESIGN.md §11) and renders
 * it for a terminal. Three modes:
 *
 *     seer-stats health.jsonl            # one table row per snapshot
 *     seer-stats --last health.jsonl     # detailed view, final sample
 *     seer-stats --follow health.jsonl   # tail the file as it grows
 *     seer-stats --summary report.jsonl  # final {"kind":"SUMMARY"}
 *
 * The first three modes read HEALTH snapshots (the table and --follow
 * views also surface seer-pulse {"kind":"ALERT"} records interleaved
 * where the stream carries them) and skip everything else; --summary
 * reads the trailing checker+ingest SUMMARY record a wire_replay /
 * monitor_cloud report stream closes with, so those runs are
 * self-describing without a debugger. Reads stdin when no file is
 * given (not with --follow).
 *
 * --follow survives log rotation: when the path starts naming a new
 * inode (rename-and-recreate rotation) or the file shrinks below the
 * consumed offset (truncate-in-place), the tool reopens and resumes
 * from the top of the new contents instead of waiting forever on the
 * old file's EOF.
 */

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/health_fields.hpp"

namespace {

using namespace cloudseer;

/**
 * Extract the value after `"key":` at or past `from`, as raw text up
 * to the next delimiter. Returns "" when absent. ALERT and SUMMARY
 * records never repeat a key name where these readers look, so
 * substring search keyed on the quoted name is unambiguous. HEALTH
 * records are read with HealthSample::fromJson.
 */
std::string
rawValue(const std::string &line, const std::string &key,
         std::size_t from = 0)
{
    std::string needle = "\"" + key + "\":";
    std::size_t at = line.find(needle, from);
    if (at == std::string::npos)
        return "";
    std::size_t start = at + needle.size();
    std::size_t end = line.find_first_of(",}", start);
    if (end == std::string::npos)
        end = line.size();
    return line.substr(start, end - start);
}

double
numberValue(const std::string &line, const std::string &key,
            std::size_t from = 0)
{
    std::string raw = rawValue(line, key, from);
    if (raw.empty())
        return 0.0;
    try {
        return std::stod(raw);
    } catch (...) {
        return 0.0;
    }
}

/** Offset of a nested section like "ingest":{...}, or npos. */
std::size_t
sectionStart(const std::string &line, const std::string &name)
{
    return line.find("\"" + name + "\":{");
}

bool
isSummaryLine(const std::string &line)
{
    return line.find("\"kind\":\"SUMMARY\"") != std::string::npos;
}

bool
isAlertLine(const std::string &line)
{
    return line.find("\"kind\":\"ALERT\"") != std::string::npos;
}

/** The value after `"key":"` up to the closing quote ("" if absent). */
std::string
stringValue(const std::string &line, const std::string &key)
{
    std::string needle = "\"" + key + "\":\"";
    std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return "";
    std::size_t start = at + needle.size();
    std::size_t end = line.find('"', start);
    if (end == std::string::npos)
        return "";
    return line.substr(start, end - start);
}

/**
 * One {"kind":"ALERT"} lifecycle record (seer-pulse, DESIGN.md §16),
 * rendered as a full-width callout so it stands out between table
 * rows in the default and --follow views.
 */
void
printAlert(const std::string &line)
{
    std::printf("%10.2f ALERT %-8s %s: %s=%.6g threshold=%.6g "
                "(since t=%.2f)\n",
                numberValue(line, "time"),
                stringValue(line, "state").c_str(),
                stringValue(line, "rule").c_str(),
                stringValue(line, "signal").c_str(),
                numberValue(line, "value"),
                numberValue(line, "threshold"),
                numberValue(line, "since"));
}

/** Detailed view of one {"kind":"SUMMARY"} checker+ingest record. */
void
printSummary(const std::string &line)
{
    auto row = [](const char *label, double value) {
        std::printf("  %-28s %.6g\n", label, value);
    };
    std::printf("run summary @ t=%.3f\n", numberValue(line, "time"));
    std::printf("checker:\n");
    row("messages", numberValue(line, "messages"));
    row("decisive", numberValue(line, "decisive"));
    row("ambiguous", numberValue(line, "ambiguous"));
    std::size_t rec = sectionStart(line, "recoveries");
    row("recovery a (pass unknown)", numberValue(line, "a", rec));
    row("recovery b (new sequence)", numberValue(line, "b", rec));
    row("recovery c (other set)", numberValue(line, "c", rec));
    row("recovery d (false dep)", numberValue(line, "d", rec));
    row("unmatched", numberValue(line, "unmatched"));
    row("accepted", numberValue(line, "accepted"));
    row("errors reported", numberValue(line, "errors"));
    row("timeouts reported", numberValue(line, "timeouts"));
    row("timeouts suppressed",
        numberValue(line, "timeoutsSuppressed"));
    row("latency anomalies", numberValue(line, "latencyAnomalies"));
    row("groups shed", numberValue(line, "shed"));
    row("consume attempts", numberValue(line, "consumeAttempts"));
    row("decisive fraction", numberValue(line, "decisiveFraction"));
    std::printf("ingest:\n");
    std::size_t ing = sectionStart(line, "ingest");
    row("lines", numberValue(line, "lines", ing));
    row("delivered", numberValue(line, "delivered", ing));
    row("malformed", numberValue(line, "malformed", ing));
    row("clamped", numberValue(line, "clamped", ing));
    row("duplicates suppressed", numberValue(line, "duplicates", ing));
    row("forced releases", numberValue(line, "forcedReleases", ing));
    row("reorder-buffer peak", numberValue(line, "reorderPeak", ing));
}

void
printHeader()
{
    std::printf("%10s %10s %8s %8s %9s %7s %7s %6s %9s\n", "time",
                "messages", "groups", "idsets", "decisive%", "errors",
                "timeout", "shed", "p99us");
}

/** A counter as the table and detail views print it. */
double
num(std::uint64_t value)
{
    return static_cast<double>(value);
}

void
printRow(const obs::HealthSample &s)
{
    std::printf("%10.2f %10.0f %8.0f %8.0f %8.1f%% %7.0f %7.0f %6.0f "
                "%9.1f\n",
                s.time, num(s.messages), num(s.activeGroups),
                num(s.activeIdentifierSets), s.decisiveFraction * 100.0,
                num(s.errorsReported), num(s.timeoutsReported),
                num(s.groupsShed), s.feedP99us);
}

void
printDetail(const obs::HealthSample &s)
{
    auto row = [](const char *label, double value) {
        std::printf("  %-28s %.6g\n", label, value);
    };
    std::printf("health snapshot @ t=%.3f\n", s.time);
    std::printf("checker:\n");
    row("messages", num(s.messages));
    row("decisive", num(s.decisive));
    row("ambiguous", num(s.ambiguous));
    row("recovery a (pass unknown)", num(s.recoveredPassUnknown));
    row("recovery b (new sequence)", num(s.recoveredNewSequence));
    row("recovery c (other set)", num(s.recoveredOtherSet));
    row("recovery d (false dep)", num(s.recoveredFalseDependency));
    row("unmatched", num(s.unmatched));
    row("accepted", num(s.accepted));
    row("errors reported", num(s.errorsReported));
    row("timeouts reported", num(s.timeoutsReported));
    row("timeouts suppressed", num(s.timeoutsSuppressed));
    row("groups shed", num(s.groupsShed));
    row("decisive fraction", s.decisiveFraction);
    row("active groups", num(s.activeGroups));
    row("identifier sets", num(s.activeIdentifierSets));
    std::printf("ingest:\n");
    row("lines", num(s.linesSeen));
    row("malformed", num(s.malformedLines));
    row("clamped", num(s.nonMonotonicClamped));
    row("duplicates suppressed", num(s.duplicatesSuppressed));
    row("forced releases", num(s.forcedReleases));
    row("reorder-buffer peak", num(s.reorderBufferPeak));
    std::printf("interner:\n");
    double hits = num(s.internerHits);
    double misses = num(s.internerMisses);
    row("size", num(s.internerSize));
    row("hit rate", hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
    std::printf("timeout policy:\n");
    row("resolutions", num(s.timeoutResolutions));
    row("default fallbacks", num(s.timeoutDefaultFallbacks));
    std::printf("feed latency (us):\n");
    row("p50", s.feedP50us);
    row("p90", s.feedP90us);
    row("p99", s.feedP99us);
    row("max", s.feedMaxUs);
}

int
usage(std::ostream &out, int status)
{
    out << "usage: seer-stats [--last | --follow | --summary] "
           "[stream.jsonl]\n"
           "  (default) one table row per HEALTH snapshot, ALERT\n"
           "            records interleaved where they occurred\n"
           "  --last    detailed view of the final snapshot\n"
           "  --follow  tail the file, printing rows as they appear\n"
           "  --summary detailed view of the trailing SUMMARY record\n"
           "  --poll-limit N  with --follow: exit after N idle polls\n"
           "reads stdin when no file is given (except --follow)\n";
    return status;
}

int
follow(const std::string &path, long poll_limit)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "seer-stats: cannot open " << path << "\n";
        return 2;
    }
    // One full second of 250ms polls with nothing new = one warning.
    constexpr long kIdleWarnPolls = 4;
    long idle_polls = 0;
    bool warned_idle = false;
    struct stat st = {};
    ino_t inode = 0;
    dev_t device = 0;
    if (::stat(path.c_str(), &st) == 0) {
        inode = st.st_ino;
        device = st.st_dev;
    }
    printHeader();
    std::string line;
    std::streamoff consumed = 0;
    while (true) {
        if (std::getline(in, line)) {
            std::streamoff at = in.tellg();
            if (at >= 0)
                consumed = at;
            idle_polls = 0;
            warned_idle = false;
            if (obs::HealthSample::isJson(line))
                printRow(obs::HealthSample::fromJson(line));
            else if (isAlertLine(line))
                printAlert(line);
            continue;
        }
        if (!in.eof())
            break;
        // Wait for the writer to append more, then retry from the
        // current offset. A follow that sees nothing for a full
        // stretch says so once (stderr, so piped tables stay clean)
        // instead of sitting silently on a dead or mistargeted file;
        // the counter re-arms as soon as data flows again.
        // poll_limit bounds the idle polls (testing knob;
        // 0 = follow forever).
        ++idle_polls;
        if (!warned_idle && idle_polls >= kIdleWarnPolls) {
            std::cerr << "seer-stats: no records from " << path
                      << " for "
                      << 0.25 * static_cast<double>(idle_polls)
                      << "s; still waiting\n";
            warned_idle = true;
        }
        if (poll_limit > 0 && idle_polls >= poll_limit)
            return 0;
        in.clear();
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        // Log rotation leaves us holding the old file (the path now
        // names a different inode); truncate-in-place leaves the same
        // inode but a size below our read offset. Either way the next
        // appends land where we are not looking — reopen and resume
        // from the top of the new file. A stat failure means the file
        // is mid-rotation (renamed away, not yet recreated): keep
        // polling until it reappears.
        if (::stat(path.c_str(), &st) != 0)
            continue;
        bool rotated = st.st_ino != inode || st.st_dev != device;
        bool truncated =
            static_cast<std::streamoff>(st.st_size) < consumed;
        if (rotated || truncated) {
            in.close();
            in.open(path);
            if (!in) {
                in.clear();
                continue;
            }
            inode = st.st_ino;
            device = st.st_dev;
            consumed = 0;
            std::cerr << "seer-stats: " << path
                      << (rotated ? " rotated" : " truncated")
                      << "; following the new contents\n";
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool lastOnly = false;
    bool tailMode = false;
    bool summaryMode = false;
    long pollLimit = 0;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--last") {
            lastOnly = true;
        } else if (arg == "--follow" || arg == "-f") {
            tailMode = true;
        } else if (arg == "--summary") {
            summaryMode = true;
        } else if (arg == "--poll-limit" && i + 1 < argc) {
            pollLimit = std::atol(argv[++i]);
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(std::cerr, 2);
        } else if (path.empty()) {
            path = arg;
        } else {
            return usage(std::cerr, 2);
        }
    }
    if (tailMode) {
        if (lastOnly || summaryMode || path.empty())
            return usage(std::cerr, 2);
        return follow(path, pollLimit);
    }
    if (summaryMode && lastOnly)
        return usage(std::cerr, 2);

    std::istream *in = &std::cin;
    std::ifstream file;
    if (!path.empty()) {
        file.open(path);
        if (!file) {
            std::cerr << "seer-stats: cannot open " << path << "\n";
            return 2;
        }
        in = &file;
    }

    // The table view interleaves ALERT records where the stream
    // carries them; every other mode keys off HEALTH/SUMMARY only.
    const bool tableMode = !summaryMode && !lastOnly;
    std::vector<std::string> samples;
    std::string line;
    while (std::getline(*in, line)) {
        if (summaryMode ? isSummaryLine(line)
                        : (obs::HealthSample::isJson(line) ||
                           (tableMode && isAlertLine(line)))) {
            samples.push_back(line);
        }
    }
    if (samples.empty()) {
        std::cerr << "seer-stats: no "
                  << (summaryMode ? "SUMMARY" : "HEALTH")
                  << " records found\n";
        return 1;
    }
    if (summaryMode) {
        printSummary(samples.back());
        return 0;
    }
    if (lastOnly) {
        printDetail(obs::HealthSample::fromJson(samples.back()));
    } else {
        printHeader();
        for (const std::string &sample : samples) {
            if (isAlertLine(sample))
                printAlert(sample);
            else
                printRow(obs::HealthSample::fromJson(sample));
        }
    }
    return 0;
}
