/**
 * @file
 * seer-prof: offline viewer for seer-probe profiles (DESIGN.md §17).
 * Three commands over the self-describing JSON that `/profilez` and
 * Profile::toJson() emit:
 *
 *     seer-prof top PROFILE.json [--limit N] [--cumulative]
 *                                [--min-tagged F]
 *     seer-prof folded PROFILE.json
 *     seer-prof diff BASE.json FRESH.json [--limit N]
 *
 * `top` prints the per-stage attribution table and the hottest frames
 * by self samples (leaf of each stack) — or by cumulative samples
 * (frame appears anywhere on the stack) with --cumulative. With
 * --min-tagged F it exits 1 when the tagged fraction falls below F,
 * so a script can refuse a profile whose CPU the stage markers do not
 * cover.
 *
 * `folded` reprints the profile as flamegraph.pl-ready collapsed
 * stacks — the .folded artifact regenerated from the JSON, so only
 * one file needs to be archived.
 *
 * `diff` compares two profiles by per-frame cumulative share (the
 * fraction of samples a frame appears in — shares, not raw counts, so
 * profiles of different lengths compare cleanly) and prints frames
 * ranked by regression: what grew claims the top of the table. Stage
 * shares are diffed the same way above the frame table.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/profiler.hpp"

namespace {

using namespace cloudseer;

int
usage(std::ostream &out, int status)
{
    out << "usage:\n"
           "  seer-prof top PROFILE.json [--limit N] [--cumulative] "
           "[--min-tagged F]\n"
           "      per-stage attribution and the hottest frames; with\n"
           "      --min-tagged, exits 1 when the tagged fraction of\n"
           "      samples falls below F (e.g. 0.9)\n"
           "  seer-prof folded PROFILE.json\n"
           "      reprint as flamegraph.pl-ready collapsed stacks\n"
           "  seer-prof diff BASE.json FRESH.json [--limit N]\n"
           "      frames ranked by cumulative-share regression\n";
    return status;
}

bool
loadProfile(const std::string &path, obs::Profile &out)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "seer-prof: cannot open " << path << "\n";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!obs::parseProfileJson(text.str(), out)) {
        std::cerr << "seer-prof: " << path
                  << " is not a PROFILE document\n";
        return false;
    }
    return true;
}

/** Self samples per frame: each stack's leaf claims its full count. */
std::map<std::string, std::uint64_t>
selfCounts(const obs::Profile &profile)
{
    std::map<std::string, std::uint64_t> counts;
    for (const obs::ProfileStack &stack : profile.stacks) {
        if (!stack.frames.empty())
            counts[stack.frames.back()] += stack.count;
    }
    return counts;
}

/** Cumulative samples per frame: a frame claims a stack's count once
 *  no matter how often recursion repeats it on that stack. */
std::map<std::string, std::uint64_t>
cumulativeCounts(const obs::Profile &profile)
{
    std::map<std::string, std::uint64_t> counts;
    for (const obs::ProfileStack &stack : profile.stacks) {
        std::set<std::string> seen(stack.frames.begin(),
                                   stack.frames.end());
        for (const std::string &frame : seen)
            counts[frame] += stack.count;
    }
    return counts;
}

/** Count-desc, name-asc: deterministic output for golden tests. */
std::vector<std::pair<std::string, std::uint64_t>>
ranked(const std::map<std::string, std::uint64_t> &counts)
{
    std::vector<std::pair<std::string, std::uint64_t>> rows(
        counts.begin(), counts.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    return rows;
}

int
cmdTop(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage(std::cerr, 2);
    std::size_t limit = 10;
    bool cumulative = false;
    double min_tagged = -1.0;
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--limit" && i + 1 < args.size())
            limit = static_cast<std::size_t>(
                std::atol(args[++i].c_str()));
        else if (args[i] == "--cumulative")
            cumulative = true;
        else if (args[i] == "--min-tagged" && i + 1 < args.size())
            min_tagged = std::atof(args[++i].c_str());
        else
            return usage(std::cerr, 2);
    }
    obs::Profile profile;
    if (!loadProfile(args[0], profile))
        return 2;

    std::printf("profile: %llu samples at %d Hz over %.3fs "
                "(%llu dropped), %.1f%% tagged\n",
                static_cast<unsigned long long>(profile.samples),
                profile.hz, profile.durationSeconds,
                static_cast<unsigned long long>(profile.dropped),
                100.0 * profile.taggedFraction());
    std::printf("delivered: %.1f Hz over %.3f CPU s\n",
                profile.deliveredHz, profile.cpuSeconds);
    std::printf("  %-16s %10s %8s\n", "stage", "samples", "share");
    for (int s = 0; s < obs::kProfStageCount; ++s) {
        std::uint64_t count =
            profile.stageSamples[static_cast<std::size_t>(s)];
        if (count == 0)
            continue;
        std::printf("  %-16s %10llu %7.1f%%\n",
                    obs::profStageName(
                        static_cast<obs::ProfStage>(s)),
                    static_cast<unsigned long long>(count),
                    profile.samples > 0
                        ? 100.0 * static_cast<double>(count) /
                              static_cast<double>(profile.samples)
                        : 0.0);
    }
    if (profile.allocTracked) {
        std::printf("  %-16s %14s %10s\n", "alloc by stage", "bytes",
                    "count");
        for (int s = 0; s < obs::kProfStageCount; ++s) {
            auto idx = static_cast<std::size_t>(s);
            if (profile.allocCounts[idx] == 0)
                continue;
            std::printf("  %-16s %14llu %10llu\n",
                        obs::profStageName(
                            static_cast<obs::ProfStage>(s)),
                        static_cast<unsigned long long>(
                            profile.allocBytes[idx]),
                        static_cast<unsigned long long>(
                            profile.allocCounts[idx]));
        }
    }

    auto rows = ranked(cumulative ? cumulativeCounts(profile)
                                  : selfCounts(profile));
    std::printf("top %zu frames by %s samples:\n",
                std::min(limit, rows.size()),
                cumulative ? "cumulative" : "self");
    std::printf("  %10s %8s  %s\n", "samples", "share", "frame");
    for (std::size_t i = 0; i < rows.size() && i < limit; ++i) {
        std::printf("  %10llu %7.1f%%  %s\n",
                    static_cast<unsigned long long>(rows[i].second),
                    profile.samples > 0
                        ? 100.0 * static_cast<double>(rows[i].second) /
                              static_cast<double>(profile.samples)
                        : 0.0,
                    rows[i].first.c_str());
    }

    if (min_tagged >= 0.0 && profile.taggedFraction() < min_tagged) {
        std::fprintf(stderr,
                     "FAIL: tagged fraction %.3f below the %.3f "
                     "floor\n",
                     profile.taggedFraction(), min_tagged);
        return 1;
    }
    return 0;
}

int
cmdFolded(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return usage(std::cerr, 2);
    obs::Profile profile;
    if (!loadProfile(args[0], profile))
        return 2;
    std::fputs(profile.toFolded().c_str(), stdout);
    return 0;
}

int
cmdDiff(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        return usage(std::cerr, 2);
    std::size_t limit = 15;
    for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "--limit" && i + 1 < args.size())
            limit = static_cast<std::size_t>(
                std::atol(args[++i].c_str()));
        else
            return usage(std::cerr, 2);
    }
    obs::Profile base;
    obs::Profile fresh;
    if (!loadProfile(args[0], base) || !loadProfile(args[1], fresh))
        return 2;
    if (base.samples == 0 || fresh.samples == 0) {
        std::cerr << "seer-prof: cannot diff an empty profile\n";
        return 2;
    }

    std::printf("diff: base %llu samples vs fresh %llu samples\n",
                static_cast<unsigned long long>(base.samples),
                static_cast<unsigned long long>(fresh.samples));
    std::printf("  %-16s %8s %8s %8s\n", "stage", "base", "fresh",
                "delta");
    for (int s = 0; s < obs::kProfStageCount; ++s) {
        auto idx = static_cast<std::size_t>(s);
        double base_share = static_cast<double>(base.stageSamples[idx]) /
                            static_cast<double>(base.samples);
        double fresh_share =
            static_cast<double>(fresh.stageSamples[idx]) /
            static_cast<double>(fresh.samples);
        if (base_share == 0.0 && fresh_share == 0.0)
            continue;
        std::printf("  %-16s %7.1f%% %7.1f%% %+7.1f%%\n",
                    obs::profStageName(
                        static_cast<obs::ProfStage>(s)),
                    100.0 * base_share, 100.0 * fresh_share,
                    100.0 * (fresh_share - base_share));
    }

    // Per-frame cumulative shares; every frame either side saw gets a
    // row, ranked by how much it regressed (grew) in the fresh run.
    std::map<std::string, std::uint64_t> base_counts =
        cumulativeCounts(base);
    std::map<std::string, std::uint64_t> fresh_counts =
        cumulativeCounts(fresh);
    struct Row
    {
        std::string frame;
        double baseShare = 0.0;
        double freshShare = 0.0;
    };
    std::map<std::string, Row> merged;
    for (const auto &[frame, count] : base_counts) {
        merged[frame].frame = frame;
        merged[frame].baseShare = static_cast<double>(count) /
                                  static_cast<double>(base.samples);
    }
    for (const auto &[frame, count] : fresh_counts) {
        merged[frame].frame = frame;
        merged[frame].freshShare = static_cast<double>(count) /
                                   static_cast<double>(fresh.samples);
    }
    std::vector<Row> rows;
    rows.reserve(merged.size());
    for (auto &[frame, row] : merged)
        rows.push_back(std::move(row));
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        double da = a.freshShare - a.baseShare;
        double db = b.freshShare - b.baseShare;
        if (da != db)
            return da > db;
        return a.frame < b.frame;
    });
    std::printf("top %zu regressed frames (cumulative share):\n",
                std::min(limit, rows.size()));
    std::printf("  %8s %8s %8s  %s\n", "base", "fresh", "delta",
                "frame");
    for (std::size_t i = 0; i < rows.size() && i < limit; ++i) {
        const Row &row = rows[i];
        std::printf("  %7.1f%% %7.1f%% %+7.1f%%  %s\n",
                    100.0 * row.baseShare, 100.0 * row.freshShare,
                    100.0 * (row.freshShare - row.baseShare),
                    row.frame.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 2);
    std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "--help" || command == "-h")
        return usage(std::cout, 0);
    if (command == "top")
        return cmdTop(args);
    if (command == "folded")
        return cmdFolded(args);
    if (command == "diff")
        return cmdDiff(args);
    std::cerr << "seer-prof: unknown command '" << command << "'\n";
    return usage(std::cerr, 2);
}
