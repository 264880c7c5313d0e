#include "core/monitor/timeout_estimator.hpp"

#include <algorithm>

namespace cloudseer::core {

double
TimeoutPolicy::timeoutFor(const std::string &task) const
{
    auto it = perTask.find(task);
    return it == perTask.end() ? defaultTimeout : it->second;
}

double
TimeoutPolicy::timeoutForCandidates(
    const std::vector<std::string> &tasks) const
{
    ++resolutions;
    // No per-task entries (the usual configuration): every candidate
    // resolves to the default, so skip the per-name lookups.
    if (perTask.empty()) {
        ++defaultFallbacks;
        return tasks.empty() ? defaultTimeout
                             : std::max(0.0, defaultTimeout);
    }
    bool any_entry = false;
    for (const std::string &task : tasks) {
        if (perTask.count(task)) {
            any_entry = true;
            break;
        }
    }
    if (!any_entry)
        ++defaultFallbacks;
    if (tasks.empty())
        return defaultTimeout;
    double best = 0.0;
    for (const std::string &task : tasks)
        best = std::max(best, timeoutFor(task));
    return best;
}

void
TimeoutEstimator::observeRun(
    const std::string &task,
    const std::vector<common::SimTime> &timestamps)
{
    TaskGaps &entry = perTask[task];
    ++entry.runs;
    for (std::size_t i = 1; i < timestamps.size(); ++i) {
        double gap = timestamps[i] - timestamps[i - 1];
        entry.gaps.add(std::max(gap, 0.0));
    }
}

std::size_t
TimeoutEstimator::runsObserved(const std::string &task) const
{
    auto it = perTask.find(task);
    return it == perTask.end() ? 0 : it->second.runs;
}

double
TimeoutEstimator::maxGap(const std::string &task) const
{
    auto it = perTask.find(task);
    return it == perTask.end() ? 0.0 : it->second.gaps.max();
}

TimeoutPolicy
TimeoutEstimator::estimate(double safety_factor, double floor,
                           double default_timeout) const
{
    TimeoutPolicy policy;
    policy.defaultTimeout = default_timeout;
    for (const auto &[task, entry] : perTask) {
        if (entry.gaps.count() == 0)
            continue;
        policy.perTask[task] =
            std::max(entry.gaps.max() * safety_factor, floor);
    }
    return policy;
}

void
TimeoutEstimator::publishTo(obs::MetricsRegistry &registry) const
{
    std::size_t runs = 0;
    double widest = 0.0;
    for (const auto &[task, entry] : perTask) {
        runs += entry.runs;
        widest = std::max(widest, entry.gaps.max());
    }
    registry
        .gauge("seer_timeout_estimator_tasks",
               "tasks with observed gap statistics")
        .set(static_cast<double>(perTask.size()));
    registry
        .gauge("seer_timeout_estimator_runs",
               "correct runs ingested by the estimator")
        .set(static_cast<double>(runs));
    registry
        .gauge("seer_timeout_estimator_max_gap_seconds",
               "widest inter-message gap observed across tasks")
        .set(widest);
}

void
TimeoutPolicy::saveState(common::BinWriter &out) const
{
    out.writeF64(defaultTimeout);
    out.writeU64(perTask.size());
    for (const auto &[task, timeout] : perTask) {
        out.writeString(task);
        out.writeF64(timeout);
    }
    out.writeU64(resolutions);
    out.writeU64(defaultFallbacks);
}

bool
TimeoutPolicy::restoreState(common::BinReader &in)
{
    double fallback = in.readF64();
    std::uint64_t count = in.readU64();
    if (!in.ok())
        return false;
    std::map<std::string, double> table;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::string task = in.readString();
        double timeout = in.readF64();
        if (!in.ok())
            return false;
        table[std::move(task)] = timeout;
    }
    std::uint64_t resolved = in.readU64();
    std::uint64_t fell_back = in.readU64();
    if (!in.ok())
        return false;
    defaultTimeout = fallback;
    perTask = std::move(table);
    resolutions = resolved;
    defaultFallbacks = fell_back;
    return true;
}

void
TimeoutEstimator::saveState(common::BinWriter &out) const
{
    out.writeU64(perTask.size());
    for (const auto &[task, entry] : perTask) {
        out.writeString(task);
        entry.gaps.saveState(out);
        out.writeU64(entry.runs);
    }
}

bool
TimeoutEstimator::restoreState(common::BinReader &in)
{
    std::uint64_t count = in.readU64();
    if (!in.ok())
        return false;
    std::map<std::string, TaskGaps> table;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::string task = in.readString();
        TaskGaps entry;
        if (!entry.gaps.restoreState(in))
            return false;
        entry.runs = static_cast<std::size_t>(in.readU64());
        if (!in.ok())
            return false;
        table.emplace(std::move(task), std::move(entry));
    }
    perTask = std::move(table);
    return true;
}

} // namespace cloudseer::core
