#include "core/mining/latency_profile.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/automaton/automaton_instance.hpp"

namespace cloudseer::core {

namespace {

/** Nearest-rank quantile over an ascending-sorted sample vector. */
double
nearestRank(const std::vector<double> &sorted, int quantile)
{
    if (sorted.empty())
        return 0.0;
    double rank = std::ceil(static_cast<double>(quantile) / 100.0 *
                            static_cast<double>(sorted.size()));
    std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    if (index >= sorted.size())
        index = sorted.size() - 1;
    return sorted[index];
}

} // namespace

double
LatencyStats::at(int quantile) const
{
    if (quantile <= 50)
        return p50;
    if (quantile <= 95)
        return p95;
    if (quantile <= 99)
        return p99;
    return maxSeen;
}

bool
LatencyStats::wellFormed() const
{
    if (count == 0)
        return p50 == 0.0 && p95 == 0.0 && p99 == 0.0 && maxSeen == 0.0;
    return p50 >= 0.0 && p50 <= p95 && p95 <= p99 && p99 <= maxSeen;
}

LatencyStats
summarizeLatencies(std::vector<double> samples)
{
    LatencyStats stats;
    if (samples.empty())
        return stats;
    std::sort(samples.begin(), samples.end());
    stats.count = samples.size();
    stats.p50 = nearestRank(samples, 50);
    stats.p95 = nearestRank(samples, 95);
    stats.p99 = nearestRank(samples, 99);
    stats.maxSeen = samples.back();
    return stats;
}

LatencyProfile
mineLatencyProfile(const TaskAutomaton &automaton,
                   const std::vector<TimedSequence> &runs)
{
    LatencyProfile profile;
    profile.task = automaton.name();

    std::map<std::pair<int, int>, std::vector<double>> edge_samples;
    std::vector<double> total_samples;

    for (const TimedSequence &run : runs) {
        AutomatonInstance instance(&automaton);
        for (const TimedTemplate &message : run) {
            if (instance.canConsume(message.tpl))
                instance.consume(message.tpl, message.time);
        }
        if (!instance.accepting())
            continue; // truncated run: its missing edges never fired
        ++profile.runs;

        std::span<const common::SimTime> when = instance.consumeTimes();
        for (const DependencyEdge &edge : automaton.edges()) {
            double dt = when[static_cast<std::size_t>(edge.to)] -
                        when[static_cast<std::size_t>(edge.from)];
            edge_samples[{edge.from, edge.to}].push_back(
                std::max(0.0, dt));
        }
        auto [lo, hi] = std::minmax_element(when.begin(), when.end());
        total_samples.push_back(std::max(0.0, *hi - *lo));
    }

    for (auto &[edge, samples] : edge_samples)
        profile.edges[edge] = summarizeLatencies(std::move(samples));
    profile.total = summarizeLatencies(std::move(total_samples));
    return profile;
}

double
latencyBudget(const LatencyStats &stats, const LatencyCheckConfig &config)
{
    if (stats.count == 0)
        return -1.0;
    return stats.at(config.quantile) * config.factor +
           config.slackSeconds;
}

} // namespace cloudseer::core
