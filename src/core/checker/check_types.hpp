/**
 * @file
 * Input/output value types of the interleaved checker.
 */

#ifndef CLOUDSEER_CORE_CHECKER_CHECK_TYPES_HPP
#define CLOUDSEER_CORE_CHECKER_CHECK_TYPES_HPP

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/time_util.hpp"
#include "core/checker/automaton_group.hpp"
#include "logging/log_level.hpp"
#include "logging/log_record.hpp"
#include "logging/template_catalog.hpp"

namespace cloudseer::core {

/**
 * Default hypothesis cap for ambiguous forking (Algorithm 2 case 2).
 * Exported as a named constant so tools outside the checker — the
 * seer-lint fan-out bound check in particular — gate against the same
 * number CheckerConfig deploys with.
 */
inline constexpr std::size_t kDefaultMaxForkFanout = 6;

/** One log message, pre-parsed for checking. */
struct CheckMessage
{
    /** Interned template; kInvalidTemplate if never seen in modeling. */
    logging::TemplateId tpl = logging::kInvalidTemplate;

    /** Identifier tokens (IPs, UUIDs) extracted from the body and
     *  interned at extraction time, in order of appearance. */
    std::vector<logging::IdToken> identifiers;

    logging::LogLevel level = logging::LogLevel::Info;
    logging::RecordId record = 0;
    common::SimTime time = 0.0;
};

/** What a checking step may report. */
enum class CheckEventKind
{
    Accepted,      ///< an automaton instance accepted a full sequence
    ErrorDetected, ///< error-message criterion fired
    Timeout,       ///< timeout criterion fired
    LatencyAnomaly, ///< accepted logically but ran over its mined
                    ///< latency budget (seer-flight); finer-grained
                    ///< than the timeout criterion, which only sees
                    ///< executions that stall outright
    Degraded,      ///< monitor shed state under pressure; the group's
                   ///< verdict is unknown, not bad — an operator
                   ///< health signal, never a workflow problem report
};

/**
 * Elapsed time across one automaton transition of a finished
 * execution, compared against the mined budget (seer-flight).
 */
struct EdgeTiming
{
    int from = -1;
    int to = -1;

    /** Templates of the two events, for rendering. */
    logging::TemplateId fromTpl = logging::kInvalidTemplate;
    logging::TemplateId toTpl = logging::kInvalidTemplate;

    /** Seconds between consuming `from` and consuming `to`. */
    double elapsed = 0.0;

    /** Mined per-edge budget; negative when the edge is unprofiled. */
    double budget = -1.0;

    /** True when elapsed strictly exceeded a known budget. */
    bool exceeded = false;
};

/**
 * One checker output: an accepting or erroneous automaton instance
 * with the workflow context the paper promises administrators — the
 * task, consumed messages, the current state frontier, and what was
 * expected next.
 */
struct CheckEvent
{
    CheckEventKind kind = CheckEventKind::Accepted;

    /** Accepted task, or the most likely task for a problem report. */
    std::string taskName;

    /** All candidate tasks the group still tracked. */
    std::vector<std::string> candidateTasks;

    /** Records consumed by the group, oldest first. */
    std::vector<logging::RecordId> records;

    /** Frontier templates — "where the execution is" (paper §2.3). */
    std::vector<logging::TemplateId> frontierTemplates;

    /** Enabled-next templates — "what never arrived" for timeouts. */
    std::vector<logging::TemplateId> expectedTemplates;

    /** Identifier tokens the group's identifier set accumulated, in
     *  insertion order — resolve text via IdentifierInterner. */
    std::vector<logging::IdToken> identifiers;

    /** Message-clock stamp of the group's first consumed message. */
    common::SimTime startTime = 0.0;

    common::SimTime time = 0.0;
    GroupId group = 0;

    /**
     * Per-transition elapsed times vs. mined budgets, populated when a
     * latency policy is installed and the execution finished (Accepted
     * or LatencyAnomaly). Order follows the automaton's edge list.
     */
    std::vector<EdgeTiming> edgeTimings;

    /**
     * Critical branch through forks/joins: event ids from an initial
     * event to the last-consumed one, each step picking the
     * latest-finishing predecessor. Empty unless edgeTimings is set.
     */
    std::vector<int> criticalPath;

    /** Total message-clock duration vs. the task-level budget; budget
     *  is negative when no policy or profile applied. */
    double totalElapsed = 0.0;
    double totalBudget = -1.0;
};

/** Counters describing how the checker earned its result. */
struct CheckerStats
{
    std::uint64_t messages = 0;
    std::uint64_t decisive = 0;          ///< Algorithm 2 case (1)
    std::uint64_t ambiguous = 0;         ///< Algorithm 2 case (2)
    std::uint64_t recoveredPassUnknown = 0;   ///< recovery (a)
    std::uint64_t recoveredNewSequence = 0;   ///< recovery (b)
    std::uint64_t recoveredOtherSet = 0;      ///< recovery (c)
    std::uint64_t recoveredFalseDependency = 0; ///< recovery (d)
    std::uint64_t unmatched = 0;         ///< all recoveries failed
    std::uint64_t errorsReported = 0;
    std::uint64_t timeoutsReported = 0;
    std::uint64_t timeoutsSuppressed = 0;
    std::uint64_t latencyAnomalies = 0;  ///< over-budget acceptances
    std::uint64_t groupsShed = 0;        ///< cap-pressure evictions
    std::uint64_t accepted = 0;
    std::uint64_t consumeAttempts = 0;   ///< group probes (efficiency)

    /** Fraction of routed messages resolved decisively (paper §5.5).
     *  The denominator covers every routed message, including recovery
     *  (a) — an unknown-template message still went through routing
     *  and was resolved (by passing it through), so leaving it out
     *  overstated decisiveness on noisy streams. */
    double
    decisiveFraction() const
    {
        std::uint64_t denom = decisive + ambiguous +
                              recoveredPassUnknown +
                              recoveredNewSequence + recoveredOtherSet +
                              recoveredFalseDependency + unmatched;
        return denom == 0 ? 0.0
                          : static_cast<double>(decisive) /
                                static_cast<double>(denom);
    }
};

/** Every CheckerStats counter, in declaration order: the checkpoint
 *  layout. */
inline constexpr std::tuple kCheckerStatsMembers{
    &CheckerStats::messages,
    &CheckerStats::decisive,
    &CheckerStats::ambiguous,
    &CheckerStats::recoveredPassUnknown,
    &CheckerStats::recoveredNewSequence,
    &CheckerStats::recoveredOtherSet,
    &CheckerStats::recoveredFalseDependency,
    &CheckerStats::unmatched,
    &CheckerStats::errorsReported,
    &CheckerStats::timeoutsReported,
    &CheckerStats::timeoutsSuppressed,
    &CheckerStats::latencyAnomalies,
    &CheckerStats::groupsShed,
    &CheckerStats::accepted,
    &CheckerStats::consumeAttempts,
};
static_assert(sizeof(CheckerStats) ==
                  8 * std::tuple_size_v<decltype(kCheckerStatsMembers)>,
              "a CheckerStats counter is missing from its member list");

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_CHECKER_CHECK_TYPES_HPP
