/**
 * @file
 * The health metric catalog (DESIGN.md §11): HealthSample, the
 * flattened health observation of a running monitor, and
 * kHealthFields, one row per HealthSample field. This file is the only
 * place a health metric is defined.
 *
 * A row names the field's HEALTH JSON section and key, the member that
 * holds it, and its Prometheus series, if any. Rows are in HEALTH JSON
 * order, which is also the checkpoint order. Every renderer and
 * decoder walks the table: HealthSample::toJson and fromJson,
 * saveState and restoreState, and Observability's registry refresh.
 * Adding a metric is adding a member and its row; the static_asserts
 * below refuse a member without a row.
 */

#ifndef CLOUDSEER_OBS_HEALTH_FIELDS_HPP
#define CLOUDSEER_OBS_HEALTH_FIELDS_HPP

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/binio.hpp"

namespace cloudseer::obs {

/** One flattened health observation of a running monitor. */
struct HealthSample
{
    double time = 0.0; ///< message-clock seconds

    // Checker (CheckerStats).
    std::uint64_t messages = 0;
    std::uint64_t decisive = 0;
    std::uint64_t ambiguous = 0;
    std::uint64_t recoveredPassUnknown = 0;
    std::uint64_t recoveredNewSequence = 0;
    std::uint64_t recoveredOtherSet = 0;
    std::uint64_t recoveredFalseDependency = 0;
    std::uint64_t unmatched = 0;
    std::uint64_t accepted = 0;
    std::uint64_t errorsReported = 0;
    std::uint64_t timeoutsReported = 0;
    std::uint64_t timeoutsSuppressed = 0;
    std::uint64_t groupsShed = 0;
    std::uint64_t consumeAttempts = 0;
    double decisiveFraction = 0.0;

    // Live state.
    std::uint64_t activeGroups = 0;
    std::uint64_t activeIdentifierSets = 0;

    // Ingest guards (IngestStats).
    std::uint64_t linesSeen = 0;
    std::uint64_t recordsDelivered = 0;
    std::uint64_t malformedLines = 0;
    std::uint64_t nonMonotonicClamped = 0;
    std::uint64_t duplicatesSuppressed = 0;
    std::uint64_t forcedReleases = 0;
    std::uint64_t reorderBufferPeak = 0;

    // Bounded-memory guards (seer-vault, DESIGN.md §13).
    std::uint64_t memoryEvictions = 0;
    std::uint64_t internerCapRejected = 0;

    // Identifier interner.
    std::uint64_t internerSize = 0;
    std::uint64_t internerHits = 0;
    std::uint64_t internerMisses = 0;

    // Timeout policy resolution.
    std::uint64_t timeoutResolutions = 0;
    std::uint64_t timeoutDefaultFallbacks = 0;

    // Feed latency (microseconds; zero until metrics record some).
    double feedP50us = 0.0;
    double feedP90us = 0.0;
    double feedP99us = 0.0;
    double feedMaxUs = 0.0;

    // WAL append latency (seer-vault ledger; zero unless a
    // VaultedMonitor with metrics is recording, seer-pulse §16).
    double walAppendP50us = 0.0;
    double walAppendP99us = 0.0;

    /** Single-line JSON rendering ({"kind":"HEALTH",...}). */
    std::string toJson() const;

    /**
     * The inverse of toJson: every field read by its section and key.
     * Keys that are absent or do not parse leave the field at 0;
     * unknown keys are skipped. Reads stay inside `line`.
     */
    static HealthSample fromJson(std::string_view line);

    /** True when `line` is a {"kind":"HEALTH"} record. */
    static bool isJson(std::string_view line);

    /** Serialise every field (seer-vault, DESIGN.md §13). */
    void saveState(common::BinWriter &out) const;

    /** Replace this sample with a saved one. */
    bool restoreState(common::BinReader &in);
};

/** How a health field is exported to Prometheus. */
enum class MetricKind : std::uint8_t
{
    None,    ///< JSON and checkpoint only
    Counter, ///< monotonic total
    Gauge,   ///< level
};

/** One HealthSample field. Exactly one of `count` and `real` is set. */
struct HealthField
{
    std::string_view section; ///< enclosing JSON object; "" at top level
    std::string_view key;
    std::uint64_t HealthSample::*count = nullptr;
    double HealthSample::*real = nullptr;
    MetricKind kind = MetricKind::None;
    const char *metric = nullptr; ///< Prometheus name, unless None
    const char *help = nullptr;

    double
    value(const HealthSample &sample) const
    {
        return count != nullptr ? static_cast<double>(sample.*count)
                                : sample.*real;
    }
};

/** A u64 row. */
constexpr HealthField
countField(std::string_view section, std::string_view key,
           std::uint64_t HealthSample::*member,
           MetricKind kind = MetricKind::None,
           const char *metric = nullptr, const char *help = nullptr)
{
    return {section, key, member, nullptr, kind, metric, help};
}

/** A double row. */
constexpr HealthField
realField(std::string_view section, std::string_view key,
          double HealthSample::*member, MetricKind kind = MetricKind::None,
          const char *metric = nullptr, const char *help = nullptr)
{
    return {section, key, nullptr, member, kind, metric, help};
}

/** Every HealthSample field, in HEALTH JSON (and checkpoint) order. */
inline constexpr std::array kHealthFields{
    realField("", "time", &HealthSample::time),
    countField("", "messages", &HealthSample::messages, MetricKind::Counter,
               "seer_messages_total", "messages the checker processed"),
    countField("", "delivered", &HealthSample::recordsDelivered,
               MetricKind::Counter, "seer_ingest_records_delivered_total",
               "records that reached the checker"),
    countField("", "activeGroups", &HealthSample::activeGroups,
               MetricKind::Gauge, "seer_active_groups",
               "automaton groups currently in flight"),
    countField("", "idsets", &HealthSample::activeIdentifierSets,
               MetricKind::Gauge, "seer_active_identifier_sets",
               "identifier sets currently tracked"),
    countField("", "decisive", &HealthSample::decisive, MetricKind::Counter,
               "seer_decisive_total", "Algorithm 2 case-1 consumptions"),
    countField("", "ambiguous", &HealthSample::ambiguous,
               MetricKind::Counter, "seer_ambiguous_total",
               "Algorithm 2 case-2 forks"),
    countField("recoveries", "a", &HealthSample::recoveredPassUnknown,
               MetricKind::Counter, "seer_recovery_pass_unknown_total",
               "recovery (a): unknown-template pass-throughs"),
    countField("recoveries", "b", &HealthSample::recoveredNewSequence,
               MetricKind::Counter, "seer_recovery_new_sequence_total",
               "recovery (b): new-sequence starts"),
    countField("recoveries", "c", &HealthSample::recoveredOtherSet,
               MetricKind::Counter, "seer_recovery_other_set_total",
               "recovery (c): re-routed to another identifier set"),
    countField("recoveries", "d", &HealthSample::recoveredFalseDependency,
               MetricKind::Counter, "seer_recovery_false_dependency_total",
               "recovery (d): false-dependency repairs"),
    countField("", "unmatched", &HealthSample::unmatched,
               MetricKind::Counter, "seer_unmatched_total",
               "messages no recovery could place"),
    countField("", "accepted", &HealthSample::accepted, MetricKind::Counter,
               "seer_accepted_total", "sequences accepted"),
    countField("", "errors", &HealthSample::errorsReported,
               MetricKind::Counter, "seer_errors_reported_total",
               "error-criterion reports"),
    countField("", "timeouts", &HealthSample::timeoutsReported,
               MetricKind::Counter, "seer_timeouts_reported_total",
               "timeout-criterion reports"),
    countField("", "suppressed", &HealthSample::timeoutsSuppressed,
               MetricKind::Counter, "seer_timeouts_suppressed_total",
               "timeouts pruned by lineage coverage"),
    countField("", "shed", &HealthSample::groupsShed, MetricKind::Counter,
               "seer_groups_shed_total",
               "groups evicted under cap pressure"),
    countField("", "consumeAttempts", &HealthSample::consumeAttempts,
               MetricKind::Counter, "seer_consume_attempts_total",
               "group consumption probes"),
    realField("", "decisiveFraction", &HealthSample::decisiveFraction,
              MetricKind::Gauge, "seer_decisive_fraction",
              "fraction of routed messages resolved decisively"),
    countField("ingest", "lines", &HealthSample::linesSeen,
               MetricKind::Counter, "seer_ingest_lines_total",
               "raw lines offered to feedLine"),
    countField("ingest", "malformed", &HealthSample::malformedLines,
               MetricKind::Counter, "seer_ingest_malformed_total",
               "quarantined malformed lines"),
    countField("ingest", "clamped", &HealthSample::nonMonotonicClamped,
               MetricKind::Counter, "seer_ingest_clamped_total",
               "non-monotonic timestamps seen by the guard"),
    countField("ingest", "duplicates", &HealthSample::duplicatesSuppressed,
               MetricKind::Counter,
               "seer_ingest_duplicates_suppressed_total",
               "near-duplicate deliveries suppressed"),
    countField("ingest", "forced", &HealthSample::forcedReleases,
               MetricKind::Counter, "seer_ingest_forced_releases_total",
               "reorder-buffer overflow force-outs"),
    countField("ingest", "reorderPeak", &HealthSample::reorderBufferPeak,
               MetricKind::Gauge, "seer_reorder_buffer_peak",
               "largest reorder-buffer depth seen"),
    countField("memory", "evictions", &HealthSample::memoryEvictions,
               MetricKind::Counter, "seer_memory_evictions_total",
               "groups evicted by the memory ceiling"),
    countField("memory", "internerCapRejected",
               &HealthSample::internerCapRejected, MetricKind::Counter,
               "seer_interner_cap_rejected_total",
               "identifiers refused at the interner capacity"),
    countField("interner", "size", &HealthSample::internerSize,
               MetricKind::Gauge, "seer_interner_size",
               "identifiers interned process-wide"),
    countField("interner", "hits", &HealthSample::internerHits),
    countField("interner", "misses", &HealthSample::internerMisses),
    countField("timeoutPolicy", "resolutions",
               &HealthSample::timeoutResolutions, MetricKind::Counter,
               "seer_timeout_resolutions_total",
               "per-group timeout resolutions"),
    countField("timeoutPolicy", "fallbacks",
               &HealthSample::timeoutDefaultFallbacks, MetricKind::Counter,
               "seer_timeout_default_fallbacks_total",
               "timeout resolutions that fell back to the default"),
    realField("feedLatencyUs", "p50", &HealthSample::feedP50us),
    realField("feedLatencyUs", "p90", &HealthSample::feedP90us),
    realField("feedLatencyUs", "p99", &HealthSample::feedP99us),
    realField("feedLatencyUs", "max", &HealthSample::feedMaxUs),
    realField("walAppendUs", "p50", &HealthSample::walAppendP50us),
    realField("walAppendUs", "p99", &HealthSample::walAppendP99us),
};

/** Checkpoint bytes of one HealthSample: eight per field. */
inline constexpr std::size_t kHealthSampleBytes = kHealthFields.size() * 8;

/** Every row sets one member, no member has two rows, counters are
 *  integers, and a row that is exported has a name and help. */
consteval bool
healthFieldsWellFormed()
{
    for (std::size_t i = 0; i < kHealthFields.size(); ++i) {
        const HealthField &field = kHealthFields[i];
        if ((field.count == nullptr) == (field.real == nullptr))
            return false;
        if (field.kind == MetricKind::Counter && field.count == nullptr)
            return false;
        if ((field.kind != MetricKind::None) !=
            (field.metric != nullptr && field.help != nullptr))
            return false;
        for (std::size_t j = i + 1; j < kHealthFields.size(); ++j) {
            const HealthField &other = kHealthFields[j];
            if (field.count != nullptr ? field.count == other.count
                                       : field.real == other.real)
                return false;
        }
    }
    return true;
}

static_assert(healthFieldsWellFormed());
// Every member is eight bytes, so with distinct members this means
// every member has its row.
static_assert(sizeof(HealthSample) == kHealthSampleBytes,
              "a HealthSample member has no kHealthFields row");

} // namespace cloudseer::obs

#endif // CLOUDSEER_OBS_HEALTH_FIELDS_HPP
