#include "obs/observability.hpp"

#include <sstream>

namespace cloudseer::obs {

namespace {

std::string
formatNumber(double value)
{
    std::ostringstream out;
    out << value;
    return out.str();
}

} // namespace

std::string
HealthSample::toJson() const
{
    std::ostringstream out;
    out << "{\"kind\":\"HEALTH\",\"time\":" << formatNumber(time)
        << ",\"messages\":" << messages
        << ",\"delivered\":" << recordsDelivered
        << ",\"activeGroups\":" << activeGroups
        << ",\"idsets\":" << activeIdentifierSets
        << ",\"decisive\":" << decisive
        << ",\"ambiguous\":" << ambiguous
        << ",\"recoveries\":{\"a\":" << recoveredPassUnknown
        << ",\"b\":" << recoveredNewSequence
        << ",\"c\":" << recoveredOtherSet
        << ",\"d\":" << recoveredFalseDependency << "}"
        << ",\"unmatched\":" << unmatched
        << ",\"accepted\":" << accepted
        << ",\"errors\":" << errorsReported
        << ",\"timeouts\":" << timeoutsReported
        << ",\"suppressed\":" << timeoutsSuppressed
        << ",\"shed\":" << groupsShed
        << ",\"consumeAttempts\":" << consumeAttempts
        << ",\"decisiveFraction\":" << formatNumber(decisiveFraction)
        << ",\"ingest\":{\"lines\":" << linesSeen
        << ",\"malformed\":" << malformedLines
        << ",\"clamped\":" << nonMonotonicClamped
        << ",\"duplicates\":" << duplicatesSuppressed
        << ",\"forced\":" << forcedReleases
        << ",\"reorderPeak\":" << reorderBufferPeak << "}"
        << ",\"memory\":{\"evictions\":" << memoryEvictions
        << ",\"internerCapRejected\":" << internerCapRejected << "}"
        << ",\"interner\":{\"size\":" << internerSize
        << ",\"hits\":" << internerHits
        << ",\"misses\":" << internerMisses << "}"
        << ",\"timeoutPolicy\":{\"resolutions\":" << timeoutResolutions
        << ",\"fallbacks\":" << timeoutDefaultFallbacks << "}"
        << ",\"feedLatencyUs\":{\"p50\":" << formatNumber(feedP50us)
        << ",\"p90\":" << formatNumber(feedP90us)
        << ",\"p99\":" << formatNumber(feedP99us)
        << ",\"max\":" << formatNumber(feedMaxUs) << "}"
        << ",\"walAppendUs\":{\"p50\":" << formatNumber(walAppendP50us)
        << ",\"p99\":" << formatNumber(walAppendP99us) << "}}";
    return out.str();
}

void
HealthSample::saveState(common::BinWriter &out) const
{
    out.writeF64(time);
    out.writeU64(messages);
    out.writeU64(decisive);
    out.writeU64(ambiguous);
    out.writeU64(recoveredPassUnknown);
    out.writeU64(recoveredNewSequence);
    out.writeU64(recoveredOtherSet);
    out.writeU64(recoveredFalseDependency);
    out.writeU64(unmatched);
    out.writeU64(accepted);
    out.writeU64(errorsReported);
    out.writeU64(timeoutsReported);
    out.writeU64(timeoutsSuppressed);
    out.writeU64(groupsShed);
    out.writeU64(consumeAttempts);
    out.writeF64(decisiveFraction);
    out.writeU64(activeGroups);
    out.writeU64(activeIdentifierSets);
    out.writeU64(linesSeen);
    out.writeU64(recordsDelivered);
    out.writeU64(malformedLines);
    out.writeU64(nonMonotonicClamped);
    out.writeU64(duplicatesSuppressed);
    out.writeU64(forcedReleases);
    out.writeU64(reorderBufferPeak);
    out.writeU64(memoryEvictions);
    out.writeU64(internerCapRejected);
    out.writeU64(internerSize);
    out.writeU64(internerHits);
    out.writeU64(internerMisses);
    out.writeU64(timeoutResolutions);
    out.writeU64(timeoutDefaultFallbacks);
    out.writeF64(feedP50us);
    out.writeF64(feedP90us);
    out.writeF64(feedP99us);
    out.writeF64(feedMaxUs);
    out.writeF64(walAppendP50us);
    out.writeF64(walAppendP99us);
}

bool
HealthSample::restoreState(common::BinReader &in)
{
    time = in.readF64();
    messages = in.readU64();
    decisive = in.readU64();
    ambiguous = in.readU64();
    recoveredPassUnknown = in.readU64();
    recoveredNewSequence = in.readU64();
    recoveredOtherSet = in.readU64();
    recoveredFalseDependency = in.readU64();
    unmatched = in.readU64();
    accepted = in.readU64();
    errorsReported = in.readU64();
    timeoutsReported = in.readU64();
    timeoutsSuppressed = in.readU64();
    groupsShed = in.readU64();
    consumeAttempts = in.readU64();
    decisiveFraction = in.readF64();
    activeGroups = in.readU64();
    activeIdentifierSets = in.readU64();
    linesSeen = in.readU64();
    recordsDelivered = in.readU64();
    malformedLines = in.readU64();
    nonMonotonicClamped = in.readU64();
    duplicatesSuppressed = in.readU64();
    forcedReleases = in.readU64();
    reorderBufferPeak = in.readU64();
    memoryEvictions = in.readU64();
    internerCapRejected = in.readU64();
    internerSize = in.readU64();
    internerHits = in.readU64();
    internerMisses = in.readU64();
    timeoutResolutions = in.readU64();
    timeoutDefaultFallbacks = in.readU64();
    feedP50us = in.readF64();
    feedP90us = in.readF64();
    feedP99us = in.readF64();
    feedMaxUs = in.readF64();
    walAppendP50us = in.readF64();
    walAppendP99us = in.readF64();
    return in.ok();
}

Observability::Observability(const ObsConfig &config)
    : cfg(config), startedAt(std::chrono::steady_clock::now())
{
    if (cfg.metrics) {
        // Feed latencies span sub-microsecond to seconds: 0.1us..1s.
        feedLatencyHist = &registry.histogram(
            "seer_feed_latency_us",
            "per-record monitor feed latency, microseconds", -1, 6);
    }
    if (cfg.flightRecorder.enabled())
        flightPtr = std::make_unique<FlightRecorder>(cfg.flightRecorder);
    if (cfg.tracing) {
        tracerPtr =
            std::make_unique<ExecutionTracer>(cfg.maxTraceSpans);
        if (cfg.metrics) {
            tracerPtr->attachHistograms(
                &registry.histogram(
                    "seer_span_duration_seconds",
                    "automaton-group lifetime, message-clock seconds",
                    -3, 5),
                &registry.histogram(
                    "seer_span_messages",
                    "messages consumed per automaton group", 0, 5));
        }
    }
}

void
Observability::recordFeedLatency(double micros)
{
    if (feedLatencyHist != nullptr)
        feedLatencyHist->record(micros);
}

Histogram *
Observability::walAppendLatency()
{
    if (!cfg.metrics)
        return nullptr;
    if (walHist == nullptr) {
        // Group-committed appends span sub-microsecond (coalesced)
        // to milliseconds (fsync'd): 0.1us..1s.
        walHist = &registry.histogram(
            "seer_wal_append_us",
            "vault ledger append latency, microseconds", -1, 6);
    }
    return walHist;
}

void
Observability::setBuildInfo(const std::string &build_version,
                            const std::string &model_fingerprint)
{
    version = build_version;
    fingerprint = model_fingerprint;
}

double
Observability::uptimeSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - startedAt)
        .count();
}

bool
Observability::snapshotDue(double message_time) const
{
    if (cfg.snapshotIntervalSeconds <= 0.0)
        return false;
    return !anySnapshot || message_time - lastSnapshotTime >=
                               cfg.snapshotIntervalSeconds;
}

void
Observability::addSnapshot(const HealthSample &sample)
{
    lastSnapshotTime = sample.time;
    anySnapshot = true;
    updateRegistry(sample);
    history.push_back(sample);
    if (history.size() > cfg.maxSnapshots)
        history.erase(history.begin(),
                      history.begin() +
                          static_cast<std::ptrdiff_t>(
                              history.size() - cfg.maxSnapshots));
}

void
Observability::updateRegistry(const HealthSample &s)
{
    auto c = [this](const char *name, const char *help,
                    std::uint64_t value) {
        registry.counter(name, help).set(value);
    };
    auto g = [this](const char *name, const char *help, double value) {
        registry.gauge(name, help).set(value);
    };

    c("seer_messages_total", "messages the checker processed",
      s.messages);
    c("seer_decisive_total", "Algorithm 2 case-1 consumptions",
      s.decisive);
    c("seer_ambiguous_total", "Algorithm 2 case-2 forks", s.ambiguous);
    c("seer_recovery_pass_unknown_total",
      "recovery (a): unknown-template pass-throughs",
      s.recoveredPassUnknown);
    c("seer_recovery_new_sequence_total",
      "recovery (b): new-sequence starts", s.recoveredNewSequence);
    c("seer_recovery_other_set_total",
      "recovery (c): re-routed to another identifier set",
      s.recoveredOtherSet);
    c("seer_recovery_false_dependency_total",
      "recovery (d): false-dependency repairs",
      s.recoveredFalseDependency);
    c("seer_unmatched_total", "messages no recovery could place",
      s.unmatched);
    c("seer_accepted_total", "sequences accepted", s.accepted);
    c("seer_errors_reported_total", "error-criterion reports",
      s.errorsReported);
    c("seer_timeouts_reported_total", "timeout-criterion reports",
      s.timeoutsReported);
    c("seer_timeouts_suppressed_total",
      "timeouts pruned by lineage coverage", s.timeoutsSuppressed);
    c("seer_groups_shed_total", "groups evicted under cap pressure",
      s.groupsShed);
    c("seer_consume_attempts_total", "group consumption probes",
      s.consumeAttempts);

    c("seer_ingest_lines_total", "raw lines offered to feedLine",
      s.linesSeen);
    c("seer_ingest_records_delivered_total",
      "records that reached the checker", s.recordsDelivered);
    c("seer_ingest_malformed_total", "quarantined malformed lines",
      s.malformedLines);
    c("seer_ingest_clamped_total",
      "non-monotonic timestamps seen by the guard",
      s.nonMonotonicClamped);
    c("seer_ingest_duplicates_suppressed_total",
      "near-duplicate deliveries suppressed", s.duplicatesSuppressed);
    c("seer_ingest_forced_releases_total",
      "reorder-buffer overflow force-outs", s.forcedReleases);
    c("seer_memory_evictions_total",
      "groups evicted by the memory ceiling", s.memoryEvictions);
    c("seer_interner_cap_rejected_total",
      "identifiers refused at the interner capacity",
      s.internerCapRejected);
    c("seer_timeout_resolutions_total",
      "per-group timeout resolutions", s.timeoutResolutions);
    c("seer_timeout_default_fallbacks_total",
      "timeout resolutions that fell back to the default",
      s.timeoutDefaultFallbacks);

    g("seer_active_groups", "automaton groups currently in flight",
      static_cast<double>(s.activeGroups));
    g("seer_active_identifier_sets",
      "identifier sets currently tracked",
      static_cast<double>(s.activeIdentifierSets));
    g("seer_reorder_buffer_peak", "largest reorder-buffer depth seen",
      static_cast<double>(s.reorderBufferPeak));
    g("seer_interner_size", "identifiers interned process-wide",
      static_cast<double>(s.internerSize));
    double lookups =
        static_cast<double>(s.internerHits + s.internerMisses);
    g("seer_interner_hit_rate",
      "fraction of intern lookups served from the table",
      lookups > 0.0 ? static_cast<double>(s.internerHits) / lookups
                    : 0.0);
    g("seer_decisive_fraction",
      "fraction of routed messages resolved decisively",
      s.decisiveFraction);
    if (tracerPtr != nullptr) {
        c("seer_trace_spans_dropped_total",
          "closed spans dropped past the retention cap",
          tracerPtr->droppedSpans());
        g("seer_trace_open_spans", "spans currently open",
          static_cast<double>(tracerPtr->openSpans()));
    }

    // Build identity (seer-pulse: scrapes are self-describing).
    if (!version.empty() || !fingerprint.empty()) {
        registry
            .labeledGauge("seer_build_info",
                          {{"model_fingerprint", fingerprint},
                           {"version", version}},
                          "build identity; value is always 1")
            .set(1.0);
        g("seer_uptime_seconds",
          "wall-clock seconds since the monitor came up",
          uptimeSeconds());
    }
}

std::string
Observability::prometheusText(const HealthSample &current)
{
    if (!cfg.metrics)
        return "";
    updateRegistry(current);
    return registry.prometheusText();
}

std::string
Observability::snapshotJsonLines() const
{
    std::string out;
    for (const HealthSample &sample : history) {
        out += sample.toJson();
        out += "\n";
    }
    return out;
}

void
Observability::saveState(common::BinWriter &out) const
{
    out.writeBool(feedLatencyHist != nullptr);
    if (feedLatencyHist != nullptr)
        feedLatencyHist->saveState(out);
    out.writeBool(walHist != nullptr);
    if (walHist != nullptr)
        walHist->saveState(out);
    out.writeU64(history.size());
    for (const HealthSample &sample : history)
        sample.saveState(out);
    out.writeF64(lastSnapshotTime);
    out.writeBool(anySnapshot);
}

bool
Observability::restoreState(common::BinReader &in)
{
    bool has_hist = in.readBool();
    if (!in.ok() || has_hist != (feedLatencyHist != nullptr)) {
        in.fail();
        return false;
    }
    if (has_hist && !feedLatencyHist->restoreState(in))
        return false;
    bool has_wal = in.readBool();
    if (!in.ok())
        return false;
    if (has_wal) {
        // Created on demand: a restoring vaulted monitor may not
        // have touched the ledger yet, so materialise it here.
        Histogram *wal = walAppendLatency();
        if (wal == nullptr || !wal->restoreState(in)) {
            in.fail();
            return false;
        }
    }
    std::uint64_t sample_count = in.readU64();
    if (!in.ok())
        return false;
    history.clear();
    history.reserve(static_cast<std::size_t>(sample_count));
    for (std::uint64_t i = 0; i < sample_count; ++i) {
        HealthSample sample;
        if (!sample.restoreState(in))
            return false;
        history.push_back(sample);
    }
    lastSnapshotTime = in.readF64();
    anySnapshot = in.readBool();
    if (!in.ok())
        return false;
    if (!history.empty())
        updateRegistry(history.back());
    return true;
}

} // namespace cloudseer::obs
