#include "core/monitor/workflow_monitor.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <sstream>
#include <thread>

#include "analysis/interference.hpp"
#include "analysis/model_lint.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"
#include "core/monitor/report_json.hpp"
#include "logging/identifier_interner.hpp"

namespace cloudseer::core {

IngestConfig
hardenedIngestDefaults()
{
    IngestConfig config;
    config.reorderWindowSeconds = 0.25;
    config.reorderBufferCap = 4096;
    config.clampNonMonotonic = true;
    config.dedupWindowSeconds = 5.0;
    config.maxActiveGroups = 256;
    config.quarantineSampleCap = 16;
    return config;
}

std::vector<const TaskAutomaton *>
WorkflowMonitor::pointersTo(const std::vector<TaskAutomaton> &automata)
{
    std::vector<const TaskAutomaton *> out;
    out.reserve(automata.size());
    for (const TaskAutomaton &automaton : automata)
        out.push_back(&automaton);
    return out;
}

WorkflowMonitor::WorkflowMonitor(
    const MonitorConfig &config_,
    std::shared_ptr<logging::TemplateCatalog> catalog,
    std::vector<TaskAutomaton> automata)
    : config(config_),
      catalogPtr(std::move(catalog)),
      specs(std::move(automata)),
      checker(config.checker, pointersTo(specs))
{
    CS_ASSERT(catalogPtr != nullptr, "monitor needs a catalog");
    timeoutPolicy.defaultTimeout = config.timeoutSeconds;
    timeoutPolicy.perTask = config.perTaskTimeouts;

    // seer-pulse implies metrics (the /metrics document and the stage
    // histograms live in the registry) and a snapshot heartbeat (the
    // rate engine consumes the health series at snapshot cadence).
    if (config.pulse.enabled) {
        config.observability.metrics = true;
        if (config.observability.snapshotIntervalSeconds <= 0.0) {
            config.observability.snapshotIntervalSeconds =
                std::max(1.0, config.pulse.windowSeconds / 6.0);
        }
    }

    // seer-scope: only instantiated when some sink is on; the null
    // sink is a null pointer, not a disabled object.
    if (config.observability.enabled()) {
        obsPtr =
            std::make_unique<obs::Observability>(config.observability);
        checker.setTracer(obsPtr->tracer());
    }

    // seer-vault: cap the process-wide interner when asked. Only a
    // non-zero knob touches the singleton — the default leaves other
    // monitors in the process unaffected.
    if (config.ingest.maxInternerEntries > 0) {
        logging::IdentifierInterner::process().setCapacity(
            config.ingest.maxInternerEntries);
    }

    // seer-flight: install the latency criterion when profiles ship
    // with the model. Tasks without a sampled profile stay exempt.
    if (!config.latencyProfiles.empty())
        checker.setLatencyPolicy(config.latencyProfiles,
                                 config.latencyCheck);

    // Load-time model verification (seer-lint): a structurally broken
    // specification produces confidently wrong reports for as long as
    // the deployment runs, so errors refuse to start by default.
    analysis::LintOptions lint;
    lint.maxForkFanout = config.checker.maxForkFanout;
    lint.numbersAsIdentifiers = config.numbersAsIdentifiers;
    lint.defaultTimeout = config.timeoutSeconds;
    lint.perTaskTimeouts = config.perTaskTimeouts;
    loadReport = analysis::lintModels(specs, *catalogPtr, lint);
    if (!config.latencyProfiles.empty()) {
        loadReport.merge(analysis::lintLatencyProfiles(
            specs, config.latencyProfiles));
    }

    // seer-prove (DESIGN.md §15): the interference analysis runs at
    // every load, because its SL02x findings belong in the load report.
    analysis::InterferenceOptions prove;
    prove.maxForkFanout = config.checker.maxForkFanout;
    prove.numbersAsIdentifiers = config.numbersAsIdentifiers;
    analysis::InterferenceResult interference =
        analysis::analyzeInterference(specs, *catalogPtr, prove);
    loadReport.merge(std::move(interference.report));
    loadReport.sortStable();

    if (config.verifyModelOnLoad && loadReport.hasErrors()) {
        std::string msg = "seer-lint rejected the model bundle:";
        for (const std::string &finding :
             analysis::errorSummaries(loadReport)) {
            msg += "\n  " + finding;
        }
        msg += "\nfix the model or replay with verifyModelOnLoad=false "
               "(--no-verify)";
        common::fatal(msg);
    }

    // seer-pulse (DESIGN.md §16): build identity, the rate + alert
    // engines, sampled stage timers, and — when a port is configured —
    // the scrape endpoint. Placed after the lint gate so a rejected
    // model never opens a socket.
    if (obsPtr != nullptr) {
        std::ostringstream fp;
        fp << std::hex << modelFingerprint();
        obsPtr->setBuildInfo(common::kVersion, fp.str());
    }
    if (config.pulse.enabled) {
        pulsePtr = std::make_unique<obs::PulseEngine>(config.pulse);
        stageEvery = config.pulse.stageSampleEvery;
        if (stageEvery > 0) {
            obs::MetricsRegistry &reg = obsPtr->metrics();
            stageSink = &reg.histogram(
                "seer_stage_sink_us",
                "sampled wire-decode stage latency, microseconds", -1,
                6);
            stageParse = &reg.histogram(
                "seer_stage_parse_us",
                "sampled parse+intern stage latency, microseconds", -1,
                6);
            stageRoute = &reg.histogram(
                "seer_stage_route_us",
                "sampled clock-guard+dedup stage latency, microseconds",
                -1, 6);
            stageCheck = &reg.histogram(
                "seer_stage_check_us",
                "sampled checking-engine stage latency, microseconds",
                -1, 6);
            stageVerdict = &reg.histogram(
                "seer_stage_verdict_us",
                "sampled verdict+shedding stage latency, microseconds",
                -1, 6);
        }
        if (config.pulse.httpPort >= 0) {
            pulseServer = std::make_unique<obs::TelemetryServer>(
                config.pulse.httpBindAddress,
                static_cast<std::uint16_t>(config.pulse.httpPort));
            // seer-probe: /profilez?seconds=N pulls a live profile.
            // Registered before start() — the handler table freezes
            // when the server launches.
            pulseServer->setProfileProvider([this](double seconds) {
                return liveProfileJson(seconds);
            });
            if (!pulseServer->start()) {
                common::fatal(
                    "seer-pulse: cannot bind scrape endpoint: " +
                    pulseServer->error());
            }
            publishPulse();
        }
    }

    // seer-probe continuous profiler (DESIGN.md §17): disabled means
    // nothing is constructed — no SIGPROF handler, no timer, reports
    // bit-identical (pinned by tests/profiler_test).
    if (config.profiler.enabled) {
        profPtr = std::make_unique<obs::Profiler>(config.profiler);
        if (!profPtr->start()) {
            common::fatal("seer-probe: cannot start profiler "
                          "(SIGPROF slot already taken or the "
                          "profiling timer failed)");
        }
    }
}

std::vector<MonitorReport>
WorkflowMonitor::feed(const logging::LogRecord &record)
{
    return admit(record, false);
}

std::vector<MonitorReport>
WorkflowMonitor::admit(const logging::LogRecord &record, bool parked)
{
    // seer-probe: everything from arrival onward samples as "sink"
    // unless an interior stage (parse/route/check/verdict) re-tags.
    obs::StageScope profScope(obs::ProfStage::Sink);
    std::vector<MonitorReport> reports;

    // Feed-latency timing only exists when metrics are on; the
    // null-sink path never reads a clock.
    const bool timed =
        obsPtr != nullptr && obsPtr->config().metrics;
    std::chrono::steady_clock::time_point before;
    if (timed)
        before = std::chrono::steady_clock::now();

    // seer-flight: capture the raw line at arrival, before reordering
    // — a forensic context must show the stream as it actually came in.
    // Encoded into a reused scratch buffer: this runs per message, and
    // the recorder copies into its own slot anyway.
    if (obsPtr != nullptr && obsPtr->flight() != nullptr) {
        logging::encodeLogLineTo(record, flightScratch);
        obsPtr->flight()->record(record.node, record.timestamp,
                                 flightScratch);
    }

    if (config.ingest.reorderWindowSeconds > 0.0) {
        // The record goes into a free pool slot, which still holds the
        // strings of a record released earlier: feedLine decoded into
        // it already, a caller's record is copied over them. Record
        // strings thus stay in the pool instead of being reallocated.
        if (!parked)
            reorderBuffer.vacant() = record;
        bufferAndRelease(reports);
    } else {
        deliver(record, reports);
    }
    captureBundles(reports);

    if (timed) {
        obsPtr->recordFeedLatency(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - before)
                .count());
    }
    if (obsPtr != nullptr && obsPtr->snapshotDue(lastTimestamp)) {
        obsPtr->addSnapshot(healthSample());
        pulseStep();
    }
    return reports;
}

void
WorkflowMonitor::bufferAndRelease(std::vector<MonitorReport> &reports)
{
    ingest.reorderBufferPeak = std::max<std::uint64_t>(
        ingest.reorderBufferPeak, reorderBuffer.insert());

    // Watermark release: a record is ripe once everything that could
    // still precede it (within the window) must already have arrived.
    // Overflow forces the oldest out rather than buffering unboundedly
    // (a stuck node clock must not wedge the monitor).
    reorderBuffer.release(
        config.ingest.reorderWindowSeconds, config.ingest.reorderBufferCap,
        [&](const logging::LogRecord &record, bool forced) {
            if (forced)
                ++ingest.forcedReleases;
            deliver(record, reports);
        });
}

void
WorkflowMonitor::deliver(const logging::LogRecord &record,
                         std::vector<MonitorReport> &reports)
{
    ++ingest.recordsDelivered;

    // seer-pulse stage timers (DESIGN.md §16): one-in-N records
    // measure each pipeline stage. Unsampled records (and every record
    // when timers are off) see a single integer test.
    using StageClock = std::chrono::steady_clock;
    const bool staged =
        stageEvery > 0 && (ingest.recordsDelivered - 1) % stageEvery == 0;
    auto stageUs = [](StageClock::time_point from,
                      StageClock::time_point to) {
        return std::chrono::duration<double, std::micro>(to - from)
            .count();
    };
    StageClock::time_point stageT0;
    StageClock::time_point stageT1;
    double routeAccUs = 0.0;
    if (staged)
        stageT0 = StageClock::now();

    // Timestamp guard. The stream can be slightly out of timestamp
    // order (shipping skew); the monitor clock never moves backwards.
    // With the clamp on, the *message* time is pinned to the clock
    // too, so a backwards stamp cannot plant a group in the past and
    // have the next sweep retroactively time it out.
    common::SimTime message_time = record.timestamp;
    common::SimTime now;
    {
        obs::StageScope profScope(obs::ProfStage::Route);
        if (record.timestamp < lastTimestamp) {
            ++ingest.nonMonotonicClamped;
            ingest.maxRegressionSeconds =
                std::max(ingest.maxRegressionSeconds,
                         lastTimestamp - record.timestamp);
            if (config.ingest.clampNonMonotonic)
                message_time = lastTimestamp;
        }
        now = std::max(lastTimestamp, message_time);
        lastTimestamp = now;
        anyFed = true;
    }

    if (staged) {
        stageT1 = StageClock::now();
        routeAccUs += stageUs(stageT0, stageT1);
        stageT0 = stageT1;
    }

    CheckMessage &message = checkMessage;
    {
        obs::StageScope profScope(obs::ProfStage::Parse);
        extractor.parseInto(record.body, parsedBody);
        message.tpl =
            catalogPtr->find(record.service, parsedBody.templateText);
        message.identifiers.clear();
        logging::IdentifierInterner &interner =
            logging::IdentifierInterner::process();
        for (const logging::Variable &var : parsedBody.variables) {
            if (var.kind == logging::VariableKind::Number &&
                !config.numbersAsIdentifiers) {
                continue;
            }
            logging::IdToken token = interner.intern(var.text);
            // A capped interner refuses new identifiers; the message
            // checks on without the refused token (degraded routing
            // precision, bounded memory).
            if (token == logging::kInvalidIdToken)
                continue;
            message.identifiers.push_back(token);
        }
        message.level = record.level;
        message.record = record.id;
        message.time = message_time;
    }

    if (staged) {
        stageT1 = StageClock::now();
        stageParse->record(stageUs(stageT0, stageT1));
        stageT0 = stageT1;
    }

    // Near-duplicate suppression: an at-least-once shipper re-delivers
    // byte-identical lines, so the key is everything the checker would
    // see — keyed on the *original* stamp so a clamped re-delivery
    // still matches its first delivery. A suppressed record still
    // sweeps the timeout criterion at its time.
    bool suppressed = false;
    if (config.ingest.dedupWindowSeconds > 0.0) {
        obs::StageScope profScope(obs::ProfStage::Route);
        // Built in place; the stamp renders as std::to_string did
        // ("%f": fixed, six decimals), so the key bytes are unchanged.
        // The longest such rendering of a double is 317 characters.
        char digits[320];
        auto appendNumber = [this, &digits](auto value) {
            auto result =
                std::to_chars(digits, digits + sizeof(digits), value);
            dedupKey.append(digits, result.ptr);
        };
        dedupKey.assign(record.node);
        dedupKey += '\x1f';
        dedupKey += record.service;
        dedupKey += '\x1f';
        appendNumber(message.tpl);
        for (logging::IdToken id : message.identifiers) {
            dedupKey += '\x1f';
            appendNumber(id);
        }
        dedupKey += '\x1f';
        auto stamp = std::to_chars(digits, digits + sizeof(digits),
                                   record.timestamp,
                                   std::chars_format::fixed, 6);
        dedupKey.append(digits, stamp.ptr);

        if (recentKeys.admit(dedupKey, now,
                             config.ingest.dedupWindowSeconds)) {
            ++ingest.duplicatesSuppressed;
            suppressed = true;
        }
    }

    // Route = clock guard + dedup: the two spans that decide where and
    // whether the message goes, with the parse sandwiched between them.
    if (staged) {
        stageT1 = StageClock::now();
        stageRoute->record(routeAccUs + stageUs(stageT0, stageT1));
        stageT0 = stageT1;
    }

    {
        obs::StageScope profScope(obs::ProfStage::Check);
        for (CheckEvent &event : checker.sweepTimeouts(
                 now, [this](const std::vector<std::string> &tasks) {
                     return timeoutPolicy.timeoutForCandidates(tasks);
                 })) {
            reports.push_back({std::move(event), false});
        }
        if (!suppressed) {
            for (CheckEvent &event : checker.feed(message))
                reports.push_back({std::move(event), false});
        }
    }
    if (staged) {
        stageT1 = StageClock::now();
        stageCheck->record(stageUs(stageT0, stageT1));
        stageT0 = stageT1;
    }
    if (suppressed)
        return;

    {
        obs::StageScope profScope(obs::ProfStage::Verdict);
        // Group-cap shedding: bound live state, loudly.
        if (config.ingest.maxActiveGroups > 0 &&
            checker.activeGroups() > config.ingest.maxActiveGroups) {
            for (CheckEvent &event : checker.shedToCap(
                     config.ingest.maxActiveGroups, now)) {
                ++ingest.groupsShed;
                reports.push_back({std::move(event), false});
            }
        }

        // Memory ceiling (seer-vault): same Degraded contract, in
        // bytes. Cadence keys off recordsDelivered — serialised state
        // — so a restored monitor re-checks at the same stream
        // positions.
        if (config.ingest.maxResidentBytes > 0) {
            std::uint64_t interval = std::max<std::uint64_t>(
                1, config.ingest.memoryCheckInterval);
            if (ingest.recordsDelivered % interval == 0) {
                for (CheckEvent &event : checker.shedToMemory(
                         config.ingest.maxResidentBytes, now)) {
                    ++ingest.memoryEvictions;
                    reports.push_back({std::move(event), false});
                }
            }
        }
    }

    if (staged)
        stageVerdict->record(stageUs(stageT0, StageClock::now()));
}

std::vector<MonitorReport>
WorkflowMonitor::feedLine(std::string_view line)
{
    obs::StageScope profScope(obs::ProfStage::Sink);
    ++ingest.linesSeen;

    // Sink stage: the wire decode, sampled on the line counter (the
    // record counter has not been assigned yet).
    const bool staged =
        stageEvery > 0 && (ingest.linesSeen - 1) % stageEvery == 0;
    std::chrono::steady_clock::time_point sinkStart;
    if (staged)
        sinkStart = std::chrono::steady_clock::now();

    // With the reorder window on, decode straight into the buffer's
    // free slot; admit() then parks it where it lies.
    const bool parked = config.ingest.reorderWindowSeconds > 0.0;
    logging::LogRecord &target = parked ? reorderBuffer.vacant() : lineRecord;
    logging::DecodeFailure why = logging::DecodeFailure::None;
    const bool decoded = logging::decodeLogLineInto(line, target, &why);

    if (staged) {
        stageSink->record(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() -
                              sinkStart)
                              .count());
    }
    if (!decoded) {
        switch (why) {
          case logging::DecodeFailure::BadTimestamp:
            ++ingest.malformedBadTimestamp;
            break;
          case logging::DecodeFailure::BadHeader:
            ++ingest.malformedBadHeader;
            break;
          case logging::DecodeFailure::TruncatedPayload:
            ++ingest.malformedTruncatedPayload;
            break;
          case logging::DecodeFailure::None:
            ++ingest.malformedBadHeader;
            break;
        }
        if (quarantined.size() < config.ingest.quarantineSampleCap)
            quarantined.push_back({std::string(line), why});
        // Malformed lines never reach feed(), so capture them here —
        // garbage on the wire is exactly what a postmortem wants to
        // see. Stamped with the monitor clock; the line's own
        // timestamp is the part that failed to parse.
        if (obsPtr != nullptr && obsPtr->flight() != nullptr)
            obsPtr->flight()->record("<malformed>", lastTimestamp, line);
        return {};
    }
    return admit(target, parked);
}

std::vector<MonitorReport>
WorkflowMonitor::finish()
{
    std::vector<MonitorReport> reports;

    // Flush the reorder buffer: at end of stream every parked record
    // is ripe by definition.
    reorderBuffer.flush([&](const logging::LogRecord &record) {
        deliver(record, reports);
    });

    if (!anyFed)
        return reports;

    // Give the timeout criterion one last chance to fire. These are
    // end-of-stream reports: the wall clock stopped with the stream,
    // so "overdue at the horizon" is an artefact of stopping, not a
    // live observation.
    double max_timeout = config.timeoutSeconds;
    for (const auto &[task, value] : timeoutPolicy.perTask)
        max_timeout = std::max(max_timeout, value);
    common::SimTime horizon = lastTimestamp + max_timeout * 1.001;
    for (CheckEvent &event : checker.sweepTimeouts(
             horizon, [this](const std::vector<std::string> &tasks) {
                 return timeoutPolicy.timeoutForCandidates(tasks);
             })) {
        reports.push_back({std::move(event), true});
    }
    for (CheckEvent &event : checker.finish(horizon))
        reports.push_back({std::move(event), true});
    captureBundles(reports);

    // Close the health series with a final post-flush observation so
    // the snapshot stream is self-terminating.
    if (obsPtr != nullptr &&
        obsPtr->config().snapshotIntervalSeconds > 0.0) {
        obsPtr->addSnapshot(healthSample());
        pulseStep();
    }
    return reports;
}

std::vector<TaskAutomaton>
WorkflowMonitor::refinedAutomata(int min_removals) const
{
    return refineFromRemovals(specs, checker.dependencyRemovals(),
                              min_removals);
}

obs::HealthSample
WorkflowMonitor::healthSample() const
{
    obs::HealthSample s;
    s.time = lastTimestamp;

    const CheckerStats &c = checker.stats();
    s.messages = c.messages;
    s.decisive = c.decisive;
    s.ambiguous = c.ambiguous;
    s.recoveredPassUnknown = c.recoveredPassUnknown;
    s.recoveredNewSequence = c.recoveredNewSequence;
    s.recoveredOtherSet = c.recoveredOtherSet;
    s.recoveredFalseDependency = c.recoveredFalseDependency;
    s.unmatched = c.unmatched;
    s.accepted = c.accepted;
    s.errorsReported = c.errorsReported;
    s.timeoutsReported = c.timeoutsReported;
    s.timeoutsSuppressed = c.timeoutsSuppressed;
    s.groupsShed = c.groupsShed;
    s.consumeAttempts = c.consumeAttempts;
    s.decisiveFraction = c.decisiveFraction();

    s.activeGroups = checker.activeGroups();
    s.activeIdentifierSets = checker.activeIdentifierSets();

    s.linesSeen = ingest.linesSeen;
    s.recordsDelivered = ingest.recordsDelivered;
    s.malformedLines = ingest.malformed();
    s.nonMonotonicClamped = ingest.nonMonotonicClamped;
    s.duplicatesSuppressed = ingest.duplicatesSuppressed;
    s.forcedReleases = ingest.forcedReleases;
    s.reorderBufferPeak = ingest.reorderBufferPeak;
    s.memoryEvictions = ingest.memoryEvictions;

    logging::InternerStats interner =
        logging::IdentifierInterner::process().stats();
    s.internerSize = interner.size;
    s.internerHits = interner.hits;
    s.internerMisses = interner.misses;
    s.internerCapRejected = interner.capRejected;

    s.timeoutResolutions = timeoutPolicy.resolutions;
    s.timeoutDefaultFallbacks = timeoutPolicy.defaultFallbacks;

    if (obsPtr != nullptr && obsPtr->feedLatency() != nullptr) {
        const obs::Histogram &latency = *obsPtr->feedLatency();
        s.feedP50us = latency.percentile(50.0);
        s.feedP90us = latency.percentile(90.0);
        s.feedP99us = latency.percentile(99.0);
        s.feedMaxUs = latency.maxSeen();
    }
    if (obsPtr != nullptr) {
        if (const obs::Histogram *wal =
                obsPtr->walAppendLatencyIfAny()) {
            s.walAppendP50us = wal->percentile(50.0);
            s.walAppendP99us = wal->percentile(99.0);
        }
    }
    return s;
}

std::string
WorkflowMonitor::prometheusText()
{
    return obsPtr == nullptr ? std::string()
                             : obsPtr->prometheusText(healthSample());
}

std::string
WorkflowMonitor::healthSnapshotJson() const
{
    return obsPtr == nullptr ? std::string()
                             : healthSample().toJson();
}

void
WorkflowMonitor::pulseStep()
{
    if (pulsePtr == nullptr)
        return;
    const std::vector<obs::HealthSample> &series = obsPtr->snapshots();
    if (series.empty())
        return;
    pulsePtr->observe(series.back());
    if (pulseServer != nullptr)
        publishPulse();
}

void
WorkflowMonitor::publishPulse()
{
    if (pulseServer == nullptr || pulsePtr == nullptr)
        return;
    obs::TelemetryServer::Documents docs;
    docs.metrics = prometheusText();
    docs.healthz = pulsePtr->healthzJson();
    docs.alerts = pulsePtr->alertsJson();
    docs.buildz = buildzJson();
    pulseServer->publish(std::move(docs));
}

std::string
WorkflowMonitor::liveProfileJson(double seconds)
{
    auto window = std::chrono::duration<double>(
        std::max(seconds, 0.0));
    if (profPtr != nullptr) {
        // The continuous profiler keeps sampling; let the window pass
        // and hand back everything it holds so far.
        std::this_thread::sleep_for(window);
        return profPtr->collect().toJson();
    }
    obs::ProfilerConfig transient = config.profiler;
    transient.enabled = true;
    obs::Profiler profiler(transient);
    if (!profiler.start())
        return std::string(); // SIGPROF slot held elsewhere
    std::this_thread::sleep_for(window);
    profiler.stop();
    return profiler.collect().toJson();
}

std::vector<std::string>
WorkflowMonitor::drainAlertJson()
{
    return pulsePtr == nullptr ? std::vector<std::string>()
                               : pulsePtr->drainAlertLines();
}

int
WorkflowMonitor::pulsePort() const
{
    return pulseServer == nullptr || !pulseServer->running()
               ? -1
               : static_cast<int>(pulseServer->port());
}

std::string
WorkflowMonitor::healthzJson() const
{
    return pulsePtr == nullptr ? std::string()
                               : pulsePtr->healthzJson();
}

std::string
WorkflowMonitor::buildzJson() const
{
    if (obsPtr == nullptr)
        return std::string();
    return obs::buildInfoJson(
        obsPtr->buildVersion(), obsPtr->modelFingerprint(),
        obsPtr->uptimeSeconds());
}

void
WorkflowMonitor::captureBundles(const std::vector<MonitorReport> &reports)
{
    if (obsPtr == nullptr || obsPtr->flight() == nullptr)
        return;
    for (const MonitorReport &report : reports) {
        switch (report.event.kind) {
          case CheckEventKind::ErrorDetected:
          case CheckEventKind::Timeout:
          case CheckEventKind::LatencyAnomaly:
            appendBundleHead(obsPtr->flight()->freezeBundle(), report);
            break;
          case CheckEventKind::Accepted:
          case CheckEventKind::Degraded:
            break;
        }
    }
}

void
WorkflowMonitor::appendBundleHead(std::string &out,
                                  const MonitorReport &report) const
{
    const logging::IdentifierInterner &interner =
        logging::IdentifierInterner::process();

    out += "{\"kind\":\"BUNDLE\",\"reason\":\"";
    out += checkEventKindName(report.event.kind);
    out += "\",\"task\":\"";
    appendJsonEscaped(out, report.event.taskName);
    out += "\",\"time\":";
    common::appendDouble(out, report.event.time, 3);
    out += ",\"group\":";
    char digits[24];
    out.append(digits,
               std::to_chars(digits, digits + sizeof(digits),
                             report.event.group)
                   .ptr);

    // The group's accumulated identifier set, resolved to text — the
    // handles an operator greps the wider infrastructure logs for.
    out += ",\"identifiers\":[";
    for (std::size_t i = 0; i < report.event.identifiers.size(); ++i) {
        if (i > 0)
            out += ',';
        out += '"';
        appendJsonEscaped(out,
                          interner.text(report.event.identifiers[i]));
        out += '"';
    }

    // The full report record: group state (states/expected), ambiguity
    // alternatives (candidates), per-edge timings (latency). The
    // frozen rings follow as "context" when the bundle is read.
    out += "],\"report\":";
    appendReportJson(out, report, *catalogPtr);
}

std::string
WorkflowMonitor::chromeTraceJson() const
{
    return obsPtr == nullptr || obsPtr->tracer() == nullptr
               ? std::string()
               : obsPtr->tracer()->chromeTraceJson();
}

void
WorkflowMonitor::saveState(common::BinWriter &out) const
{
    out.writeF64(lastTimestamp);
    out.writeBool(anyFed);

    common::writeMembers(out, ingest, kIngestStatsMembers);

    out.writeU64(quarantined.size());
    for (const QuarantinedLine &entry : quarantined) {
        out.writeString(entry.line);
        out.writeU8(static_cast<std::uint8_t>(entry.cause));
    }

    reorderBuffer.saveState(out);
    recentKeys.saveState(out);

    timeoutPolicy.saveState(out);
    checker.saveState(out);

    out.writeBool(obsPtr != nullptr);
    if (obsPtr != nullptr)
        obsPtr->saveState(out);
}

bool
WorkflowMonitor::restoreState(common::BinReader &in)
{
    lastTimestamp = in.readF64();
    anyFed = in.readBool();

    ingest = IngestStats{};
    common::readMembers(in, ingest, kIngestStatsMembers);

    std::uint64_t quarantine_count = in.readU64();
    if (!in.ok())
        return false;
    quarantined.clear();
    for (std::uint64_t i = 0; i < quarantine_count; ++i) {
        QuarantinedLine entry;
        entry.line = in.readString();
        entry.cause = static_cast<logging::DecodeFailure>(in.readU8());
        if (!in.ok())
            return false;
        quarantined.push_back(std::move(entry));
    }

    if (!reorderBuffer.restoreState(in))
        return false;
    if (!recentKeys.restoreState(in))
        return false;

    if (!timeoutPolicy.restoreState(in))
        return false;
    if (!checker.restoreState(in))
        return false;
    // Reports render tokens through the process interner, which the
    // vault restores first: every token must name one of its entries.
    if (checker.identifierTokenBound() >
        logging::IdentifierInterner::process().size()) {
        in.fail();
        return false;
    }

    bool has_obs = in.readBool();
    if (!in.ok() || has_obs != (obsPtr != nullptr)) {
        in.fail();
        return false;
    }
    if (has_obs && !obsPtr->restoreState(in))
        return false;
    return in.ok();
}

} // namespace cloudseer::core
