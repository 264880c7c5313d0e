#include "obs/observability.hpp"

#include <charconv>

namespace cloudseer::obs {

namespace {

constexpr std::string_view kHealthKind = "\"kind\":\"HEALTH\"";

/** The row for `key` inside `section`, or null. */
const HealthField *
findField(std::string_view section, std::string_view key)
{
    for (const HealthField &field : kHealthFields) {
        if (field.section == section && field.key == key)
            return &field;
    }
    return nullptr;
}

/** Parse `text` into the field's member; an unparsable value leaves
 *  it as it is. */
void
parseValue(const HealthField &field, std::string_view text,
           HealthSample &sample)
{
    const char *end = text.data() + text.size();
    if (field.count != nullptr) {
        std::uint64_t value = 0;
        if (std::from_chars(text.data(), end, value).ec == std::errc())
            sample.*field.count = value;
    } else {
        double value = 0.0;
        if (std::from_chars(text.data(), end, value).ec == std::errc())
            sample.*field.real = value;
    }
}

} // namespace

std::string
HealthSample::toJson() const
{
    std::string out = "{";
    out += kHealthKind;
    std::string_view open; // the section being written
    bool first = false;    // no comma before the section's first key
    for (const HealthField &field : kHealthFields) {
        if (field.section != open) {
            if (!open.empty())
                out += '}';
            if (!field.section.empty()) {
                out += ",\"";
                out += field.section;
                out += "\":{";
                first = true;
            }
            open = field.section;
        }
        out += first ? "\"" : ",\"";
        first = false;
        out += field.key;
        out += "\":";
        if (field.count != nullptr) {
            char buf[24];
            out.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                          this->*field.count)
                                .ptr);
        } else {
            out += formatNumber(this->*field.real);
        }
    }
    if (!open.empty())
        out += '}';
    out += '}';
    return out;
}

HealthSample
HealthSample::fromJson(std::string_view line)
{
    HealthSample sample;
    std::string_view section;
    std::size_t at = 0;
    while (at < line.size()) {
        if (line[at] == '}') {
            section = {};
            ++at;
            continue;
        }
        if (line[at] != '"') {
            ++at;
            continue;
        }
        const std::size_t close = line.find('"', at + 1);
        if (close == std::string_view::npos)
            break;
        const std::string_view name = line.substr(at + 1, close - at - 1);
        at = close + 1;
        if (at >= line.size() || line[at] != ':')
            continue;
        ++at;
        if (at < line.size() && line[at] == '{') {
            section = name;
            ++at;
            continue;
        }
        if (at < line.size() && line[at] == '"')
            continue; // a string value: read next as a name, then skipped
        std::size_t end = line.find_first_of(",}", at);
        if (end == std::string_view::npos)
            end = line.size();
        if (const HealthField *field = findField(section, name))
            parseValue(*field, line.substr(at, end - at), sample);
        at = end;
    }
    return sample;
}

bool
HealthSample::isJson(std::string_view line)
{
    return line.find(kHealthKind) != std::string_view::npos;
}

void
HealthSample::saveState(common::BinWriter &out) const
{
    for (const HealthField &field : kHealthFields) {
        if (field.count != nullptr)
            out.writeU64(this->*field.count);
        else
            out.writeF64(this->*field.real);
    }
}

bool
HealthSample::restoreState(common::BinReader &in)
{
    for (const HealthField &field : kHealthFields) {
        if (field.count != nullptr)
            this->*field.count = in.readU64();
        else
            this->*field.real = in.readF64();
    }
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
    for (const HealthField &field : kHealthFields) {
        if (field.kind == MetricKind::Counter)
            registry.counter(field.metric, field.help).set(s.*field.count);
        else if (field.kind == MetricKind::Gauge)
            registry.gauge(field.metric, field.help).set(field.value(s));
    }

    // Derived and facade-owned series.
    auto g = [this](const char *name, const char *help, double value) {
        registry.gauge(name, help).set(value);
    };
    double lookups =
        static_cast<double>(s.internerHits + s.internerMisses);
    g("seer_interner_hit_rate",
      "fraction of intern lookups served from the table",
      lookups > 0.0 ? static_cast<double>(s.internerHits) / lookups
                    : 0.0);
    if (tracerPtr != nullptr) {
        registry
            .counter("seer_trace_spans_dropped_total",
                     "closed spans dropped past the retention cap")
            .set(tracerPtr->droppedSpans());
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
    // A count the rest of the image cannot hold is refused before it
    // sizes the series.
    std::uint64_t sample_count = in.readU64();
    if (!in.ok())
        return false;
    if (sample_count > in.remaining() / kHealthSampleBytes) {
        in.fail();
        return false;
    }
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
