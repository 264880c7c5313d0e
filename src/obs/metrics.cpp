#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace cloudseer::obs {

namespace {

constexpr int kSubBuckets = 9; // mantissa 1..9 per decade

/**
 * HELP-text escaping per the Prometheus exposition spec: backslash
 * and line feed only (quotes are legal in HELP).
 */
std::string
escapeHelp(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

/** Label-value escaping: backslash, double quote, and line feed. */
std::string
escapeLabelValue(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

} // namespace

std::string
formatNumber(double value)
{
    // printf's %g is what an ostream prints a double as by default.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
}

Histogram::Histogram(int min_exp, int max_exp)
{
    CS_ASSERT(max_exp > min_exp, "histogram range must be non-empty");
    for (int e = min_exp; e < max_exp; ++e) {
        double decade = std::pow(10.0, e);
        for (int m = 1; m <= kSubBuckets; ++m)
            bounds.push_back(static_cast<double>(m) * decade);
    }
    bounds.push_back(std::pow(10.0, max_exp));
    hits.assign(bounds.size() - 1, 0);
}

void
Histogram::record(double value)
{
    if (samples == 0) {
        minValue = maxValue = value;
    } else {
        minValue = std::min(minValue, value);
        maxValue = std::max(maxValue, value);
    }
    ++samples;
    total += value;

    if (value < bounds.front()) {
        ++underflowCount;
        return;
    }
    if (value >= bounds.back()) {
        ++overflowCount;
        return;
    }
    // First boundary strictly above the value; the bucket before it
    // covers [bounds[i], bounds[i+1]).
    auto it = std::upper_bound(bounds.begin(), bounds.end(), value);
    ++hits[static_cast<std::size_t>(it - bounds.begin()) - 1];
}

double
Histogram::mean() const
{
    return samples == 0 ? 0.0
                        : total / static_cast<double>(samples);
}

double
Histogram::percentile(double p) const
{
    if (samples == 0)
        return 0.0;
    double clamped = std::min(100.0, std::max(0.0, p));
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(samples)));
    rank = std::max<std::uint64_t>(rank, 1);

    std::uint64_t seen = underflowCount;
    if (rank <= seen)
        return minValue; // inside the underflow region
    for (std::size_t i = 0; i < hits.size(); ++i) {
        seen += hits[i];
        if (rank <= seen) {
            return std::max(minValue,
                            std::min(bounds[i + 1], maxValue));
        }
    }
    return maxValue; // overflow region
}

double
Histogram::percentileInterpolated(double p) const
{
    if (samples == 0)
        return 0.0;
    double clamped = std::min(100.0, std::max(0.0, p));
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(samples)));
    rank = std::max<std::uint64_t>(rank, 1);

    // Linear interpolation of the rank's position within its region;
    // the clamp keeps estimates inside the observed [min, max].
    std::uint64_t before = 0;
    auto interpolate = [&](double lo, double hi,
                           std::uint64_t region_hits) {
        double fraction =
            (static_cast<double>(rank) - static_cast<double>(before)) /
            static_cast<double>(region_hits);
        double value = lo + fraction * (hi - lo);
        return std::max(minValue, std::min(value, maxValue));
    };

    if (rank <= underflowCount)
        return interpolate(minValue, bounds.front(), underflowCount);
    before = underflowCount;
    for (std::size_t i = 0; i < hits.size(); ++i) {
        if (hits[i] != 0 && rank <= before + hits[i])
            return interpolate(bounds[i], bounds[i + 1], hits[i]);
        before += hits[i];
    }
    if (overflowCount == 0)
        return maxValue;
    return interpolate(bounds.back(), maxValue, overflowCount);
}

void
Histogram::saveState(common::BinWriter &out) const
{
    out.writeU64(hits.size());
    for (std::uint64_t h : hits)
        out.writeU64(h);
    out.writeU64(underflowCount);
    out.writeU64(overflowCount);
    out.writeU64(samples);
    out.writeF64(total);
    out.writeF64(minValue);
    out.writeF64(maxValue);
}

bool
Histogram::restoreState(common::BinReader &in)
{
    std::uint64_t bucket_count = in.readU64();
    if (!in.ok() || bucket_count != hits.size()) {
        in.fail();
        return false;
    }
    std::vector<std::uint64_t> restored(hits.size());
    for (std::size_t i = 0; i < restored.size(); ++i)
        restored[i] = in.readU64();
    std::uint64_t under = in.readU64();
    std::uint64_t over = in.readU64();
    std::uint64_t count = in.readU64();
    double sum_restored = in.readF64();
    double min_restored = in.readF64();
    double max_restored = in.readF64();
    if (!in.ok())
        return false;
    hits = std::move(restored);
    underflowCount = under;
    overflowCount = over;
    samples = count;
    total = sum_restored;
    minValue = min_restored;
    maxValue = max_restored;
    return true;
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &help)
{
    auto [it, fresh] = counters.try_emplace(name);
    if (fresh)
        it->second.help = help;
    return it->second.metric;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help)
{
    auto [it, fresh] = gauges.try_emplace(name);
    if (fresh)
        it->second.help = help;
    return it->second.metric;
}

Gauge &
MetricsRegistry::labeledGauge(
    const std::string &name,
    const std::vector<std::pair<std::string, std::string>> &labels,
    const std::string &help)
{
    // The rendered label block becomes part of the storage key, so
    // two label sets on one family are two series, and re-requesting
    // the same set yields the same instrument.
    std::string key = name + "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        key += (i == 0 ? "" : ",");
        key += labels[i].first + "=\"" +
               escapeLabelValue(labels[i].second) + "\"";
    }
    key += "}";
    auto [it, fresh] = gauges.try_emplace(key);
    if (fresh)
        it->second.help = help;
    return it->second.metric;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help, int min_exp,
                           int max_exp)
{
    auto it = histograms.find(name);
    if (it == histograms.end()) {
        it = histograms
                 .emplace(name,
                          Named<Histogram>{Histogram(min_exp, max_exp),
                                           help})
                 .first;
    }
    return it->second.metric;
}

std::size_t
MetricsRegistry::size() const
{
    return counters.size() + gauges.size() + histograms.size();
}

std::string
MetricsRegistry::prometheusText() const
{
    std::ostringstream out;
    for (const auto &[name, entry] : counters) {
        out << "# HELP " << name << " " << escapeHelp(entry.help)
            << "\n";
        out << "# TYPE " << name << " counter\n";
        out << name << " " << entry.metric.value() << "\n";
    }
    // Gauge keys may carry a rendered label block; HELP/TYPE belong
    // to the family (the key up to '{') and must appear exactly once
    // per family, so group series by family before emitting.
    std::map<std::string,
             std::vector<std::pair<std::string, const Named<Gauge> *>>>
        families;
    for (const auto &[key, entry] : gauges) {
        std::size_t brace = key.find('{');
        std::string family =
            brace == std::string::npos ? key : key.substr(0, brace);
        families[family].emplace_back(key, &entry);
    }
    for (const auto &[family, series] : families) {
        out << "# HELP " << family << " "
            << escapeHelp(series.front().second->help) << "\n";
        out << "# TYPE " << family << " gauge\n";
        for (const auto &[key, entry] : series)
            out << key << " " << formatNumber(entry->metric.value())
                << "\n";
    }
    for (const auto &[name, entry] : histograms) {
        const Histogram &h = entry.metric;
        out << "# HELP " << name << " " << escapeHelp(entry.help)
            << "\n";
        out << "# TYPE " << name << " histogram\n";
        // Cumulative buckets; the underflow region folds into the
        // first bucket's tally, per Prometheus le-semantics.
        std::uint64_t cumulative = h.underflow();
        for (std::size_t i = 0; i < h.buckets(); ++i) {
            cumulative += h.bucketHits(i);
            // Only boundaries that carry mass keep the text compact.
            if (h.bucketHits(i) == 0 && i + 1 != h.buckets())
                continue;
            out << name << "_bucket{le=\""
                << escapeLabelValue(formatNumber(h.bucketUpper(i)))
                << "\"} " << cumulative << "\n";
        }
        out << name << "_bucket{le=\"+Inf\"} " << h.count() << "\n";
        out << name << "_sum " << formatNumber(h.sum()) << "\n";
        out << name << "_count " << h.count() << "\n";
    }
    return out.str();
}

std::string
MetricsRegistry::jsonSnapshot() const
{
    std::ostringstream out;
    out << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, entry] : counters) {
        out << (first ? "" : ",") << "\"" << name
            << "\":" << entry.metric.value();
        first = false;
    }
    out << "},\"gauges\":{";
    first = true;
    for (const auto &[name, entry] : gauges) {
        out << (first ? "" : ",") << "\"" << common::JsonEscaped{name}
            << "\":" << formatNumber(entry.metric.value());
        first = false;
    }
    out << "},\"histograms\":{";
    first = true;
    for (const auto &[name, entry] : histograms) {
        const Histogram &h = entry.metric;
        out << (first ? "" : ",") << "\"" << name << "\":{\"count\":"
            << h.count() << ",\"sum\":" << formatNumber(h.sum())
            << ",\"min\":" << formatNumber(h.minSeen())
            << ",\"max\":" << formatNumber(h.maxSeen())
            << ",\"p50\":"
            << formatNumber(h.percentileInterpolated(50.0))
            << ",\"p90\":"
            << formatNumber(h.percentileInterpolated(90.0))
            << ",\"p95\":"
            << formatNumber(h.percentileInterpolated(95.0))
            << ",\"p99\":"
            << formatNumber(h.percentileInterpolated(99.0))
            << ",\"underflow\":" << h.underflow()
            << ",\"overflow\":" << h.overflow() << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

} // namespace cloudseer::obs
