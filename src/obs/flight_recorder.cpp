#include "obs/flight_recorder.hpp"

#include <algorithm>

namespace cloudseer::obs {

FlightRecorder::FlightRecorder(const FlightRecorderConfig &config)
    : cfg(config)
{
}

void
FlightRecorder::record(std::string_view node, double time,
                       std::string_view line)
{
    if (cfg.perNodeCapacity == 0)
        return;
    auto it = rings.find(node);
    if (it == rings.end()) {
        if (rings.size() >= cfg.maxNodes) {
            ++droppedLineCount;
            return;
        }
        it = rings.emplace(std::string(node), NodeRing{}).first;
        it->second.slots.reserve(cfg.perNodeCapacity);
    }
    NodeRing &ring = it->second;
    if (ring.slots.size() < cfg.perNodeCapacity) {
        ring.slots.push_back({time, std::string(line)});
    } else {
        // Overwrite in place: assign() reuses the evicted line's
        // capacity, so a warmed-up ring records without allocating.
        Slot &slot = ring.slots[ring.next];
        slot.time = time;
        slot.line.assign(line.data(), line.size());
        ring.next = (ring.next + 1) % cfg.perNodeCapacity;
    }
    ++ring.seq;
    ++recorded;
}

void
FlightRecorder::contextInto(std::vector<ContextLineView> &out) const
{
    out.clear();
    for (const auto &[node, ring] : rings) {
        // Oldest-first within the ring: the wrap point is `next`.
        for (std::size_t i = 0; i < ring.slots.size(); ++i) {
            std::size_t at = ring.slots.size() < cfg.perNodeCapacity
                                 ? i
                                 : (ring.next + i) % ring.slots.size();
            out.push_back({node, ring.slots[at].time, ring.slots[at].line});
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const ContextLineView &a, const ContextLineView &b) {
                         if (a.time != b.time)
                             return a.time < b.time;
                         return a.node < b.node;
                     });
}

std::vector<ContextLine>
FlightRecorder::context() const
{
    std::vector<ContextLineView> views;
    contextInto(views);
    std::vector<ContextLine> out;
    out.reserve(views.size());
    for (const ContextLineView &view : views)
        out.push_back({std::string(view.node), view.time,
                       std::string(view.line)});
    return out;
}

void
FlightRecorder::addBundle(std::string bundle_json)
{
    store.push_back(std::move(bundle_json));
    while (store.size() > cfg.maxBundles) {
        store.erase(store.begin());
        ++droppedBundleCount;
    }
}

std::string
FlightRecorder::bundleJsonLines() const
{
    std::string out;
    for (const std::string &bundle : store) {
        out += bundle;
        out += "\n";
    }
    return out;
}

} // namespace cloudseer::obs
