#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "common/string_util.hpp"

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
        it->second.node = static_cast<std::uint32_t>(nodeNames.size());
        nodeNames.push_back(&it->first);
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
    ++recorded;
}

void
FlightRecorder::snapshotInto(Snapshot &out) const
{
    std::size_t bytes = 0;
    std::size_t lines = 0;
    for (const auto &entry : rings) {
        lines += entry.second.slots.size();
        for (const Slot &slot : entry.second.slots)
            bytes += slot.line.size();
    }
    out.text.clear();
    out.lines.clear();
    // A buffer that has to grow is sized for the rings as they will be
    // once full, at the current mean line length, so that it does not
    // regrow every time a filling ring gains a line.
    if (out.lines.capacity() < lines)
        out.lines.reserve(rings.size() * cfg.perNodeCapacity);
    if (out.text.capacity() < bytes)
        out.text.reserve(std::max(
            {bytes, bytes / lines * rings.size() * cfg.perNodeCapacity,
             snapshotBytesHint}));

    for (const auto &entry : rings) {
        const NodeRing &ring = entry.second;
        // Oldest-first within the ring: the wrap point is `next`.
        for (std::size_t i = 0; i < ring.slots.size(); ++i) {
            std::size_t at = ring.slots.size() < cfg.perNodeCapacity
                                 ? i
                                 : (ring.next + i) % ring.slots.size();
            const Slot &slot = ring.slots[at];
            out.lines.push_back({slot.time, ring.node,
                                 static_cast<std::uint32_t>(slot.line.size()),
                                 out.text.size()});
            out.text.insert(out.text.end(), slot.line.begin(),
                            slot.line.end());
        }
    }
}

void
FlightRecorder::mergeOrder(const Snapshot &snapshot,
                           std::vector<std::uint32_t> &out) const
{
    out.resize(snapshot.lines.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<std::uint32_t>(i);
    // Stable over the ring-by-ring copy, so equal (time, node) pairs
    // keep capture order.
    std::stable_sort(out.begin(), out.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         const FrozenLine &x = snapshot.lines[a];
                         const FrozenLine &y = snapshot.lines[b];
                         if (x.time != y.time)
                             return x.time < y.time;
                         return *nodeNames[x.node] < *nodeNames[y.node];
                     });
}

std::vector<ContextLine>
FlightRecorder::context() const
{
    Snapshot snapshot;
    snapshotInto(snapshot);
    std::vector<std::uint32_t> order;
    mergeOrder(snapshot, order);
    std::vector<ContextLine> out;
    out.reserve(order.size());
    for (std::uint32_t at : order) {
        const FrozenLine &line = snapshot.lines[at];
        out.push_back({*nodeNames[line.node], line.time,
                       std::string(snapshot.text.data() + line.offset,
                                   line.length)});
    }
    return out;
}

std::string &
FlightRecorder::freezeBundle()
{
    if (cfg.maxBundles == 0) {
        ++droppedBundleCount;
        discardedHead.clear();
        return discardedHead;
    }
    Bundle *slot = nullptr;
    if (store.size() < cfg.maxBundles) {
        slot = &store.emplace_back();
    } else {
        slot = &store[oldest];
        oldest = (oldest + 1) % store.size();
        ++droppedBundleCount;
    }
    snapshotInto(slot->context);
    snapshotBytesHint = std::max(snapshotBytesHint,
                                 slot->context.text.size());
    // The head about to be overwritten was complete long ago.
    headBytesHint = std::max(headBytesHint, slot->head.size());
    slot->head.clear();
    slot->head.reserve(headBytesHint);
    return slot->head;
}

void
FlightRecorder::renderBundle(const Bundle &bundle, std::string &out) const
{
    out += bundle.head;
    out += ",\"context\":[";
    std::vector<std::uint32_t> order;
    mergeOrder(bundle.context, order);
    for (std::size_t i = 0; i < order.size(); ++i) {
        const FrozenLine &line = bundle.context.lines[order[i]];
        if (i > 0)
            out += ',';
        out += "{\"node\":\"";
        common::appendJsonEscaped(out, *nodeNames[line.node]);
        out += "\",\"time\":";
        common::appendDouble(out, line.time, 3);
        out += ",\"line\":\"";
        common::appendJsonEscaped(
            out, std::string_view(bundle.context.text.data() + line.offset,
                                  line.length));
        out += "\"}";
    }
    out += "]}";
}

std::vector<std::string>
FlightRecorder::bundles() const
{
    std::vector<std::string> out;
    out.reserve(store.size());
    forEachBundle([&](const Bundle &bundle) {
        renderBundle(bundle, out.emplace_back());
    });
    return out;
}

std::string
FlightRecorder::bundleJsonLines() const
{
    std::string out;
    forEachBundle([&](const Bundle &bundle) {
        renderBundle(bundle, out);
        out += "\n";
    });
    return out;
}

} // namespace cloudseer::obs
