#include "core/monitor/ingest_guards.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <utility>

#include "logging/record_binio.hpp"

namespace cloudseer::core {

namespace {

/** Ring and index sizes start here and double. */
constexpr std::size_t kInitialSlots = 16;

std::uint64_t
hashOf(std::string_view key)
{
    return std::hash<std::string_view>{}(key);
}

} // namespace

// --- DedupWindow ------------------------------------------------------

bool
DedupWindow::admit(std::string_view key, common::SimTime now,
                   double window)
{
    const common::SimTime cutoff = now - window;
    while (head != tail && at(head).time < cutoff) {
        const Entry &old = at(head);
        const std::size_t slot = find(old.hash, old.key);
        if (slot != kNone && index[slot].time <= old.time)
            erase(slot);
        ++head;
    }
    return record(key, hashOf(key), now);
}

bool
DedupWindow::record(std::string_view key, std::uint64_t hash,
                    common::SimTime time)
{
    if (tail - head == ring.size())
        growRing();
    Entry &entry = at(tail);
    entry.time = time;
    entry.hash = hash;
    entry.key.assign(key);

    std::size_t slot = find(hash, key);
    const bool seen = slot != kNone;
    if (!seen) {
        if (2 * (indexed + 1) > index.size())
            growIndex();
        const std::size_t mask = index.size() - 1;
        slot = static_cast<std::size_t>(hash) & mask;
        while (index[slot].pos != kEmpty)
            slot = (slot + 1) & mask;
        index[slot].hash = hash;
        ++indexed;
    }
    index[slot].pos = tail;
    index[slot].time = time;
    ++tail;
    return seen;
}

std::size_t
DedupWindow::find(std::uint64_t hash, std::string_view key) const
{
    if (index.empty())
        return kNone;
    const std::size_t mask = index.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(hash) & mask;;
         i = (i + 1) & mask) {
        const Slot &slot = index[i];
        if (slot.pos == kEmpty)
            return kNone;
        if (slot.hash == hash && at(slot.pos).key == key)
            return i;
    }
}

void
DedupWindow::erase(std::size_t slot)
{
    // Backward shift: pull each later member of the probe run into the
    // hole unless its home slot lies cyclically after the hole.
    const std::size_t mask = index.size() - 1;
    std::size_t hole = slot;
    for (std::size_t j = (hole + 1) & mask; index[j].pos != kEmpty;
         j = (j + 1) & mask) {
        const std::size_t home =
            static_cast<std::size_t>(index[j].hash) & mask;
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            index[hole] = index[j];
            hole = j;
        }
    }
    index[hole].pos = kEmpty;
    --indexed;
}

void
DedupWindow::growRing()
{
    std::vector<Entry> grown(ring.empty() ? kInitialSlots
                                          : 2 * ring.size());
    const std::size_t mask = grown.size() - 1;
    for (std::uint64_t pos = head; pos != tail; ++pos)
        grown[static_cast<std::size_t>(pos) & mask] = std::move(at(pos));
    ring = std::move(grown);
}

void
DedupWindow::growIndex()
{
    std::vector<Slot> grown(index.empty() ? kInitialSlots
                                          : 2 * index.size());
    const std::size_t mask = grown.size() - 1;
    for (const Slot &slot : index) {
        if (slot.pos == kEmpty)
            continue;
        std::size_t i = static_cast<std::size_t>(slot.hash) & mask;
        while (grown[i].pos != kEmpty)
            i = (i + 1) & mask;
        grown[i] = slot;
    }
    index = std::move(grown);
}

void
DedupWindow::saveState(common::BinWriter &out) const
{
    out.writeU64(tail - head);
    for (std::uint64_t pos = head; pos != tail; ++pos) {
        out.writeF64(at(pos).time);
        out.writeString(at(pos).key);
    }
}

bool
DedupWindow::restoreState(common::BinReader &in)
{
    std::uint64_t count = in.readU64();
    if (!in.ok())
        return false;
    head = tail = 0;
    for (Slot &slot : index)
        slot.pos = kEmpty;
    indexed = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        double time = in.readF64();
        std::string_view key = in.readStringView();
        if (!in.ok())
            return false;
        record(key, hashOf(key), time);
    }
    return true;
}

// --- ReorderBuffer ----------------------------------------------------

logging::LogRecord &
ReorderBuffer::vacant()
{
    if (freeSlots.empty()) {
        freeSlots.push_back(static_cast<std::uint32_t>(pool.size()));
        pool.emplace_back();
    }
    return pool[freeSlots.back()];
}

std::size_t
ReorderBuffer::insert()
{
    const std::uint32_t slot = freeSlots.back();
    freeSlots.pop_back();
    Entry entry{pool[slot].timestamp, nextSeq++, slot};
    highestSeen = std::max(highestSeen, entry.time);
    auto pos = order.end();
    while (pos != order.begin()) {
        auto prev = std::prev(pos);
        if (prev->time <= entry.time)
            break;
        pos = prev;
    }
    order.insert(pos, std::move(entry));
    return order.size();
}

void
ReorderBuffer::popFront()
{
    freeSlots.push_back(order.front().slot);
    order.pop_front();
}

void
ReorderBuffer::saveState(common::BinWriter &out) const
{
    out.writeU64(order.size());
    for (const Entry &entry : order) {
        logging::writeLogRecord(out, pool[entry.slot]);
        out.writeU64(entry.seq);
    }
    out.writeF64(highestSeen);
    out.writeU64(nextSeq);
}

bool
ReorderBuffer::restoreState(common::BinReader &in)
{
    std::uint64_t count = in.readU64();
    if (!in.ok())
        return false;
    order.clear();
    freeSlots.clear();
    for (std::size_t slot = pool.size(); slot-- > 0;)
        freeSlots.push_back(static_cast<std::uint32_t>(slot));
    for (std::uint64_t i = 0; i < count; ++i) {
        logging::LogRecord &record = vacant();
        if (!logging::readLogRecord(in, record))
            return false;
        const std::uint32_t slot = freeSlots.back();
        freeSlots.pop_back();
        // The image is in release order already; append as saved.
        order.push_back(Entry{record.timestamp, in.readU64(), slot});
    }
    highestSeen = in.readF64();
    nextSeq = in.readU64();
    return in.ok();
}

} // namespace cloudseer::core
