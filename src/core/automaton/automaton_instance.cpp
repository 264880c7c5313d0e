#include "core/automaton/automaton_instance.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cloudseer::core {

namespace {

/**
 * sizeof(AutomatonInstance) when each instance owned its own vectors
 * (x86-64, libstdc++). approxRetainedBytes keeps charging it so that
 * the memory ceiling evicts exactly the groups it always did.
 */
constexpr std::size_t kInstanceOverheadBytes = 184;

/** One adjacency list inside a repair's flat adjacency: its length
 *  cell and its `stride` slots. */
struct AdjacencyList
{
    int *length;
    int *slots;
    std::size_t stride;

    std::span<const int>
    view() const
    {
        return {slots, static_cast<std::size_t>(*length)};
    }
    bool
    contains(int value) const
    {
        return std::find(slots, slots + *length, value) != slots + *length;
    }
    /** Remove every copy of `value`; returns how many there were. */
    int
    erase(int value)
    {
        const int before = *length;
        *length = static_cast<int>(
            std::remove(slots, slots + *length, value) - slots);
        return before - *length;
    }
    void
    push(int value)
    {
        CS_ASSERT(static_cast<std::size_t>(*length) < stride,
                  "adjacency list overflows its slots");
        slots[(*length)++] = value;
    }
};

/**
 * Slots per list of a repair's flat adjacency over `spec`. A list
 * starts as the specification's list and the repair only adds events
 * the list does not hold yet, so it never holds more than its starting
 * entries plus n distinct events. A model loaded from a file may repeat
 * an edge or have a self edge (seer-lint reports both); those stay in
 * bounds too.
 */
std::size_t
adjacencyStride(const TaskAutomaton &spec)
{
    const std::size_t n = spec.eventCount();
    std::size_t longest = 0;
    for (std::size_t e = 0; e < n; ++e) {
        const int event = static_cast<int>(e);
        longest = std::max({longest, spec.preds(event).size(),
                            spec.succs(event).size()});
    }
    return n + longest;
}

/** Cells of a flat adjacency over `n` events with `stride` slots per
 *  list. */
std::size_t
adjacencyCells(std::size_t n, std::size_t stride)
{
    return 2 * n + 2 * n * stride;
}

/** Which list of an event a flat adjacency lookup means. */
enum class Side
{
    Preds = 0,
    Succs = 1,
};

/** Index of the length cell and of the first slot of `event`'s list on
 *  `side`, in a flat adjacency over `n` events with `stride` slots per
 *  list. */
std::pair<std::size_t, std::size_t>
listCells(std::size_t n, std::size_t stride, Side side, int event)
{
    const auto s = static_cast<std::size_t>(side);
    const auto e = static_cast<std::size_t>(event);
    return {s * n + e, 2 * n + (s * n + e) * stride};
}

AdjacencyList
listOf(std::vector<int> &adjacency, std::size_t n, std::size_t stride,
       Side side, int event)
{
    const auto [length, first] = listCells(n, stride, side, event);
    return {adjacency.data() + length, adjacency.data() + first, stride};
}

std::span<const int>
viewOf(const std::vector<int> &adjacency, std::size_t n, std::size_t stride,
       Side side, int event)
{
    const auto [length, first] = listCells(n, stride, side, event);
    return {adjacency.data() + first,
            static_cast<std::size_t>(adjacency[length])};
}

} // namespace

InstanceArena &
InstanceArena::operator=(const InstanceArena &other)
{
    if (this == &other)
        return *this;
    // Vector copy-assignment reuses this arena's buffers when they are
    // large enough, so a recycled group clones without allocating.
    headers = other.headers;
    done = other.done;
    when = other.when;
    remainingPreds = other.remainingPreds;
    if (repairs.size() < other.repairsUsed)
        repairs.resize(other.repairsUsed);
    for (std::size_t r = 0; r < other.repairsUsed; ++r)
        repairs[r] = other.repairs[r];
    repairsUsed = other.repairsUsed;
    return *this;
}

void
InstanceArena::clear()
{
    headers.clear();
    done.clear();
    when.clear();
    remainingPreds.clear();
    repairsUsed = 0;
}

void
InstanceArena::reserve(std::size_t instances, std::size_t events)
{
    headers.reserve(instances);
    done.reserve(events);
    when.reserve(events);
    remainingPreds.reserve(events);
}

void
InstanceArena::add(const TaskAutomaton *spec)
{
    CS_ASSERT(spec != nullptr, "instance needs a specification");
    Header header;
    header.spec = spec;
    header.offset = static_cast<std::uint32_t>(done.size());
    const std::size_t events = spec->eventCount();
    done.resize(done.size() + events, 0);
    when.resize(when.size() + events, 0.0);
    for (std::size_t e = 0; e < events; ++e) {
        remainingPreds.push_back(
            static_cast<int>(spec->preds(static_cast<int>(e)).size()));
    }
    headers.push_back(header);
}

void
InstanceArena::append(const InstanceArena &other, std::size_t i)
{
    const Header &source = other.headers[i];
    Header header = source;
    header.offset = static_cast<std::uint32_t>(done.size());
    header.repair = -1;
    const std::size_t begin = source.offset;
    const std::size_t end = begin + source.spec->eventCount();
    done.insert(done.end(), other.done.begin() + begin,
                other.done.begin() + end);
    when.insert(when.end(), other.when.begin() + begin,
                other.when.begin() + end);
    remainingPreds.insert(remainingPreds.end(),
                          other.remainingPreds.begin() + begin,
                          other.remainingPreds.begin() + end);
    if (source.repair >= 0)
        repairSlot(header) =
            other.repairs[static_cast<std::size_t>(source.repair)];
    headers.push_back(header);
}

void
InstanceArena::moveInstance(std::size_t from, std::size_t to,
                            std::uint32_t offset)
{
    Header header = headers[from];
    if (from == to && header.offset == offset)
        return;
    // Kept instances only ever move towards the front, so a forward
    // copy never overwrites a slice that is still to be read.
    const std::size_t from_offset = header.offset;
    const std::size_t events = header.spec->eventCount();
    auto slide = [from_offset, events, offset](auto &values) {
        std::copy(values.begin() + from_offset,
                  values.begin() + from_offset + events,
                  values.begin() + offset);
    };
    slide(done);
    slide(when);
    slide(remainingPreds);
    header.offset = offset;
    headers[to] = header;
}

void
InstanceArena::truncate(std::size_t count, std::uint32_t events)
{
    headers.resize(count);
    done.resize(events);
    when.resize(events);
    remainingPreds.resize(events);
    // Live repair slots move to the front in header order; the slots of
    // dropped instances become spares. Every unvisited kept header
    // points at a slot >= next, so each swap is with a live slot or a
    // spare, never with one already placed.
    std::size_t next = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::int32_t slot = headers[i].repair;
        if (slot < 0)
            continue;
        const auto target = static_cast<std::int32_t>(next);
        if (slot != target) {
            std::swap(repairs[next], repairs[static_cast<std::size_t>(slot)]);
            for (std::size_t j = i + 1; j < count; ++j) {
                if (headers[j].repair == target)
                    headers[j].repair = slot;
            }
            headers[i].repair = target;
        }
        ++next;
    }
    repairsUsed = next;
}

std::span<const int>
InstanceArena::predsOf(const Header &h, int event) const
{
    if (h.repair >= 0) {
        const Repair &repair = repairs[static_cast<std::size_t>(h.repair)];
        if (repair.ownAdjacency)
            return viewOf(repair.adjacency, h.spec->eventCount(),
                          repair.stride, Side::Preds, event);
    }
    return h.spec->preds(event);
}

std::span<const int>
InstanceArena::succsOf(const Header &h, int event) const
{
    if (h.repair >= 0) {
        const Repair &repair = repairs[static_cast<std::size_t>(h.repair)];
        if (repair.ownAdjacency)
            return viewOf(repair.adjacency, h.spec->eventCount(),
                          repair.stride, Side::Succs, event);
    }
    return h.spec->succs(event);
}

InstanceArena::Repair &
InstanceArena::repairSlot(Header &h)
{
    if (h.repair < 0) {
        if (repairsUsed == repairs.size())
            repairs.emplace_back();
        Repair &fresh = repairs[repairsUsed];
        fresh.removed.clear();
        fresh.ownAdjacency = false;
        h.repair = static_cast<std::int32_t>(repairsUsed++);
    }
    return repairs[static_cast<std::size_t>(h.repair)];
}

void
InstanceArena::materialiseAdjacency(Header &h)
{
    Repair &repair = repairSlot(h);
    if (repair.ownAdjacency)
        return;
    const std::size_t n = h.spec->eventCount();
    repair.stride = adjacencyStride(*h.spec);
    repair.adjacency.assign(adjacencyCells(n, repair.stride), 0);
    for (std::size_t i = 0; i < n; ++i) {
        const int event = static_cast<int>(i);
        AdjacencyList preds =
            listOf(repair.adjacency, n, repair.stride, Side::Preds, event);
        for (int p : h.spec->preds(event))
            preds.push(p);
        AdjacencyList succs =
            listOf(repair.adjacency, n, repair.stride, Side::Succs, event);
        for (int q : h.spec->succs(event))
            succs.push(q);
    }
    repair.ownAdjacency = true;
}

bool
InstanceArena::canConsume(std::size_t i, logging::TemplateId tpl) const
{
    const Header &h = headers[i];
    int event = h.spec->nextPendingEvent(tpl, done.data() + h.offset);
    return event != -1 &&
           remainingPreds[h.offset + static_cast<std::size_t>(event)] == 0;
}

bool
InstanceArena::consume(std::size_t i, logging::TemplateId tpl,
                       common::SimTime now)
{
    Header &h = headers[i];
    int event = h.spec->nextPendingEvent(tpl, done.data() + h.offset);
    if (event == -1 ||
        remainingPreds[h.offset + static_cast<std::size_t>(event)] != 0) {
        return false;
    }
    done[h.offset + static_cast<std::size_t>(event)] = 1;
    when[h.offset + static_cast<std::size_t>(event)] = now;
    h.lastEvent = event;
    ++h.consumed;
    for (int succ : succsOf(h, event))
        --remainingPreds[h.offset + static_cast<std::size_t>(succ)];
    return true;
}

std::span<const char>
InstanceArena::consumedFlags(std::size_t i) const
{
    const Header &h = headers[i];
    return {done.data() + h.offset, h.spec->eventCount()};
}

std::span<const common::SimTime>
InstanceArena::consumeTimes(std::size_t i) const
{
    const Header &h = headers[i];
    return {when.data() + h.offset, h.spec->eventCount()};
}

std::span<const std::pair<int, int>>
InstanceArena::removedDependencies(std::size_t i) const
{
    const Header &h = headers[i];
    if (h.repair < 0)
        return {};
    return repairs[static_cast<std::size_t>(h.repair)].removed;
}

std::vector<int>
InstanceArena::frontier(std::size_t i) const
{
    const Header &h = headers[i];
    std::span<const char> flags = consumedFlags(i);
    std::vector<int> out;
    for (std::size_t e = 0; e < flags.size(); ++e) {
        if (!flags[e])
            continue;
        for (int succ : succsOf(h, static_cast<int>(e))) {
            if (!flags[static_cast<std::size_t>(succ)]) {
                out.push_back(static_cast<int>(e));
                break;
            }
        }
    }
    return out;
}

std::vector<logging::TemplateId>
InstanceArena::expectedTemplates(std::size_t i) const
{
    const Header &h = headers[i];
    std::span<const char> flags = consumedFlags(i);
    std::vector<logging::TemplateId> out;
    for (std::size_t e = 0; e < flags.size(); ++e) {
        if (flags[e] || remainingPreds[h.offset + e] != 0)
            continue;
        logging::TemplateId tpl = h.spec->event(static_cast<int>(e)).tpl;
        if (std::find(out.begin(), out.end(), tpl) == out.end())
            out.push_back(tpl);
    }
    return out;
}

bool
InstanceArena::removeFalseDependencies(std::size_t i,
                                       logging::TemplateId tpl)
{
    Header &h = headers[i];
    int event = h.spec->nextPendingEvent(tpl, done.data() + h.offset);
    if (event == -1)
        return false;
    int *remaining = remainingPreds.data() + h.offset;
    const char *flags = done.data() + h.offset;
    if (remaining[event] == 0)
        return true; // nothing to remove; already enabled

    materialiseAdjacency(h);
    Repair &repair = repairs[static_cast<std::size_t>(h.repair)];
    const std::size_t n = h.spec->eventCount();
    auto preds = [&repair, n](int e) {
        return listOf(repair.adjacency, n, repair.stride, Side::Preds, e);
    };
    auto succs = [&repair, n](int e) {
        return listOf(repair.adjacency, n, repair.stride, Side::Succs, e);
    };

    // Cascade: each pass removes one violated edge with the paper's
    // weakening; the weakening may pull in a blocked grand-predecessor,
    // which the next pass removes. Bounded by the edge count squared.
    std::size_t guard = n * n + n + 8;
    while (remaining[event] != 0) {
        CS_ASSERT(guard-- > 0, "false-dependency removal diverged");

        // Find one unconsumed direct predecessor p of the event.
        int blocking = -1;
        for (int p : preds(event).view()) {
            if (!flags[p]) {
                blocking = p;
                break;
            }
        }
        CS_ASSERT(blocking != -1,
                  "remainingPreds inconsistent with adjacency");

        // Remove the violated edge (blocking -> event), every copy of
        // it when a loaded model repeats the edge.
        remaining[event] -= preds(event).erase(blocking);
        succs(blocking).erase(event);
        repair.removed.emplace_back(blocking, event);

        // Weakening 1: predecessors of `blocking` now precede `event`
        // directly (Figure 4's A -> C).
        for (int pp : preds(blocking).view()) {
            if (pp == event || preds(event).contains(pp))
                continue;
            preds(event).push(pp);
            succs(pp).push(event);
            if (!flags[pp])
                ++remaining[event];
        }

        // Weakening 2: `blocking` now precedes the event's successors
        // directly (Figure 4's B -> D).
        for (int s : succs(event).view()) {
            if (s == blocking || preds(s).contains(blocking))
                continue;
            preds(s).push(blocking);
            succs(blocking).push(s);
            // `blocking` is unconsumed by construction.
            ++remaining[s];
        }
    }
    return true;
}

bool
InstanceArena::sameState(std::size_t i, const InstanceArena &other,
                         std::size_t j) const
{
    const Header &a = headers[i];
    const Header &b = other.headers[j];
    if (a.spec != b.spec || a.consumed != b.consumed)
        return false;
    std::span<const char> mine = consumedFlags(i);
    std::span<const char> theirs = other.consumedFlags(j);
    return std::equal(mine.begin(), mine.end(), theirs.begin());
}

namespace {

void
writeIntList(common::BinWriter &out, std::span<const int> values)
{
    out.writeU64(values.size());
    for (int v : values)
        out.writeI64(v);
}

/** Whether a decoded id names one of `n` events. */
bool
eventInRange(std::int64_t event, std::size_t n)
{
    return event >= 0 && static_cast<std::uint64_t>(event) < n;
}

/** Read one saved adjacency list into `list`: at most its stride of
 *  event ids, each below `n` (the ids index the per-event arrays). */
bool
readIntList(common::BinReader &in, AdjacencyList list, std::size_t n)
{
    std::uint64_t count = in.readU64();
    if (!in.ok())
        return false;
    if (count > list.stride) {
        in.fail();
        return false;
    }
    *list.length = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::int64_t event = in.readI64();
        if (!in.ok() || !eventInRange(event, n)) {
            in.fail();
            return false;
        }
        list.push(static_cast<int>(event));
    }
    return true;
}

} // namespace

void
InstanceArena::saveState(std::size_t i, common::BinWriter &out) const
{
    const Header &h = headers[i];
    const std::size_t events = h.spec->eventCount();
    out.writeU64(events);
    for (std::size_t e = 0; e < events; ++e)
        out.writeU8(static_cast<std::uint8_t>(done[h.offset + e]));
    for (std::size_t e = 0; e < events; ++e)
        out.writeF64(when[h.offset + e]);
    for (std::size_t e = 0; e < events; ++e)
        out.writeI64(remainingPreds[h.offset + e]);
    out.writeU64(h.consumed);
    out.writeI64(h.lastEvent);
    std::span<const std::pair<int, int>> removed = removedDependencies(i);
    out.writeU64(removed.size());
    for (const auto &[from, to] : removed) {
        out.writeI64(from);
        out.writeI64(to);
    }
    const Repair *repair =
        h.repair >= 0 ? &repairs[static_cast<std::size_t>(h.repair)]
                      : nullptr;
    const bool own = repair != nullptr && repair->ownAdjacency;
    out.writeBool(own);
    if (own) {
        for (std::size_t e = 0; e < events; ++e)
            writeIntList(out, predsOf(h, static_cast<int>(e)));
        for (std::size_t e = 0; e < events; ++e)
            writeIntList(out, succsOf(h, static_cast<int>(e)));
    }
}

bool
InstanceArena::restoreState(std::size_t i, common::BinReader &in)
{
    Header &h = headers[i];
    const std::size_t events = h.spec->eventCount();
    std::uint64_t image_events = in.readU64();
    if (!in.ok() || image_events != events) {
        in.fail();
        return false;
    }
    for (std::size_t e = 0; e < events; ++e)
        done[h.offset + e] = static_cast<char>(in.readU8());
    for (std::size_t e = 0; e < events; ++e)
        when[h.offset + e] = in.readF64();
    for (std::size_t e = 0; e < events; ++e)
        remainingPreds[h.offset + e] = static_cast<int>(in.readI64());
    h.consumed = static_cast<std::uint32_t>(in.readU64());
    h.lastEvent = static_cast<std::int32_t>(in.readI64());
    std::uint64_t removed = in.readU64();
    // Each removed edge is two 8-byte ids: a count the rest of the
    // image cannot hold is refused before it reserves anything.
    if (!in.ok() || removed > in.remaining() / 16) {
        in.fail();
        return false;
    }
    if (removed > 0 || h.repair >= 0) {
        Repair &repair = repairSlot(h);
        repair.removed.clear();
        repair.removed.reserve(static_cast<std::size_t>(removed));
        for (std::uint64_t r = 0; r < removed; ++r) {
            const std::int64_t from = in.readI64();
            const std::int64_t to = in.readI64();
            if (!in.ok() || !eventInRange(from, events) ||
                !eventInRange(to, events)) {
                in.fail();
                return false;
            }
            repair.removed.emplace_back(static_cast<int>(from),
                                        static_cast<int>(to));
        }
    }
    bool has_own = in.readBool();
    if (!in.ok())
        return false;
    if (has_own) {
        Repair &repair = repairSlot(h);
        repair.stride = adjacencyStride(*h.spec);
        repair.adjacency.assign(adjacencyCells(events, repair.stride), 0);
        repair.ownAdjacency = true;
        for (Side side : {Side::Preds, Side::Succs}) {
            for (std::size_t e = 0; e < events; ++e) {
                if (!readIntList(in,
                                 listOf(repair.adjacency, events,
                                        repair.stride, side,
                                        static_cast<int>(e)),
                                 events))
                    return false;
            }
        }
    } else if (h.repair >= 0) {
        repairs[static_cast<std::size_t>(h.repair)].ownAdjacency = false;
    }
    if (in.ok() && !consistent(h))
        in.fail();
    return in.ok();
}

bool
InstanceArena::consistent(const Header &h) const
{
    const std::size_t events = h.spec->eventCount();
    const char *flags = done.data() + h.offset;
    std::size_t consumed = 0;
    for (std::size_t e = 0; e < events; ++e) {
        if (flags[e] != 0 && flags[e] != 1)
            return false;
        consumed += static_cast<std::size_t>(flags[e]);
    }
    if (consumed != h.consumed)
        return false;
    // The last consumed event, or -1 before the first.
    if (h.lastEvent == -1 ? consumed != 0
                          : !eventInRange(h.lastEvent, events) ||
                                !flags[h.lastEvent])
        return false;
    for (std::size_t e = 0; e < events; ++e) {
        const int event = static_cast<int>(e);
        // Every edge is listed once from each end…
        std::span<const int> preds = predsOf(h, event);
        for (int p : preds) {
            std::span<const int> back = succsOf(h, p);
            if (std::count(preds.begin(), preds.end(), p) !=
                std::count(back.begin(), back.end(), event))
                return false;
        }
        for (int q : succsOf(h, event)) {
            std::span<const int> back = predsOf(h, q);
            if (std::count(back.begin(), back.end(), event) == 0)
                return false;
        }
        // …and an event waits on exactly its unconsumed predecessors.
        const auto waiting = std::count_if(
            preds.begin(), preds.end(), [flags](int p) { return !flags[p]; });
        if (remainingPreds[h.offset + e] != waiting)
            return false;
    }
    return true;
}

std::size_t
InstanceArena::approxRetainedBytes(std::size_t i) const
{
    const Header &h = headers[i];
    const std::size_t events = h.spec->eventCount();
    std::size_t bytes = kInstanceOverheadBytes;
    bytes += events *
             (sizeof(char) + sizeof(common::SimTime) + sizeof(int));
    bytes += removedDependencies(i).size() * sizeof(std::pair<int, int>);
    if (h.repair >= 0 &&
        repairs[static_cast<std::size_t>(h.repair)].ownAdjacency) {
        // Charged as the per-event vectors the adjacency once was.
        bytes += 2 * events * sizeof(std::vector<int>);
        for (std::size_t e = 0; e < events; ++e) {
            bytes += (predsOf(h, static_cast<int>(e)).size() +
                      succsOf(h, static_cast<int>(e)).size()) *
                     sizeof(int);
        }
    }
    return bytes;
}

AutomatonInstance::AutomatonInstance(const TaskAutomaton *model)
{
    CS_ASSERT(model != nullptr, "instance needs a specification");
    state.add(model);
}

} // namespace cloudseer::core
