/**
 * @file
 * Live instances of task automata during online checking.
 *
 * Implements the paper's TryInputMessage (Algorithm 1's per-instance
 * primitive) plus the on-the-fly false-dependency removal of §4 /
 * Figure 4. The state of one or more instances lives in an
 * InstanceArena (DESIGN.md §19): per-event flags, stamps and counts in
 * flat arrays, one small header per instance, and recovery (d)'s
 * repair state on the side. An automaton group owns one arena for all
 * of its candidates; AutomatonInstance is a one-instance owner over
 * the same arena, for standalone use. Both are value types: the
 * brute-force branch of Algorithm 2 copies whole groups to track
 * alternative hypotheses.
 */

#ifndef CLOUDSEER_CORE_AUTOMATON_AUTOMATON_INSTANCE_HPP
#define CLOUDSEER_CORE_AUTOMATON_AUTOMATON_INSTANCE_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "common/time_util.hpp"
#include "core/automaton/task_automaton.hpp"

namespace cloudseer::core {

/**
 * Struct-of-arrays state of a sequence of instances. Instance `i`
 * owns the slice [offset, offset + eventCount) of each per-event array;
 * its header stores the offset, never a pointer, so copies and moves of
 * the arena are plain vector copies. Every operation on an instance's
 * state is implemented here once; AutomatonInstance and the group
 * forward to it.
 */
class InstanceArena
{
  public:
    InstanceArena() = default;
    InstanceArena(const InstanceArena &other) { *this = other; }
    InstanceArena(InstanceArena &&) noexcept = default;
    InstanceArena &operator=(InstanceArena &&) noexcept = default;

    /** Copy `other`'s instances into this arena's buffers (their
     *  capacity and spare repair slots are kept). */
    InstanceArena &operator=(const InstanceArena &other);

    /** Number of instances. */
    std::size_t size() const { return headers.size(); }

    /** Drop every instance, keeping all capacity. */
    void clear();

    /** Room for `instances` instances over `events` per-event cells
     *  (the instances' event counts summed). */
    void reserve(std::size_t instances, std::size_t events);

    /** Append a fresh instance of `spec` (nothing consumed). */
    void add(const TaskAutomaton *spec);

    /** Append a copy of `other`'s instance `i`, repair state included. */
    void append(const InstanceArena &other, std::size_t i);

    /**
     * Keep exactly the instances for which `keep(i)` is true, in order,
     * compacting headers, slices and repair state in place. `keep` is
     * called once per instance in ascending index order and may mutate
     * instance `i` (consume into it) before answering.
     */
    template <typename Keep>
    void
    retainIf(Keep &&keep)
    {
        std::size_t kept = 0;
        std::uint32_t write = 0;
        const std::size_t count = headers.size();
        for (std::size_t i = 0; i < count; ++i) {
            if (!keep(i))
                continue;
            moveInstance(i, kept, write);
            write += static_cast<std::uint32_t>(
                headers[kept].spec->eventCount());
            ++kept;
        }
        truncate(kept, write);
    }

    /** The specification instance `i` tracks. */
    const TaskAutomaton &automaton(std::size_t i) const
    {
        return *headers[i].spec;
    }

    /** True iff the next occurrence of tpl is enabled in instance i. */
    bool canConsume(std::size_t i, logging::TemplateId tpl) const;

    /** TryInputMessage on instance i; see AutomatonInstance::consume. */
    bool consume(std::size_t i, logging::TemplateId tpl,
                 common::SimTime now);

    /** Figure 4 repair on instance i; see
     *  AutomatonInstance::removeFalseDependencies. */
    bool removeFalseDependencies(std::size_t i, logging::TemplateId tpl);

    /** Number of consumed events of instance i. */
    std::size_t consumedCount(std::size_t i) const
    {
        return headers[i].consumed;
    }

    /** Event id taken by instance i's most recent consume, or -1. */
    int lastConsumedEvent(std::size_t i) const
    {
        return headers[i].lastEvent;
    }

    /** Consumed flag per event of instance i. */
    std::span<const char> consumedFlags(std::size_t i) const;

    /** Consume stamp per event of instance i. */
    std::span<const common::SimTime> consumeTimes(std::size_t i) const;

    /** Edges instance i removed as false, in removal order. */
    std::span<const std::pair<int, int>>
    removedDependencies(std::size_t i) const;

    /** Paper-style state set of instance i (see frontier()). */
    std::vector<int> frontier(std::size_t i) const;

    /** Templates enabled next in instance i. */
    std::vector<logging::TemplateId> expectedTemplates(std::size_t i) const;

    /** Same specification and consumed set. */
    bool sameState(std::size_t i, const InstanceArena &other,
                   std::size_t j) const;

    /** Serialise instance i's mutable state. */
    void saveState(std::size_t i, common::BinWriter &out) const;

    /** Overwrite instance i's state from a saveState image; false on
     *  a decode failure or on state the live code cannot produce. */
    bool restoreState(std::size_t i, common::BinReader &in);

    /** Size estimate of instance i for the memory ceiling. */
    std::size_t approxRetainedBytes(std::size_t i) const;

  private:
    /** One instance's place in the arena. */
    struct Header
    {
        const TaskAutomaton *spec = nullptr;
        std::uint32_t offset = 0;   ///< slice start in the event arrays
        std::uint32_t consumed = 0; ///< consumed events
        std::int32_t lastEvent = -1;
        std::int32_t repair = -1; ///< index into repairs, -1 = none
    };

    /**
     * Recovery (d) state, created only when an instance first removes
     * a false dependency: the removed edges and the copy-on-write
     * adjacency that replaces the shared specification's. The
     * adjacency is flat so that copying it (a case-2 clone of a
     * repaired group) is one vector copy: for n events, `adjacency`
     * holds n pred-list lengths, n succ-list lengths, then n pred
     * lists and n succ lists of `stride` slots each. The stride is n
     * plus the specification's longest list, which no list outgrows
     * (see adjacencyStride).
     */
    struct Repair
    {
        std::vector<std::pair<int, int>> removed;
        bool ownAdjacency = false;
        std::size_t stride = 0;
        std::vector<int> adjacency;
    };

    std::vector<Header> headers;
    std::vector<char> done;            ///< consumed flag per event
    std::vector<common::SimTime> when; ///< consume stamp per event
    std::vector<int> remainingPreds;   ///< unconsumed direct preds
    /** Repair slots; [0, repairsUsed) are live, the rest are spares
     *  whose buffers the next repair reuses. */
    std::vector<Repair> repairs;
    std::size_t repairsUsed = 0;

    std::span<const int> predsOf(const Header &h, int event) const;
    std::span<const int> succsOf(const Header &h, int event) const;
    Repair &repairSlot(Header &h);
    void materialiseAdjacency(Header &h);
    /** Whether a restored instance is one the live code could have
     *  produced: flags that match the consumed count and last event,
     *  an adjacency that lists every edge from both ends, and
     *  predecessor counts that match it. */
    bool consistent(const Header &h) const;
    void moveInstance(std::size_t from, std::size_t to,
                      std::uint32_t offset);
    void truncate(std::size_t count, std::uint32_t events);
};

/**
 * Read-only instance API shared by AutomatonInstance and InstanceView:
 * `Self` supplies arenaRef() and slot().
 */
template <typename Self>
class InstanceReader
{
  public:
    /** The specification this instance tracks. */
    const TaskAutomaton &automaton() const { return arena().automaton(at()); }

    /** True iff the next occurrence of tpl is enabled right now. */
    bool canConsume(logging::TemplateId tpl) const
    {
        return arena().canConsume(at(), tpl);
    }

    /** True iff every event has been consumed (accepting state). */
    bool accepting() const { return consumedCount() == totalEvents(); }

    /** True iff at least one event has been consumed. */
    bool started() const { return consumedCount() > 0; }

    /** Number of consumed events. */
    std::size_t consumedCount() const { return arena().consumedCount(at()); }

    /** Number of events in the specification. */
    std::size_t totalEvents() const { return automaton().eventCount(); }

    /**
     * Current state set, paper-style: consumed events that still have
     * unconsumed successors — plus, when nothing is consumed yet, the
     * empty set (the paper's {q0}).
     */
    std::vector<int> frontier() const { return arena().frontier(at()); }

    /**
     * Templates that are enabled next (used in reports: "expected
     * messages"). Each enabled event contributes its template once.
     */
    std::vector<logging::TemplateId> expectedTemplates() const
    {
        return arena().expectedTemplates(at());
    }

    /** Count of edges this instance has removed as false. */
    std::size_t removedDependencyCount() const
    {
        return removedDependencies().size();
    }

    /** The removed edges, in removal order (event-id pairs). */
    std::span<const std::pair<int, int>> removedDependencies() const
    {
        return arena().removedDependencies(at());
    }

    /** Consumed flag per event (the state sameState compares). */
    std::span<const char> consumedFlags() const
    {
        return arena().consumedFlags(at());
    }

    /**
     * Message-clock stamp per event, set at consumption (0.0 for
     * unconsumed events). The raw material of seer-flight's per-edge
     * timing: elapsed on edge (u, v) is consumeTimes()[v] -
     * consumeTimes()[u] once both fired.
     */
    std::span<const common::SimTime> consumeTimes() const
    {
        return arena().consumeTimes(at());
    }

    /** Event id taken by the most recent consume(), or -1. */
    int lastConsumedEvent() const { return arena().lastConsumedEvent(at()); }

    /**
     * Serialise the mutable checking state (seer-vault, DESIGN.md §13).
     * The specification itself is NOT written — the caller identifies
     * it externally (the checker writes an index into its automaton
     * vector) and reconstructs the instance over the same shared model
     * before restoring.
     */
    void saveState(common::BinWriter &out) const
    {
        arena().saveState(at(), out);
    }

    /**
     * Deterministic size estimate for the memory ceiling (seer-vault).
     * Counts only state that survives saveState/restoreState, so a
     * restored checker makes the same eviction decisions as the
     * uninterrupted one.
     */
    std::size_t approxRetainedBytes() const
    {
        return arena().approxRetainedBytes(at());
    }

  private:
    const InstanceArena &arena() const
    {
        return static_cast<const Self &>(*this).arenaRef();
    }
    std::size_t at() const { return static_cast<const Self &>(*this).slot(); }
};

/**
 * Read-only handle on one instance inside an arena (a group's
 * candidate). Cheap to copy; valid until the arena changes. A
 * default-constructed view is null: it converts to false.
 */
class InstanceView : public InstanceReader<InstanceView>
{
  public:
    InstanceView() = default;
    InstanceView(const InstanceArena *arena, std::size_t index)
        : arenaPtr(arena), index(index)
    {
    }

    explicit operator bool() const { return arenaPtr != nullptr; }

    const InstanceArena &arenaRef() const { return *arenaPtr; }
    std::size_t slot() const { return index; }

  private:
    const InstanceArena *arenaPtr = nullptr;
    std::size_t index = 0;
};

/** Every instance of an arena, as views in arena order. */
class InstanceRange
{
  public:
    explicit InstanceRange(const InstanceArena &arena) : arena(&arena) {}

    class iterator
    {
      public:
        iterator(const InstanceArena *arena, std::size_t index)
            : arena(arena), index(index)
        {
        }
        InstanceView operator*() const { return {arena, index}; }
        iterator &operator++()
        {
            ++index;
            return *this;
        }
        bool operator==(const iterator &other) const = default;

      private:
        const InstanceArena *arena;
        std::size_t index;
    };

    std::size_t size() const { return arena->size(); }
    bool empty() const { return arena->size() == 0; }
    InstanceView operator[](std::size_t i) const { return {arena, i}; }
    InstanceView front() const { return {arena, 0}; }
    iterator begin() const { return {arena, 0}; }
    iterator end() const { return {arena, arena->size()}; }

  private:
    const InstanceArena *arena;
};

/** Mutable checking state over a shared TaskAutomaton, standalone. */
class AutomatonInstance : public InstanceReader<AutomatonInstance>
{
  public:
    /** Fresh instance: nothing consumed; initial events enabled. */
    explicit AutomatonInstance(const TaskAutomaton *model);

    /**
     * Consume the next occurrence of tpl (the paper's TryInputMessage).
     *
     * @param now Message-clock stamp recorded against the consumed
     *        event (seer-flight's per-transition timing; 0.0 when the
     *        caller has no clock, e.g. structural replays).
     * @retval true  if a state transition happened.
     * @retval false if tpl is unknown here or its event is not enabled.
     */
    bool consume(logging::TemplateId tpl, common::SimTime now = 0.0)
    {
        return state.consume(0, tpl, now);
    }

    /**
     * False-dependency removal (paper Figure 4). If the next occurrence
     * of tpl exists but is blocked by unconsumed predecessors, remove
     * the violated edges with the paper's weakening (preds of the
     * removed source gain an edge to the event; the event's successors
     * gain an edge from the removed source) and cascade until the event
     * is enabled.
     *
     * @retval true  if the event became enabled (dependencies removed).
     * @retval false if tpl has no pending occurrence here.
     */
    bool removeFalseDependencies(logging::TemplateId tpl)
    {
        return state.removeFalseDependencies(0, tpl);
    }

    /**
     * State equality for the paper's "equivalent groups" heuristic:
     * same specification and same consumed set.
     */
    bool sameState(const AutomatonInstance &other) const
    {
        return state.sameState(0, other.state, 0);
    }

    /**
     * Overwrite this instance's state from a saveState image. Fails
     * (stream marked bad, instance unspecified) when the image's event
     * count disagrees with the specification — i.e. when the snapshot
     * was taken against a different model.
     */
    bool restoreState(common::BinReader &in)
    {
        return state.restoreState(0, in);
    }

    const InstanceArena &arenaRef() const { return state; }
    std::size_t slot() const { return 0; }

  private:
    InstanceArena state;
};

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_AUTOMATON_AUTOMATON_INSTANCE_HPP
