#include "core/checker/automaton_group.hpp"

#include <algorithm>

namespace cloudseer::core {

namespace {

/**
 * sizeof(AutomatonGroup) when each instance owned its own vectors
 * (x86-64, libstdc++). approxRetainedBytes keeps charging it so that
 * the memory ceiling evicts exactly the groups it always did.
 */
constexpr std::size_t kGroupOverheadBytes = 200;

/** Bytes saveState writes per consumed message: record, template and
 *  time. */
constexpr std::size_t kSavedMessageBytes = 8 + 4 + 8;

} // namespace

AutomatonGroup::AutomatonGroup(
    GroupId id, const std::vector<const TaskAutomaton *> &automata)
{
    reset(id, automata);
}

void
AutomatonGroup::reset(GroupId id,
                      const std::vector<const TaskAutomaton *> &automata)
{
    groupId = id;
    std::size_t events = 0;
    for (const TaskAutomaton *automaton : automata)
        events += automaton->eventCount();
    arena.clear();
    arena.reserve(automata.size(), events);
    for (const TaskAutomaton *automaton : automata)
        arena.add(automaton);
    consumedMessages.clear();
    signatureValid = false;
    taskNamesValid = false;
    lastActivityTime = 0.0;
    creationTime = 0.0;
    anyConsumed = false;
    parentId = 0;
    childIds.clear();
    rivalSetId = 0;
    isZombie = false;
}

bool
AutomatonGroup::canConsume(logging::TemplateId tpl) const
{
    for (InstanceView instance : instances()) {
        if (instance.canConsume(tpl))
            return true;
    }
    return false;
}

bool
AutomatonGroup::consume(logging::TemplateId tpl, logging::RecordId record,
                        common::SimTime now)
{
    if (!canConsume(tpl))
        return false;
    // Algorithm 1: keep exactly the consuming instances, compacted in
    // place so their order is kept.
    const std::size_t before = arena.size();
    arena.retainIf(
        [this, tpl, now](std::size_t i) { return arena.consume(i, tpl, now); });
    if (arena.size() != before) {
        // Narrowing is rare and permanent: size the history for the
        // longest survivor (every consumed message takes one of its
        // events) so it never reallocates again.
        std::size_t longest = 0;
        for (std::size_t i = 0; i < arena.size(); ++i)
            longest = std::max(longest, arena.automaton(i).eventCount());
        consumedMessages.reserve(longest);
        taskNamesValid = false;
    }
    signatureValid = false;
    consumedMessages.push_back({record, tpl, now});
    if (!anyConsumed) {
        creationTime = now;
        anyConsumed = true;
    }
    lastActivityTime = now;
    return true;
}

bool
AutomatonGroup::consumeWithRepair(logging::TemplateId tpl,
                                  logging::RecordId record,
                                  common::SimTime now,
                                  std::vector<RepairedEdge> *repaired)
{
    // Only repair instances that are already on a sequence: removing
    // dependencies from a fresh instance would let any message start
    // any task, which is recovery (b)'s job, not (d)'s.
    bool any_repaired = false;
    for (std::size_t i = 0; i < arena.size(); ++i) {
        if (arena.consumedCount(i) == 0 || arena.canConsume(i, tpl))
            continue;
        std::size_t before = arena.removedDependencies(i).size();
        if (!arena.removeFalseDependencies(i, tpl))
            continue;
        any_repaired = true;
        if (repaired != nullptr) {
            std::span<const std::pair<int, int>> removed =
                arena.removedDependencies(i);
            for (std::size_t r = before; r < removed.size(); ++r) {
                repaired->push_back({&arena.automaton(i), removed[r].first,
                                     removed[r].second});
            }
        }
    }
    if (!any_repaired)
        return false;
    return consume(tpl, record, now);
}

InstanceView
AutomatonGroup::acceptingInstance() const
{
    for (InstanceView instance : instances()) {
        if (instance.accepting())
            return instance;
    }
    return {};
}

const std::vector<std::string> &
AutomatonGroup::candidateTaskNames() const
{
    if (!taskNamesValid) {
        // Rebuilt only after narrowing, over the cache's own strings.
        std::size_t count = 0;
        for (std::size_t i = 0; i < arena.size(); ++i) {
            const std::string &name = arena.automaton(i).name();
            auto last = taskNamesCache.begin() +
                        static_cast<std::ptrdiff_t>(count);
            if (std::find(taskNamesCache.begin(), last, name) != last)
                continue;
            if (count < taskNamesCache.size())
                taskNamesCache[count].assign(name);
            else
                taskNamesCache.push_back(name);
            ++count;
        }
        taskNamesCache.resize(count);
        taskNamesValid = true;
    }
    return taskNamesCache;
}

bool
AutomatonGroup::equivalentTo(const AutomatonGroup &other) const
{
    return stateSignature() == other.stateSignature();
}

const std::string &
AutomatonGroup::stateSignature() const
{
    if (!signatureValid) {
        signatureCache.clear();
        for (std::size_t i = 0; i < arena.size(); ++i) {
            const TaskAutomaton *spec = &arena.automaton(i);
            signatureCache.append(
                reinterpret_cast<const char *>(&spec), sizeof(spec));
            std::span<const char> flags = arena.consumedFlags(i);
            signatureCache.append(flags.data(), flags.size());
        }
        signatureValid = true;
    }
    return signatureCache;
}

AutomatonGroup
AutomatonGroup::cloneAs(GroupId new_id) const
{
    AutomatonGroup copy;
    copy.arena = arena;
    copyAllButInstances(copy, new_id);
    return copy;
}

void
AutomatonGroup::cloneInto(AutomatonGroup &target, GroupId new_id,
                          logging::TemplateId next) const
{
    std::size_t kept = 0;
    std::size_t events = 0;
    for (std::size_t i = 0; i < arena.size(); ++i) {
        if (arena.canConsume(i, next)) {
            ++kept;
            events += arena.automaton(i).eventCount();
        }
    }
    target.arena.clear();
    target.arena.reserve(kept, events);
    for (std::size_t i = 0; i < arena.size(); ++i) {
        if (arena.canConsume(i, next))
            target.arena.append(arena, i);
    }
    copyAllButInstances(target, new_id);
}

void
AutomatonGroup::copyAllButInstances(AutomatonGroup &target,
                                    GroupId new_id) const
{
    target.groupId = new_id;
    target.consumedMessages = consumedMessages;
    target.signatureValid = false;
    target.taskNamesValid = false;
    target.lastActivityTime = lastActivityTime;
    target.creationTime = creationTime;
    target.anyConsumed = anyConsumed;
    target.parentId = groupId;
    target.childIds.clear();
    target.rivalSetId = 0;
    target.isZombie = isZombie;
}

void
AutomatonGroup::saveState(
    common::BinWriter &out,
    const std::vector<const TaskAutomaton *> &automata) const
{
    out.writeU64(groupId);
    out.writeU64(arena.size());
    for (std::size_t c = 0; c < arena.size(); ++c) {
        std::uint32_t index = 0xffffffffu;
        for (std::size_t i = 0; i < automata.size(); ++i) {
            if (automata[i] == &arena.automaton(c)) {
                index = static_cast<std::uint32_t>(i);
                break;
            }
        }
        out.writeU32(index);
        arena.saveState(c, out);
    }
    out.writeU64(consumedMessages.size());
    for (const ConsumedMessage &msg : consumedMessages) {
        out.writeU64(msg.record);
        out.writeU32(msg.tpl);
        out.writeF64(msg.time);
    }
    out.writeF64(lastActivityTime);
    out.writeF64(creationTime);
    out.writeBool(anyConsumed);
    out.writeU64(parentId);
    out.writeU64(childIds.size());
    for (GroupId child : childIds)
        out.writeU64(child);
    out.writeU64(rivalSetId);
    out.writeBool(isZombie);
}

bool
AutomatonGroup::restoreState(
    common::BinReader &in,
    const std::vector<const TaskAutomaton *> &automata)
{
    groupId = in.readU64();
    std::uint64_t candidate_count = in.readU64();
    if (!in.ok())
        return false;
    arena.clear();
    for (std::uint64_t i = 0; i < candidate_count; ++i) {
        std::uint32_t index = in.readU32();
        if (!in.ok() || index >= automata.size()) {
            in.fail();
            return false;
        }
        arena.add(automata[index]);
        if (!arena.restoreState(arena.size() - 1, in))
            return false;
    }
    // Counts read from the image are bounded by the bytes left to hold
    // their entries before anything is reserved.
    std::uint64_t message_count = in.readU64();
    if (!in.ok() || message_count > in.remaining() / kSavedMessageBytes) {
        in.fail();
        return false;
    }
    consumedMessages.clear();
    consumedMessages.reserve(static_cast<std::size_t>(message_count));
    for (std::uint64_t i = 0; i < message_count; ++i) {
        ConsumedMessage msg;
        msg.record = in.readU64();
        msg.tpl = in.readU32();
        msg.time = in.readF64();
        if (!in.ok())
            return false;
        consumedMessages.push_back(msg);
    }
    lastActivityTime = in.readF64();
    creationTime = in.readF64();
    anyConsumed = in.readBool();
    parentId = in.readU64();
    std::uint64_t child_count = in.readU64();
    if (!in.ok() || child_count > in.remaining() / sizeof(GroupId)) {
        in.fail();
        return false;
    }
    childIds.clear();
    childIds.reserve(static_cast<std::size_t>(child_count));
    for (std::uint64_t i = 0; i < child_count; ++i) {
        const GroupId child = in.readU64();
        // A clone always takes a newer id than the group it forks
        // from, so lineage walks end.
        if (!in.ok() || child <= groupId) {
            in.fail();
            return false;
        }
        childIds.push_back(child);
    }
    rivalSetId = in.readU64();
    isZombie = in.readBool();
    signatureValid = false;
    signatureCache.clear();
    taskNamesValid = false;
    taskNamesCache.clear();
    if (groupId == 0 || parentId >= groupId)
        in.fail();
    return in.ok();
}

std::size_t
AutomatonGroup::approxRetainedBytes() const
{
    std::size_t bytes = kGroupOverheadBytes;
    for (std::size_t i = 0; i < arena.size(); ++i)
        bytes += arena.approxRetainedBytes(i);
    bytes += consumedMessages.size() * sizeof(ConsumedMessage);
    bytes += childIds.size() * sizeof(GroupId);
    return bytes;
}

} // namespace cloudseer::core
