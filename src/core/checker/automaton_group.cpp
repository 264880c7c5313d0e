#include "core/checker/automaton_group.hpp"

#include <algorithm>

namespace cloudseer::core {

AutomatonGroup::AutomatonGroup(
    GroupId id, const std::vector<const TaskAutomaton *> &automata)
    : groupId(id)
{
    candidates.reserve(automata.size());
    for (const TaskAutomaton *automaton : automata)
        candidates.emplace_back(automaton);
}

bool
AutomatonGroup::canConsume(logging::TemplateId tpl) const
{
    return std::any_of(candidates.begin(), candidates.end(),
                       [tpl](const AutomatonInstance &a) {
                           return a.canConsume(tpl);
                       });
}

bool
AutomatonGroup::consume(logging::TemplateId tpl, logging::RecordId record,
                        common::SimTime now)
{
    if (!canConsume(tpl))
        return false;
    // Algorithm 1: keep exactly the consuming instances, compacted in
    // place so their order is kept.
    auto kept = candidates.begin();
    for (auto it = candidates.begin(); it != candidates.end(); ++it) {
        if (!it->consume(tpl, now))
            continue;
        if (kept != it)
            *kept = std::move(*it);
        ++kept;
    }
    if (kept != candidates.end()) {
        // Narrowing is rare and permanent: give back the dropped
        // instances' room, and size the history for the longest
        // survivor (every consumed message takes one of its events) so
        // it never reallocates again.
        candidates.erase(kept, candidates.end());
        candidates.shrink_to_fit();
        std::size_t longest = 0;
        for (const AutomatonInstance &instance : candidates)
            longest = std::max(longest, instance.totalEvents());
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
    for (AutomatonInstance &instance : candidates) {
        if (!instance.started() || instance.canConsume(tpl))
            continue;
        std::size_t before = instance.removedDependencyCount();
        if (!instance.removeFalseDependencies(tpl))
            continue;
        any_repaired = true;
        if (repaired != nullptr) {
            const auto &removed = instance.removedDependencies();
            for (std::size_t i = before; i < removed.size(); ++i) {
                repaired->push_back({&instance.automaton(),
                                     removed[i].first,
                                     removed[i].second});
            }
        }
    }
    if (!any_repaired)
        return false;
    return consume(tpl, record, now);
}

const AutomatonInstance *
AutomatonGroup::acceptingInstance() const
{
    for (const AutomatonInstance &instance : candidates) {
        if (instance.accepting())
            return &instance;
    }
    return nullptr;
}

const std::vector<std::string> &
AutomatonGroup::candidateTaskNames() const
{
    if (!taskNamesValid) {
        // Rebuilt only after narrowing, into an exactly sized vector.
        std::vector<std::string> names;
        names.reserve(candidates.size());
        for (const AutomatonInstance &instance : candidates) {
            const std::string &name = instance.automaton().name();
            if (std::find(names.begin(), names.end(), name) == names.end())
                names.push_back(name);
        }
        taskNamesCache = std::move(names);
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
        for (const AutomatonInstance &instance : candidates) {
            const TaskAutomaton *spec = &instance.automaton();
            signatureCache.append(
                reinterpret_cast<const char *>(&spec), sizeof(spec));
            const std::vector<char> &flags = instance.consumedFlags();
            signatureCache.append(flags.data(), flags.size());
        }
        signatureValid = true;
    }
    return signatureCache;
}

AutomatonGroup
AutomatonGroup::cloneAs(GroupId new_id) const
{
    AutomatonGroup copy = *this;
    copy.groupId = new_id;
    copy.childIds.clear();
    copy.rivalSetId = 0;
    copy.parentId = groupId;
    return copy;
}

void
AutomatonGroup::saveState(
    common::BinWriter &out,
    const std::vector<const TaskAutomaton *> &automata) const
{
    out.writeU64(groupId);
    out.writeU64(candidates.size());
    for (const AutomatonInstance &instance : candidates) {
        std::uint32_t index = 0xffffffffu;
        for (std::size_t i = 0; i < automata.size(); ++i) {
            if (automata[i] == &instance.automaton()) {
                index = static_cast<std::uint32_t>(i);
                break;
            }
        }
        out.writeU32(index);
        instance.saveState(out);
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
    candidates.clear();
    candidates.reserve(static_cast<std::size_t>(candidate_count));
    for (std::uint64_t i = 0; i < candidate_count; ++i) {
        std::uint32_t index = in.readU32();
        if (!in.ok() || index >= automata.size()) {
            in.fail();
            return false;
        }
        AutomatonInstance instance(automata[index]);
        if (!instance.restoreState(in))
            return false;
        candidates.push_back(std::move(instance));
    }
    std::uint64_t message_count = in.readU64();
    if (!in.ok())
        return false;
    consumedMessages.clear();
    consumedMessages.reserve(static_cast<std::size_t>(message_count));
    for (std::uint64_t i = 0; i < message_count; ++i) {
        ConsumedMessage msg;
        msg.record = in.readU64();
        msg.tpl = in.readU32();
        msg.time = in.readF64();
        consumedMessages.push_back(msg);
    }
    lastActivityTime = in.readF64();
    creationTime = in.readF64();
    anyConsumed = in.readBool();
    parentId = in.readU64();
    std::uint64_t child_count = in.readU64();
    if (!in.ok())
        return false;
    childIds.clear();
    childIds.reserve(static_cast<std::size_t>(child_count));
    for (std::uint64_t i = 0; i < child_count; ++i)
        childIds.push_back(in.readU64());
    rivalSetId = in.readU64();
    isZombie = in.readBool();
    signatureValid = false;
    signatureCache.clear();
    taskNamesValid = false;
    taskNamesCache.clear();
    return in.ok();
}

std::size_t
AutomatonGroup::approxRetainedBytes() const
{
    std::size_t bytes = sizeof(AutomatonGroup);
    for (const AutomatonInstance &instance : candidates)
        bytes += instance.approxRetainedBytes();
    bytes += consumedMessages.size() * sizeof(ConsumedMessage);
    bytes += childIds.size() * sizeof(GroupId);
    return bytes;
}

} // namespace cloudseer::core
