#include "core/checker/interleaved_checker.hpp"

#include <algorithm>
#include <string_view>

#include "common/error.hpp"
#include "obs/profiler.hpp"

namespace cloudseer::core {

using logging::IdToken;

namespace {

/**
 * Key of a sorted token vector in the contents index. Equal contents
 * give equal keys; a hit is always confirmed against the set.
 */
std::uint64_t
contentsKeyOf(const std::vector<IdToken> &tokens)
{
    std::uint64_t hash = 0x9e3779b97f4a7c15ULL * (tokens.size() + 1);
    for (IdToken token : tokens) {
        hash ^= token;
        hash *= 0xff51afd7ed558ccdULL;
        hash ^= hash >> 32;
    }
    return hash;
}

} // namespace

InterleavedChecker::InterleavedChecker(
    const CheckerConfig &config_,
    std::vector<const TaskAutomaton *> automata)
    : config(config_), automatonSet(std::move(automata))
{
    CS_ASSERT(!automatonSet.empty(), "checker needs at least one automaton");
    for (const TaskAutomaton *automaton : automatonSet) {
        for (std::size_t e = 0; e < automaton->eventCount(); ++e) {
            logging::TemplateId tpl =
                automaton->event(static_cast<int>(e)).tpl;
            if (tpl >= knownTemplates.size())
                knownTemplates.resize(tpl + 1, 0);
            knownTemplates[tpl] = 1;
        }
    }
    startersByTemplate.resize(knownTemplates.size());
    for (const TaskAutomaton *automaton : automatonSet) {
        const AutomatonInstance fresh(automaton);
        for (std::size_t tpl = 0; tpl < knownTemplates.size(); ++tpl) {
            if (knownTemplates[tpl] != 0 &&
                fresh.canConsume(static_cast<logging::TemplateId>(tpl))) {
                startersByTemplate[tpl].push_back(automaton);
            }
        }
    }
}

bool
InterleavedChecker::templateKnown(logging::TemplateId tpl) const
{
    return tpl != logging::kInvalidTemplate &&
           tpl < knownTemplates.size() && knownTemplates[tpl] != 0;
}

AutomatonGroup &
InterleavedChecker::groupAt(GroupId gid)
{
    GroupSlot *slot = findGroup(gid);
    CS_ASSERT(slot != nullptr, "unknown group id");
    return slot->group;
}

const AutomatonGroup &
InterleavedChecker::groupAt(GroupId gid) const
{
    const GroupSlot *slot = findGroup(gid);
    CS_ASSERT(slot != nullptr, "unknown group id");
    return slot->group;
}

void
InterleavedChecker::setLatencyPolicy(
    const std::vector<LatencyProfile> &profiles,
    const LatencyCheckConfig &policy)
{
    latencyProfiles.clear();
    for (const LatencyProfile &profile : profiles) {
        if (profile.hasSamples())
            latencyProfiles.emplace(profile.task, profile);
    }
    latencyPolicy = policy;
}

bool
InterleavedChecker::annotateLatency(CheckEvent &event,
                                    const AutomatonGroup &group,
                                    InstanceView instance) const
{
    auto it = latencyProfiles.find(instance.automaton().name());
    if (it == latencyProfiles.end())
        return false;
    const LatencyProfile &profile = it->second;
    const TaskAutomaton &automaton = instance.automaton();
    std::span<const common::SimTime> when = instance.consumeTimes();

    event.totalElapsed = group.lastActivity() - group.createdAt();
    event.totalBudget =
        profile.total.count > 0
            ? latencyBudget(profile.total, latencyPolicy)
            : -1.0;

    for (const DependencyEdge &edge : automaton.edges()) {
        EdgeTiming timing;
        timing.from = edge.from;
        timing.to = edge.to;
        timing.fromTpl = automaton.event(edge.from).tpl;
        timing.toTpl = automaton.event(edge.to).tpl;
        timing.elapsed = std::max(
            0.0, when[static_cast<std::size_t>(edge.to)] -
                     when[static_cast<std::size_t>(edge.from)]);
        auto stats = profile.edges.find({edge.from, edge.to});
        if (stats != profile.edges.end() && stats->second.count > 0) {
            timing.budget = latencyBudget(stats->second, latencyPolicy);
            timing.exceeded = timing.elapsed > timing.budget;
        }
        event.edgeTimings.push_back(timing);
    }

    // Critical branch through forks/joins: walk back from the last
    // consumed event, at each join taking the predecessor that
    // finished latest — the branch that actually gated progress.
    int cursor = instance.lastConsumedEvent();
    if (cursor >= 0) {
        std::vector<int> path{cursor};
        while (!automaton.preds(cursor).empty()) {
            int slowest = -1;
            for (int pred : automaton.preds(cursor)) {
                if (slowest < 0 ||
                    when[static_cast<std::size_t>(pred)] >
                        when[static_cast<std::size_t>(slowest)]) {
                    slowest = pred;
                }
            }
            cursor = slowest;
            path.push_back(cursor);
        }
        event.criticalPath.assign(path.rbegin(), path.rend());
    }

    return event.totalBudget >= 0.0 &&
           event.totalElapsed > event.totalBudget;
}

void
InterleavedChecker::selectIdSets(const std::vector<IdToken> &view,
                                 int max_overlap_exclusive,
                                 int *overlap_out, bool tie_break,
                                 std::vector<std::uint64_t> &selected)
{
    if (config.routingIndex) {
        selectIdSetsIndexed(view, max_overlap_exclusive, overlap_out,
                            tie_break, selected);
        idSetVisits += hitScratch.size();
    } else {
        selectIdSetsScan(view, max_overlap_exclusive, overlap_out,
                         tie_break, selected);
        idSetVisits += setOrder.size();
    }
}

void
InterleavedChecker::selectIdSetsScan(const std::vector<IdToken> &view,
                                     int max_overlap_exclusive,
                                     int *overlap_out, bool tie_break,
                                     std::vector<std::uint64_t> &selected) const
{
    // Best overlap below the (optional) exclusive bound; ties broken by
    // least symmetric difference when configured (paper heuristic 1).
    selected.clear();
    int best = 0;
    for (const Ordered &set : setOrder) {
        int ov = setSlots[set.slot].ids.overlap(view);
        if (max_overlap_exclusive >= 0 && ov >= max_overlap_exclusive)
            continue;
        best = std::max(best, ov);
    }
    if (overlap_out != nullptr)
        *overlap_out = best;
    if (best == 0)
        return;

    int least_diff = -1;
    for (const Ordered &set : setOrder) {
        const IdentifierSet &ids = setSlots[set.slot].ids;
        int ov = ids.overlap(view);
        if (ov != best)
            continue;
        if (max_overlap_exclusive >= 0 && ov >= max_overlap_exclusive)
            continue;
        if (!tie_break) {
            selected.push_back(set.id);
            continue;
        }
        int diff = ids.symmetricDifference(view);
        if (least_diff == -1 || diff < least_diff) {
            least_diff = diff;
            selected.clear();
            selected.push_back(set.id);
        } else if (diff == least_diff) {
            selected.push_back(set.id);
        }
    }
}

void
InterleavedChecker::selectIdSetsIndexed(const std::vector<IdToken> &view,
                                        int max_overlap_exclusive,
                                        int *overlap_out, bool tie_break,
                                        std::vector<std::uint64_t> &selected)
{
    // Posting-list accumulation: a set's count of hits across the
    // message's distinct tokens IS its overlap, and any set sharing no
    // token has overlap 0 — which the scan path can never select
    // either (best == 0 returns empty; positive bounds are >= 2).
    // Sorting the hits groups each set's into one run, in ascending
    // set id, so the selection order matches the scan's ascending-map
    // iteration exactly.
    selected.clear();
    hitScratch.clear();
    for (IdToken token : view) {
        const Slot slot = postingIndex.find(token);
        if (slot != kNoSlot) {
            const std::vector<std::uint64_t> &list = postingLists[slot];
            hitScratch.insert(hitScratch.end(), list.begin(), list.end());
        }
    }
    std::sort(hitScratch.begin(), hitScratch.end());
    std::vector<std::pair<std::uint64_t, int>> &candidates = overlapScratch;
    candidates.clear();
    for (std::size_t i = 0; i < hitScratch.size();) {
        std::size_t run = i;
        while (run < hitScratch.size() && hitScratch[run] == hitScratch[i])
            ++run;
        candidates.emplace_back(hitScratch[i], static_cast<int>(run - i));
        i = run;
    }

    int best = 0;
    for (const auto &[set_id, ov] : candidates) {
        if (max_overlap_exclusive >= 0 && ov >= max_overlap_exclusive)
            continue;
        best = std::max(best, ov);
    }
    if (overlap_out != nullptr)
        *overlap_out = best;
    if (best == 0)
        return;

    int least_diff = -1;
    for (const auto &[set_id, ov] : candidates) {
        if (ov != best)
            continue;
        if (!tie_break) {
            selected.push_back(set_id);
            continue;
        }
        // |A Δ B| = |A| + |B| - 2|A ∩ B|; the overlap is already
        // known, so no merge is needed.
        int diff = static_cast<int>(findSet(set_id)->ids.size()) +
                   static_cast<int>(view.size()) - 2 * ov;
        if (least_diff == -1 || diff < least_diff) {
            least_diff = diff;
            selected.clear();
            selected.push_back(set_id);
        } else if (diff == least_diff) {
            selected.push_back(set_id);
        }
    }
}

std::size_t
InterleavedChecker::equivalencePickIndex(std::size_t pool_size)
{
    // splitmix64 finalizer over (seed, record, draw ordinal): stateless,
    // so the choice depends only on the message, never on how many
    // draws happened before it, and a restored checker picks as the
    // uninterrupted one does.
    std::uint64_t x = config.seed;
    x ^= 0x9e3779b97f4a7c15ULL * (currentRecord + 1);
    x += 0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(pickSalt++) + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x % pool_size);
}

void
InterleavedChecker::candidateGroups(
    const std::vector<std::uint64_t> &set_ids, std::vector<GroupId> &out)
{
    out.clear();
    for (std::uint64_t set_id : set_ids) {
        const IdSetSlot *set = findSet(set_id);
        if (set == nullptr)
            continue;
        const std::vector<GroupId> &members = set->groupIds;
        if (!config.equivalentGroupDedup) {
            for (GroupId gid : members) {
                if (findGroup(gid) != nullptr)
                    out.push_back(gid);
            }
            continue;
        }
        // A sole-member set yields at most one class with a one-element
        // pool: the member itself, with no equivalence draw (pickSalt
        // only advances for pools > 1). Skip building the signature
        // classes; the result is identical.
        if (members.size() == 1) {
            if (findGroup(members.front()) != nullptr)
                out.push_back(members.front());
            continue;
        }
        // Paper heuristic 2: among equivalent groups under one set,
        // randomly select a single representative. Classes are keyed
        // by the cached state signature (equal signatures ⟺
        // equivalentTo) and visited in first-member order, each with
        // its members in member order. Sorting (signature, position)
        // pairs forms the classes without the O(members²)
        // instance-state walks and without a per-call hash table.
        memberScratch.clear();
        for (std::size_t pos = 0; pos < members.size(); ++pos) {
            const GroupSlot *member = findGroup(members[pos]);
            if (member != nullptr)
                memberScratch.push_back({member->group.stateSignature(),
                                         pos, members[pos],
                                         member->group.zombie()});
        }
        std::sort(memberScratch.begin(), memberScratch.end(),
                  [](const ClassMember &a, const ClassMember &b) {
                      if (a.signature != b.signature)
                          return a.signature < b.signature;
                      return a.position < b.position;
                  });
        classScratch.clear();
        for (std::size_t i = 0; i < memberScratch.size(); ++i) {
            if (i == 0 ||
                memberScratch[i].signature != memberScratch[i - 1].signature)
                classScratch.emplace_back(memberScratch[i].position, i);
        }
        std::sort(classScratch.begin(), classScratch.end());
        for (const auto &cls : classScratch) {
            const std::size_t run_start = cls.second;
            std::size_t run_end = run_start + 1;
            while (run_end < memberScratch.size() &&
                   memberScratch[run_end].signature ==
                       memberScratch[run_start].signature) {
                ++run_end;
            }
            // Prefer live members: a zombie that is state-equivalent
            // to a live group must not steal its messages (silent
            // absorption is a last resort, or starved live groups
            // zombify in a self-sustaining cascade).
            poolScratch.clear();
            for (std::size_t i = run_start; i < run_end; ++i) {
                if (!memberScratch[i].zombie)
                    poolScratch.push_back(memberScratch[i].gid);
            }
            if (poolScratch.empty()) {
                for (std::size_t i = run_start; i < run_end; ++i)
                    poolScratch.push_back(memberScratch[i].gid);
            }
            GroupId chosen =
                poolScratch.size() == 1
                    ? poolScratch.front()
                    : poolScratch[equivalencePickIndex(poolScratch.size())];
            out.push_back(chosen);
        }
    }
    // A group can be reachable through several sets; keep it once.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

void
InterleavedChecker::addPosting(IdToken token, std::uint64_t set_id)
{
    Slot slot = postingIndex.find(token);
    if (slot == kNoSlot) {
        slot = postingLists.acquire();
        postingLists[slot].clear();
        postingIndex.insert(token, slot);
    }
    postingLists[slot].push_back(set_id);
}

InterleavedChecker::GroupSlot &
InterleavedChecker::insertGroup(GroupId gid)
{
    CS_ASSERT(groupOrder.lastId() < gid, "group ids must ascend");
    const Slot slot = groupSlots.acquire();
    groupOrder.insert(gid, slot);
    GroupSlot &entry = groupSlots[slot];
    entry.set = kNoSlot;
    return entry;
}

void
InterleavedChecker::indexAddSet(Slot set)
{
    IdSetSlot &entry = setSlots[set];
    for (IdToken token : entry.ids.values())
        addPosting(token, entry.id);
    entry.contentsKey = contentsKeyOf(entry.ids.values());
    contentsIndex.insert(entry.contentsKey, set);
}

void
InterleavedChecker::indexRemoveSet(Slot set)
{
    const IdSetSlot &entry = setSlots[set];
    for (IdToken token : entry.ids.values()) {
        const Slot slot = postingIndex.find(token);
        CS_ASSERT(slot != kNoSlot, "posting list missing");
        std::vector<std::uint64_t> &list = postingLists[slot];
        list.erase(std::remove(list.begin(), list.end(), entry.id),
                   list.end());
        if (list.empty()) {
            postingIndex.erase(token, slot);
            postingLists.release(slot);
        }
    }
    contentsIndex.erase(entry.contentsKey, set);
}

void
InterleavedChecker::contentsRekey(Slot set)
{
    IdSetSlot &entry = setSlots[set];
    contentsIndex.erase(entry.contentsKey, set);
    entry.contentsKey = contentsKeyOf(entry.ids.values());
    contentsIndex.insert(entry.contentsKey, set);
}

Slot
InterleavedChecker::findOrCreateIdSet(
    const std::vector<IdToken> &sorted_unique)
{
    if (config.routingIndex) {
        // Sets with equal contents (transient aliases) all answer; the
        // scan semantics pick the lowest id.
        Slot found = kNoSlot;
        contentsIndex.forEach(contentsKeyOf(sorted_unique), [&](Slot slot) {
            const IdSetSlot &entry = setSlots[slot];
            if (entry.ids.values() == sorted_unique &&
                (found == kNoSlot || entry.id < setSlots[found].id))
                found = slot;
        });
        if (found != kNoSlot)
            return found;
    } else {
        for (const Ordered &set : setOrder) {
            if (setSlots[set.slot].ids.values() == sorted_unique)
                return set.slot;
        }
    }
    const std::uint64_t set_id = nextIdSetId++;
    CS_ASSERT(setOrder.lastId() < set_id, "identifier-set id collision");
    const Slot slot = setSlots.acquire();
    IdSetSlot &entry = setSlots[slot];
    entry.id = set_id;
    entry.ids.assign(sorted_unique);
    entry.groupIds.clear();
    setOrder.insert(set_id, slot);
    indexAddSet(slot);
    return slot;
}

void
InterleavedChecker::eraseSet(Slot set)
{
    const std::uint64_t set_id = setSlots[set].id;
    indexRemoveSet(set);
    setOrder.erase(set_id);
    setSlots.release(set);
}

void
InterleavedChecker::registerGroup(GroupSlot &entry,
                                  const std::vector<IdToken> &initial_ids)
{
    entry.set = findOrCreateIdSet(initial_ids);
    setSlots[entry.set].groupIds.push_back(entry.group.id());
    if (tracer != nullptr)
        tracer->beginSpan(entry.group.id(), traceNow);
}

void
InterleavedChecker::traceEnd(const AutomatonGroup &group,
                             common::SimTime time,
                             obs::SpanEnd reason) const
{
    if (tracer == nullptr)
        return;
    InstanceView instance = group.acceptingInstance();
    if (!instance && !group.instances().empty())
        instance = group.instances().front();
    tracer->endSpan(group.id(), time, reason,
                    instance ? instance.automaton().name() : std::string(),
                    group.history().size());
}

void
InterleavedChecker::applyDecisiveIdUpdate(
    GroupSlot &owner, const std::vector<IdToken> &view)
{
    CS_ASSERT(owner.set != kNoSlot, "group without identifier set");
    const GroupId group = owner.group.id();
    const Slot set = owner.set;
    IdSetSlot &entry = setSlots[set];

    if (entry.groupIds.size() == 1) {
        // When every message token is already in the set, the insert
        // below adds nothing: the re-key and the posting scan are
        // identity operations, so one linear overlap check skips both.
        if (entry.ids.overlap(view) == static_cast<int>(view.size()))
            return;
        // Sole owner: expand in place (the paper's ID ∪ m.Sv). The
        // index follows: new tokens gain a posting, and the set is
        // re-keyed under its new contents.
        entry.ids.insert(view, &addedScratch);
        contentsRekey(set);
        for (IdToken token : addedScratch)
            addPosting(token, entry.id);
        return;
    }
    // Shared set: split off an expanded copy for this group.
    entry.groupIds.erase(std::remove(entry.groupIds.begin(),
                                     entry.groupIds.end(), group),
                         entry.groupIds.end());
    contentsScratch = entry.ids;
    contentsScratch.insert(view);
    owner.set = findOrCreateIdSet(contentsScratch.values());
    setSlots[owner.set].groupIds.push_back(group);
}

void
InterleavedChecker::eraseGroup(GroupId group)
{
    const Slot slot = groupOrder.find(group);
    if (slot != kNoSlot)
        eraseGroupAt(slot);
}

void
InterleavedChecker::eraseGroupAt(Slot slot)
{
    GroupSlot &entry = groupSlots[slot];
    const GroupId group = entry.group.id();
    // Default span end for teardown without a report; sites with a
    // real fate (accept/error/timeout/shed) close the span first and
    // this becomes a no-op.
    traceEnd(entry.group, traceNow, obs::SpanEnd::Pruned);
    if (entry.set != kNoSlot) {
        std::vector<GroupId> &members = setSlots[entry.set].groupIds;
        members.erase(std::remove(members.begin(), members.end(), group),
                      members.end());
        if (members.empty())
            eraseSet(entry.set);
    }
    groupOrder.erase(group);
    groupSlots.release(slot);
}

void
InterleavedChecker::collectDescendants(GroupId group,
                                       std::vector<GroupId> &out) const
{
    const GroupSlot *entry = findGroup(group);
    if (entry == nullptr)
        return;
    for (GroupId child : entry->group.children()) {
        if (findGroup(child) == nullptr)
            continue;
        out.push_back(child);
        collectDescendants(child, out);
    }
}

void
InterleavedChecker::pruneLineageOnAccept(GroupId winner)
{
    // A winner with no rival set, no parent, and no children removes
    // exactly itself: addRivalsOf is a no-op on rivalSet() == 0, the
    // ancestor walk never starts, and there are no descendants. Skip
    // the removal-set construction.
    const Slot won_slot = groupOrder.find(winner);
    CS_ASSERT(won_slot != kNoSlot, "unknown group id");
    const AutomatonGroup &won = groupSlots[won_slot].group;
    if (won.rivalSet() == 0 && won.parent() == 0 &&
        won.children().empty()) {
        eraseGroupAt(won_slot);
        return;
    }

    std::vector<GroupId> &removal = removalScratch;
    removal.clear();

    auto addRivalsOf = [this, &removal](GroupId gid) {
        const GroupSlot *entry = findGroup(gid);
        if (entry == nullptr || entry->group.rivalSet() == 0)
            return;
        std::uint64_t rival_set = entry->group.rivalSet();
        for (const Ordered &other : groupOrder) {
            if (other.id != gid &&
                groupSlots[other.slot].group.rivalSet() == rival_set) {
                removal.push_back(other.id);
                collectDescendants(other.id, removal);
            }
        }
    };

    // The winner, everything derived from it, its stale ancestors,
    // each level's rival hypotheses, and their derivations.
    removal.push_back(winner);
    collectDescendants(winner, removal);
    addRivalsOf(winner);

    GroupId ancestor = won.parent();
    while (ancestor != 0) {
        const GroupSlot *entry = findGroup(ancestor);
        if (entry == nullptr)
            break;
        GroupId next = entry->group.parent();
        removal.push_back(ancestor);
        collectDescendants(ancestor, removal);
        addRivalsOf(ancestor);
        ancestor = next;
    }

    std::sort(removal.begin(), removal.end());
    removal.erase(std::unique(removal.begin(), removal.end()),
                  removal.end());
    for (GroupId gid : removal)
        eraseGroup(gid);
}

CheckEvent
InterleavedChecker::makeEvent(CheckEventKind kind, const GroupSlot &entry,
                              common::SimTime time) const
{
    const AutomatonGroup &group = entry.group;
    CheckEvent event;
    event.kind = kind;
    event.candidateTasks = group.candidateTaskNames();
    InstanceView instance = group.acceptingInstance();
    if (!instance && !group.instances().empty())
        instance = group.instances().front();
    if (instance) {
        event.taskName = instance.automaton().name();
        for (int e : instance.frontier())
            event.frontierTemplates.push_back(
                instance.automaton().event(e).tpl);
        event.expectedTemplates = instance.expectedTemplates();
    }
    // One spare slot: the error criterion appends the diverging record.
    event.records.reserve(group.history().size() + 1);
    for (const ConsumedMessage &msg : group.history())
        event.records.push_back(msg.record);
    if (entry.set != kNoSlot)
        event.identifiers = setSlots[entry.set].ids.values();
    event.startTime = group.createdAt();
    event.time = time;
    event.group = group.id();
    return event;
}

void
InterleavedChecker::harvestAcceptance(std::span<const GroupId> touched,
                                      common::SimTime now,
                                      std::vector<CheckEvent> &events)
{
    for (GroupId gid : touched) {
        GroupSlot *entry = findGroup(gid);
        if (entry == nullptr)
            continue; // pruned by an earlier winner this round
        const AutomatonGroup &group = entry->group;
        InstanceView accepted = group.acceptingInstance();
        if (!accepted)
            continue;
        if (!group.zombie()) {
            ++counters.accepted;
            CheckEvent event =
                makeEvent(CheckEventKind::Accepted, *entry, now);
            if (latencyPolicyActive() &&
                annotateLatency(event, group, accepted)) {
                event.kind = CheckEventKind::LatencyAnomaly;
                ++counters.latencyAnomalies;
            }
            if (tracer != nullptr && latencyPolicyActive() &&
                !event.edgeTimings.empty()) {
                std::vector<obs::SpanTransition> slices;
                slices.reserve(event.edgeTimings.size());
                std::span<const common::SimTime> when =
                    accepted.consumeTimes();
                for (const EdgeTiming &timing : event.edgeTimings) {
                    slices.push_back(
                        {"e" + std::to_string(timing.from) + "->e" +
                             std::to_string(timing.to),
                         when[static_cast<std::size_t>(timing.from)],
                         timing.elapsed, timing.exceeded});
                }
                tracer->addTransitions(gid, std::move(slices));
            }
            traceEnd(group, now, obs::SpanEnd::Accepted);
            events.push_back(std::move(event));
        }
        pruneLineageOnAccept(gid);
    }
}

void
InterleavedChecker::applyErrorCriterion(const CheckMessage &message,
                                        const std::vector<IdToken> &view,
                                        std::vector<CheckEvent> &events)
{
    ++counters.errorsReported;

    // Most likely group: best identifier overlap, preferring live
    // (non-zombie) hypotheses.
    int overlap = 0;
    selectIdSets(view, -1, &overlap, config.tieBreakLeastDifference,
                 selectedScratch);
    GroupId chosen = 0;
    const GroupSlot *chosen_entry = nullptr;
    for (std::uint64_t set_id : selectedScratch) {
        const IdSetSlot *set = findSet(set_id);
        if (set == nullptr)
            continue;
        for (GroupId gid : set->groupIds) {
            const GroupSlot *entry = findGroup(gid);
            if (entry == nullptr)
                continue;
            if (chosen == 0 || (chosen_entry->group.zombie() &&
                                !entry->group.zombie())) {
                chosen = gid;
                chosen_entry = entry;
            }
        }
    }

    CheckEvent event;
    if (chosen != 0) {
        traceEnd(chosen_entry->group, message.time,
                 obs::SpanEnd::Diverged);
        event = makeEvent(CheckEventKind::ErrorDetected, *chosen_entry,
                          message.time);
        // The paper stops choosing this instance for further messages.
        pruneLineageOnAccept(chosen);
    } else {
        event.kind = CheckEventKind::ErrorDetected;
        event.taskName = "(unassociated)";
        event.time = message.time;
    }
    event.records.push_back(message.record);
    events.push_back(event);
}

std::vector<CheckEvent>
InterleavedChecker::feed(const CheckMessage &message)
{
    // seer-probe: Algorithm 2 samples as "check" even when this
    // engine is driven directly (bench paths), not via the monitor.
    obs::StageScope profScope(obs::ProfStage::Check);
    std::vector<CheckEvent> events;
    ++counters.messages;
    traceNow = message.time;
    currentRecord = message.record;
    pickSalt = 0;

    // One dedup per message: every overlap / difference / insert below
    // works on this sorted-unique token view.
    viewScratch.assign(message.identifiers.begin(),
                       message.identifiers.end());
    std::sort(viewScratch.begin(), viewScratch.end());
    viewScratch.erase(std::unique(viewScratch.begin(), viewScratch.end()),
                      viewScratch.end());
    const std::vector<IdToken> &view = viewScratch;

    // Recovery (a), hoisted: a template outside every automaton's Σ can
    // never be consumed. Non-error messages pass through; error
    // messages trigger the error-message criterion.
    if (!templateKnown(message.tpl)) {
        if (logging::isErrorLevel(message.level)) {
            applyErrorCriterion(message, view, events);
        } else {
            ++counters.recoveredPassUnknown;
        }
        return events;
    }

    // --- selection (Algorithm 2 lines 1-3) ----------------------------
    int best_overlap = 0;
    std::vector<GroupId> &candidates = candidateScratch;
    if (config.identifierRouting && !view.empty()) {
        selectIdSets(view, -1, &best_overlap,
                     config.tieBreakLeastDifference, selectedScratch);
        candidateGroups(selectedScratch, candidates);
    } else {
        candidates.clear();
        for (const Ordered &entry : groupOrder)
            candidates.push_back(entry.id);
    }

    // --- trial consumption (lines 4-8) --------------------------------
    counters.consumeAttempts += candidates.size();
    std::vector<GroupId> &consuming = consumingScratch;
    consuming.clear();
    for (GroupId gid : candidates) {
        const GroupSlot *entry = findGroup(gid);
        if (entry != nullptr && entry->group.canConsume(message.tpl))
            consuming.push_back(gid);
    }

    auto doDecisive = [this, &message, &view, &events](GroupId gid) {
        GroupSlot *entry = findGroup(gid);
        CS_ASSERT(entry != nullptr, "unknown group id");
        AutomatonGroup &group = entry->group;
        bool ok =
            group.consume(message.tpl, message.record, message.time);
        CS_ASSERT(ok, "decisive consumption failed after canConsume");
        if (tracer != nullptr)
            tracer->annotate(gid, message.time,
                             obs::ConsumeAnnotation::Decisive);
        applyDecisiveIdUpdate(*entry, view);
        harvestAcceptance({&gid, 1}, message.time, events);
    };

    auto doAmbiguous = [this, &message, &view,
                        &events](const std::vector<GroupId> &contenders) {
        std::vector<GroupId> &gids = forkScratch;
        gids.assign(contenders.begin(), contenders.end());
        // Case (2): fork a consuming clone of every contender; all
        // clones share one pooled identifier set (ID1 ∪ ID2 ∪ m.Sv).
        // Bounded fan-out: prefer the most-developed hypotheses.
        if (gids.size() > config.maxForkFanout) {
            // A stable sort by history length, descending; the explicit
            // position tie-break makes std::sort stable without the
            // temporary buffer std::stable_sort allocates.
            std::vector<std::pair<std::size_t, std::size_t>> &rank =
                forkRankScratch;
            rank.clear();
            for (std::size_t i = 0; i < gids.size(); ++i)
                rank.emplace_back(groupAt(gids[i]).history().size(), i);
            std::sort(rank.begin(), rank.end(),
                      [](const auto &a, const auto &b) {
                          if (a.first != b.first)
                              return a.first > b.first;
                          return a.second < b.second;
                      });
            rank.resize(config.maxForkFanout);
            gids.clear();
            for (const auto &[length, position] : rank)
                gids.push_back(contenders[position]);
        }
        IdentifierSet &pooled = contentsScratch;
        pooled.clear();
        std::uint64_t rival_set = nextRivalSet++;
        std::vector<GroupId> &touched = touchedScratch;
        touched.clear();
        for (GroupId gid : gids) {
            const GroupSlot *entry = findGroup(gid);
            CS_ASSERT(entry != nullptr && entry->set != kNoSlot,
                      "group without identifier set");
            pooled.unionWith(setSlots[entry->set].ids);
        }
        pooled.insert(view);
        const Slot set = findOrCreateIdSet(pooled.values());
        // Slot storage is stable: `members`, the clone and its source
        // stay valid while the clones are inserted.
        std::vector<GroupId> &members = setSlots[set].groupIds;
        members.reserve(members.size() + gids.size());
        for (GroupId gid : gids) {
            GroupId clone_id = nextGroupId++;
            GroupSlot &clone_entry = insertGroup(clone_id);
            AutomatonGroup &clone = clone_entry.group;
            AutomatonGroup &source = groupAt(gid);
            source.cloneInto(clone, clone_id, message.tpl);
            bool ok = clone.consume(message.tpl, message.record,
                                    message.time);
            CS_ASSERT(ok, "clone consumption failed after canConsume");
            clone.setRivalSet(rival_set);
            source.addChild(clone_id);
            members.push_back(clone_id);
            clone_entry.set = set;
            if (tracer != nullptr) {
                tracer->beginSpan(clone_id, message.time);
                tracer->annotate(clone_id, message.time,
                                 obs::ConsumeAnnotation::Ambiguous);
            }
            touched.push_back(clone_id);
        }
        harvestAcceptance(touched, message.time, events);
    };

    if (consuming.size() == 1) {
        ++counters.decisive;
        doDecisive(consuming.front());
        return events;
    }
    if (consuming.size() > 1) {
        ++counters.ambiguous;
        if (!config.identifierRouting) {
            // Brute-force mode has no identifier sets to pool the
            // alternatives under; forking every contender for every
            // message is exponential. Resolve to the most-developed
            // hypothesis instead — the ablation measures the probing
            // cost the identifier heuristic avoids (paper §5.5).
            GroupId best = consuming.front();
            for (GroupId gid : consuming) {
                if (groupAt(gid).history().size() >
                    groupAt(best).history().size()) {
                    best = gid;
                }
            }
            doDecisive(best);
            return events;
        }
        doAmbiguous(consuming);
        return events;
    }

    // --- divergence recovery (case 3) ----------------------------------
    // (b) the message may start a new sequence. The group is built from
    // the memoised starters only: the same instances, in the same
    // order, that consume() would keep of a group over every automaton.
    {
        const std::vector<const TaskAutomaton *> &starters =
            startersByTemplate[message.tpl];
        if (!starters.empty()) {
            const GroupId gid = nextGroupId++;
            GroupSlot &entry = insertGroup(gid);
            AutomatonGroup &fresh = entry.group;
            fresh.reset(gid, starters);
            ++counters.recoveredNewSequence;
            bool ok = fresh.consume(message.tpl, message.record,
                                    message.time);
            CS_ASSERT(ok, "fresh group failed to consume");
            registerGroup(entry, view);
            if (tracer != nullptr)
                tracer->annotate(
                    gid, message.time,
                    obs::ConsumeAnnotation::RecoveryNewSequence);
            harvestAcceptance({&gid, 1}, message.time, events);
            return events;
        }
    }

    // (c) the chosen identifier set may be wrong: first retry the
    // tie-break losers at the best overlap, then walk down the
    // overlap ranks.
    if (config.identifierRouting && !view.empty()) {
        auto tryLevel =
            [this, &message](const std::vector<std::uint64_t> &sel,
                             auto &doDecisiveFn, auto &doAmbiguousFn) {
                std::vector<GroupId> &level_groups = levelScratch;
                candidateGroups(sel, level_groups);
                counters.consumeAttempts += level_groups.size();
                std::vector<GroupId> &takers = consumingScratch;
                takers.clear();
                for (GroupId gid : level_groups) {
                    const GroupSlot *entry = findGroup(gid);
                    if (entry != nullptr &&
                        entry->group.canConsume(message.tpl)) {
                        takers.push_back(gid);
                    }
                }
                if (takers.empty())
                    return false;
                ++counters.recoveredOtherSet;
                if (tracer != nullptr) {
                    for (GroupId gid : takers)
                        tracer->annotate(
                            gid, message.time,
                            obs::ConsumeAnnotation::RecoveryOtherSet);
                }
                if (takers.size() == 1)
                    doDecisiveFn(takers.front());
                else
                    doAmbiguousFn(takers);
                return true;
            };

        std::vector<std::uint64_t> &sel = selectedScratch;
        if (config.tieBreakLeastDifference && best_overlap > 0) {
            int level = 0;
            selectIdSets(view, -1, &level, /*tie_break=*/false, sel);
            if (tryLevel(sel, doDecisive, doAmbiguous))
                return events;
        }
        int bound = best_overlap;
        while (bound > 1) {
            int level = 0;
            selectIdSets(view, bound, &level,
                         config.tieBreakLeastDifference, sel);
            if (sel.empty() || level == 0)
                break;
            if (tryLevel(sel, doDecisive, doAmbiguous))
                return events;
            bound = level;
        }
    }

    // (d) a modeled dependency may be false: repair on the best-match
    // groups (paper Figure 4). Removed edges feed the refinement loop.
    if (config.falseDependencyRemoval) {
        for (GroupId gid : candidates) {
            GroupSlot *entry = findGroup(gid);
            if (entry == nullptr)
                continue;
            std::vector<AutomatonGroup::RepairedEdge> &repaired =
                repairedScratch;
            repaired.clear();
            if (entry->group.consumeWithRepair(message.tpl, message.record,
                                               message.time, &repaired)) {
                ++counters.recoveredFalseDependency;
                if (tracer != nullptr)
                    tracer->annotate(gid, message.time,
                                     obs::ConsumeAnnotation::
                                         RecoveryFalseDependency);
                for (const AutomatonGroup::RepairedEdge &edge :
                     repaired) {
                    ++removalCounts[edge.automaton->name()]
                                   [{edge.from, edge.to}];
                }
                applyDecisiveIdUpdate(*entry, view);
                harvestAcceptance({&gid, 1}, message.time, events);
                return events;
            }
        }
    }

    if (logging::isErrorLevel(message.level)) {
        applyErrorCriterion(message, view, events);
        return events;
    }

    ++counters.unmatched;
    return events;
}

bool
InterleavedChecker::lineageCovered(const AutomatonGroup &group,
                                   common::SimTime now, double timeout)
{
    auto recent = [now, timeout](const AutomatonGroup &g) {
        return now - g.lastActivity() <= timeout;
    };

    const GroupSlot *parent = findGroup(group.parent());
    if (parent != nullptr && recent(parent->group))
        return true;

    std::vector<GroupId> &descendants = descendantScratch;
    descendants.clear();
    collectDescendants(group.id(), descendants);
    for (GroupId gid : descendants) {
        if (recent(groupAt(gid)))
            return true;
    }

    if (group.rivalSet() != 0) {
        for (const Ordered &entry : groupOrder) {
            const AutomatonGroup &other = groupSlots[entry.slot].group;
            if (entry.id != group.id() &&
                other.rivalSet() == group.rivalSet() && recent(other)) {
                return true;
            }
        }
    }
    return false;
}

std::vector<CheckEvent>
InterleavedChecker::sweepTimeouts(common::SimTime now, double timeout)
{
    return sweepTimeouts(
        now, [timeout](const std::vector<std::string> &) {
            return timeout;
        });
}

std::vector<CheckEvent>
InterleavedChecker::sweepTimeouts(common::SimTime now,
                                  const TimeoutResolver &resolver)
{
    std::vector<CheckEvent> events;
    traceNow = now;
    // Walk the live order by position: the loop erases at most the
    // group it stands on and creates none, so it visits exactly the
    // groups that were live when the sweep began, in id order. An
    // erase may compact the order, so the walk resumes after the
    // erased id.
    for (std::size_t position = 0; position < groupOrder.span();) {
        const Ordered at = groupOrder.at(position);
        if (at.slot == kNoSlot) {
            ++position;
            continue;
        }
        const Slot slot = at.slot;
        GroupSlot &entry = groupSlots[slot];
        AutomatonGroup &group = entry.group;
        double timeout = resolver(group.candidateTaskNames());
        maxResolvedTimeout = std::max(maxResolvedTimeout, timeout);
        bool erase = false;
        if (group.zombie()) {
            // Zombies linger to absorb late messages, then fade.
            erase = now - group.lastActivity() > 3.0 * maxResolvedTimeout;
        } else if (now - group.lastActivity() > timeout) {
            if (config.timeoutSuppression &&
                lineageCovered(group, now, timeout)) {
                ++counters.timeoutsSuppressed;
                erase = true;
            } else {
                ++counters.timeoutsReported;
                traceEnd(group, now, obs::SpanEnd::TimedOut);
                events.push_back(
                    makeEvent(CheckEventKind::Timeout, entry, now));
                if (config.zombieAbsorption)
                    group.markZombie();
                else
                    erase = true;
            }
        }
        if (erase) {
            eraseGroupAt(slot);
            position = groupOrder.positionAfter(at.id);
        } else {
            ++position;
        }
    }
    return events;
}

void
InterleavedChecker::orderForShedding()
{
    shedScratch.clear();
    for (const Ordered &entry : groupOrder)
        shedScratch.push_back(entry);
    std::sort(shedScratch.begin(), shedScratch.end(),
              [this](const Ordered &a, const Ordered &b) {
                  const AutomatonGroup &ga = groupSlots[a.slot].group;
                  const AutomatonGroup &gb = groupSlots[b.slot].group;
                  if (ga.zombie() != gb.zombie())
                      return ga.zombie();
                  if (ga.lastActivity() != gb.lastActivity())
                      return ga.lastActivity() < gb.lastActivity();
                  return a.id < b.id;
              });
}

std::vector<CheckEvent>
InterleavedChecker::shedToCap(std::size_t cap, common::SimTime now)
{
    std::vector<CheckEvent> events;
    traceNow = now;
    if (groupOrder.size() <= cap)
        return events;

    // Eviction order: zombies first (already reported; pure state),
    // then least-recently-active. Ties fall back to the older group
    // id, which is deterministic.
    orderForShedding();
    std::size_t to_shed = groupOrder.size() - cap;
    for (std::size_t i = 0; i < to_shed && i < shedScratch.size(); ++i) {
        const GroupSlot *entry = findGroup(shedScratch[i].id);
        if (entry == nullptr)
            continue;
        ++counters.groupsShed;
        traceEnd(entry->group, now, obs::SpanEnd::Shed);
        events.push_back(
            makeEvent(CheckEventKind::Degraded, *entry, now));
        eraseGroup(shedScratch[i].id);
    }
    return events;
}

std::vector<CheckEvent>
InterleavedChecker::finish(common::SimTime now)
{
    std::vector<CheckEvent> events;
    traceNow = now;
    std::vector<GroupId> snapshot;
    snapshot.reserve(groupOrder.size());
    for (const Ordered &entry : groupOrder)
        snapshot.push_back(entry.id);
    for (GroupId gid : snapshot) {
        const GroupSlot *entry = findGroup(gid);
        if (entry == nullptr)
            continue;
        if (!entry->group.zombie()) {
            traceEnd(entry->group, now, obs::SpanEnd::EndOfStream);
            events.push_back(
                makeEvent(CheckEventKind::Timeout, *entry, now));
        }
        eraseGroup(gid);
    }
    // A set only outlives its last group in a restored image.
    while (!setOrder.empty())
        eraseSet(setOrder.find(setOrder.lastId()));
    return events;
}

const std::vector<std::uint64_t> *
InterleavedChecker::postingsFor(IdToken token) const
{
    const Slot slot = postingIndex.find(token);
    return slot == kNoSlot ? nullptr : &postingLists[slot];
}

InterleavedChecker::SlotFootprint
InterleavedChecker::slotFootprint() const
{
    SlotFootprint footprint;
    footprint.groupSlots = groupSlots.slots();
    footprint.idSetSlots = setSlots.slots();
    footprint.postingSlots = postingLists.slots();
    footprint.spareSlots =
        groupSlots.spares() + setSlots.spares() + postingLists.spares();
    footprint.groupOrderCapacity = groupOrder.capacity();
    footprint.idSetOrderCapacity = setOrder.capacity();
    footprint.groupIndexCapacity = groupOrder.indexCapacity();
    footprint.idSetIndexCapacity = setOrder.indexCapacity();
    footprint.postingIndexCapacity = postingIndex.capacity();
    footprint.contentsIndexCapacity = contentsIndex.capacity();
    return footprint;
}

bool
InterleavedChecker::indexConsistent() const
{
    // Every live set is indexed under its id and its contents…
    std::size_t expected_postings = 0;
    for (const Ordered &set : setOrder) {
        const IdSetSlot &entry = setSlots[set.slot];
        if (entry.id != set.id || setOrder.find(set.id) != set.slot)
            return false;
        std::size_t keyed = 0;
        contentsIndex.forEach(entry.contentsKey,
                              [&](Slot slot) { keyed += slot == set.slot; });
        if (keyed != 1 || entry.contentsKey != contentsKeyOf(entry.ids.values()))
            return false;
        // …its tokens each carry exactly one posting entry…
        expected_postings += entry.ids.size();
        for (IdToken token : entry.ids.values()) {
            const std::vector<std::uint64_t> *list = postingsFor(token);
            if (list == nullptr ||
                std::count(list->begin(), list->end(), set.id) != 1)
                return false;
        }
        // …and every member group points back at the set.
        for (GroupId gid : entry.groupIds) {
            const GroupSlot *member = findGroup(gid);
            if (member == nullptr || member->set != set.slot)
                return false;
        }
    }
    if (setSlots.live() != setOrder.size() ||
        contentsIndex.size() != setOrder.size())
        return false;
    // No posting points at a dead set or at one without its token.
    std::size_t actual_postings = 0;
    bool postings_live = true;
    postingIndex.forEachEntry([&](std::uint64_t token, Slot slot) {
        const std::vector<std::uint64_t> &list = postingLists[slot];
        postings_live = postings_live && !list.empty();
        actual_postings += list.size();
        for (std::uint64_t set_id : list) {
            const IdSetSlot *set = findSet(set_id);
            if (set == nullptr ||
                !set->ids.contains(static_cast<IdToken>(token)))
                postings_live = false;
        }
    });
    if (!postings_live || actual_postings != expected_postings)
        return false;
    // Every group is indexed and reachable from its set.
    for (const Ordered &group : groupOrder) {
        const GroupSlot &entry = groupSlots[group.slot];
        if (entry.group.id() != group.id ||
            groupOrder.find(group.id) != group.slot || entry.set == kNoSlot)
            return false;
        const std::vector<GroupId> &members = setSlots[entry.set].groupIds;
        if (std::count(members.begin(), members.end(), group.id) != 1)
            return false;
    }
    return groupSlots.live() == groupOrder.size();
}

std::uint64_t
modelFingerprint(const std::vector<const TaskAutomaton *> &automata)
{
    std::uint64_t hash = 1469598103934665603ULL; // FNV-1a offset basis
    auto mixByte = [&hash](std::uint8_t byte) {
        hash ^= byte;
        hash *= 1099511628211ULL; // FNV-1a prime
    };
    auto mix = [&mixByte](std::uint64_t value) {
        for (int shift = 0; shift < 64; shift += 8)
            mixByte(static_cast<std::uint8_t>(value >> shift));
    };
    auto mixString = [&mixByte, &mix](const std::string &s) {
        mix(s.size());
        for (char c : s)
            mixByte(static_cast<std::uint8_t>(c));
    };
    mix(automata.size());
    for (const TaskAutomaton *automaton : automata) {
        mixString(automaton->name());
        mix(automaton->eventCount());
        for (std::size_t e = 0; e < automaton->eventCount(); ++e) {
            const EventNode &node = automaton->event(static_cast<int>(e));
            mix(node.tpl);
            mix(static_cast<std::uint64_t>(node.occurrence));
        }
        mix(automaton->edges().size());
        for (const DependencyEdge &edge : automaton->edges()) {
            mix(static_cast<std::uint64_t>(edge.from));
            mix(static_cast<std::uint64_t>(edge.to));
            mixByte(edge.strong ? 1 : 0);
        }
    }
    return hash;
}

std::vector<CheckEvent>
InterleavedChecker::shedToMemory(std::size_t max_bytes,
                                 common::SimTime now)
{
    std::vector<CheckEvent> events;
    traceNow = now;
    if (max_bytes == 0)
        return events;
    std::size_t retained = approxRetainedBytes();
    if (retained <= max_bytes)
        return events;

    // Identical eviction order to shedToCap: zombies first, then
    // least-recently-active, ties to the older id — the two shedding
    // paths are one contract, differing only in the stop condition.
    orderForShedding();
    for (const Ordered &victim : shedScratch) {
        if (retained <= max_bytes || groupOrder.size() <= 1)
            break;
        const GroupSlot *entry = findGroup(victim.id);
        if (entry == nullptr)
            continue;
        std::size_t group_bytes = entry->group.approxRetainedBytes();
        ++counters.groupsShed;
        traceEnd(entry->group, now, obs::SpanEnd::Shed);
        events.push_back(
            makeEvent(CheckEventKind::Degraded, *entry, now));
        eraseGroup(victim.id);
        retained -= std::min(retained, group_bytes);
    }
    return events;
}

std::size_t
InterleavedChecker::approxRetainedBytes() const
{
    // Bookkeeping overhead constants are rough per-entry guesses (they
    // date from node-based maps and stay fixed so eviction decisions
    // and their pins do not move); the point is a deterministic,
    // monotone measure over persisted state, not byte-exact accounting.
    std::size_t bytes = 0;
    for (const Ordered &group : groupOrder)
        bytes += groupSlots[group.slot].group.approxRetainedBytes() + 48;
    for (const Ordered &set : setOrder) {
        const IdSetSlot &entry = setSlots[set.slot];
        // x2 on tokens: the postings and contents index mirror every
        // live set's token list.
        bytes += 2 * entry.ids.size() * sizeof(IdToken) +
                 entry.groupIds.size() * sizeof(GroupId) + 96;
    }
    // The group -> set relation: one entry per live group.
    bytes += groupOrder.size() * 48;
    for (const auto &[name, edges] : removalCounts)
        bytes += name.size() + edges.size() * 24 + 64;
    return bytes;
}

void
InterleavedChecker::saveState(common::BinWriter &out) const
{
    common::writeMembers(out, counters, kCheckerStatsMembers);

    out.writeU64(groupOrder.size());
    for (const Ordered &group : groupOrder)
        groupSlots[group.slot].group.saveState(out, automatonSet);

    out.writeU64(removalCounts.size());
    for (const auto &[name, edges] : removalCounts) {
        out.writeString(name);
        out.writeU64(edges.size());
        for (const auto &[edge, count] : edges) {
            out.writeI64(edge.first);
            out.writeI64(edge.second);
            out.writeI64(count);
        }
    }

    out.writeU64(setOrder.size());
    for (const Ordered &set : setOrder) {
        const IdSetSlot &entry = setSlots[set.slot];
        out.writeU64(set.id);
        out.writeU32Vector(entry.ids.values());
        out.writeU64Vector(entry.groupIds);
    }

    // The group -> set relation, one pair per group in id order.
    out.writeU64(groupOrder.size());
    for (const Ordered &group : groupOrder) {
        out.writeU64(group.id);
        out.writeU64(setSlots[groupSlots[group.slot].set].id);
    }

    out.writeU64(nextGroupId);
    out.writeU64(nextIdSetId);
    out.writeU64(nextRivalSet);
    out.writeF64(maxResolvedTimeout);
}

void
InterleavedChecker::clearState()
{
    groupSlots.clear();
    groupOrder.clear();
    setSlots.clear();
    setOrder.clear();
    postingLists.clear();
    postingIndex.clear();
    contentsIndex.clear();
    removalCounts.clear();
}

bool
InterleavedChecker::restoreState(common::BinReader &in)
{
    clearState();

    counters = CheckerStats{};
    common::readMembers(in, counters, kCheckerStatsMembers);

    // Images list groups and sets in id order, but a damaged one need
    // not: each order is sorted, and checked for repeated ids, once its
    // section is read.
    std::uint64_t group_count = in.readU64();
    if (!in.ok())
        return false;
    for (std::uint64_t i = 0; i < group_count; ++i) {
        const Slot slot = groupSlots.acquire();
        AutomatonGroup &group = groupSlots[slot].group;
        if (!group.restoreState(in, automatonSet)) {
            groupSlots.release(slot);
            in.fail();
            return false;
        }
        groupOrder.appendUnsorted(group.id(), slot);
    }
    if (!groupOrder.sort()) {
        in.fail();
        return false;
    }

    std::uint64_t removal_tasks = in.readU64();
    if (!in.ok())
        return false;
    for (std::uint64_t i = 0; i < removal_tasks; ++i) {
        std::string name = in.readString();
        std::uint64_t edge_count = in.readU64();
        // Three 8-byte words per edge.
        if (!in.ok() || edge_count > in.remaining() / 24) {
            in.fail();
            return false;
        }
        auto &edges = removalCounts[name];
        for (std::uint64_t e = 0; e < edge_count; ++e) {
            int from = static_cast<int>(in.readI64());
            int to = static_cast<int>(in.readI64());
            int count = static_cast<int>(in.readI64());
            if (!in.ok())
                return false;
            edges[{from, to}] = count;
        }
    }

    std::uint64_t set_count = in.readU64();
    if (!in.ok())
        return false;
    for (std::uint64_t i = 0; i < set_count; ++i) {
        std::uint64_t set_id = in.readU64();
        std::vector<IdToken> tokens = in.readU32Vector();
        std::vector<std::uint64_t> members = in.readU64Vector();
        if (!in.ok()) {
            in.fail();
            return false;
        }
        const Slot slot = setSlots.acquire();
        IdSetSlot &entry = setSlots[slot];
        entry.id = set_id;
        entry.ids = IdentifierSet(tokens);
        entry.groupIds = std::move(members);
        setOrder.appendUnsorted(set_id, slot);
        // Rebuild the derived routing index. Posting lists fill in
        // image order, which may differ from the incremental insertion
        // order of the live run — selection sorts candidates by set
        // id, so the difference is unobservable.
        indexAddSet(slot);
    }
    if (!setOrder.sort()) {
        in.fail();
        return false;
    }

    std::uint64_t relation_count = in.readU64();
    if (!in.ok())
        return false;
    for (std::uint64_t i = 0; i < relation_count; ++i) {
        GroupId gid = in.readU64();
        std::uint64_t set_id = in.readU64();
        GroupSlot *entry = in.ok() ? findGroup(gid) : nullptr;
        const Slot set = setOrder.find(set_id);
        if (entry == nullptr || entry->set != kNoSlot || set == kNoSlot) {
            in.fail();
            return false;
        }
        entry->set = set;
    }

    nextGroupId = in.readU64();
    nextIdSetId = in.readU64();
    nextRivalSet = in.readU64();
    maxResolvedTimeout = in.readF64();
    if (in.ok() && !restoredStateConsistent())
        in.fail();
    return in.ok();
}

std::size_t
InterleavedChecker::identifierTokenBound() const
{
    std::size_t bound = 0;
    postingIndex.forEachEntry([&bound](std::uint64_t token, Slot) {
        bound = std::max(bound, static_cast<std::size_t>(token) + 1);
    });
    return bound;
}

bool
InterleavedChecker::restoredStateConsistent() const
{
    // Groups, their identifier sets and the relation between them name
    // each other (the derived index was rebuilt from the sets)…
    if (!indexConsistent())
        return false;
    // …and the next ids are fresh, so a new group or set never takes
    // the key of a live one.
    if (!groupOrder.empty() && groupOrder.lastId() >= nextGroupId)
        return false;
    if (!setOrder.empty() && setOrder.lastId() >= nextIdSetId)
        return false;
    for (const Ordered &group : groupOrder) {
        if (groupSlots[group.slot].group.rivalSet() >= nextRivalSet)
            return false;
    }
    return true;
}

} // namespace cloudseer::core
