#include "core/checker/interleaved_checker.hpp"

#include <algorithm>
#include <string_view>

#include "common/error.hpp"
#include "obs/profiler.hpp"

namespace cloudseer::core {

using logging::IdToken;

namespace {

/** Spare nodes each recycling list may hold beyond its map's live
 *  entry count. */
constexpr std::size_t kSpareNodeFloor = 64;

/**
 * Erase `it` from `map`, keeping its node (and the buffers it owns) in
 * `spares` for the next insertion, within the free-list bound.
 */
template <typename Map>
void
eraseRecycled(Map &map, typename Map::iterator it,
              std::vector<typename Map::node_type> &spares)
{
    typename Map::node_type node = map.extract(it);
    if (spares.size() < map.size() + kSpareNodeFloor)
        spares.push_back(std::move(node));
    while (spares.size() > map.size() + kSpareNodeFloor)
        spares.pop_back();
}

/**
 * Insert `key` (absent from `map`) in a spare node when there is one.
 * A reused node's mapped value is whatever its last entry left there;
 * the caller overwrites it.
 */
template <typename Map>
typename Map::iterator
insertRecycled(Map &map, const typename Map::key_type &key,
               std::vector<typename Map::node_type> &spares)
{
    if (spares.empty())
        return map.try_emplace(key).first;
    typename Map::node_type node = std::move(spares.back());
    spares.pop_back();
    node.key() = key;
    auto placed = map.insert(std::move(node));
    CS_ASSERT(placed.inserted, "recycled node key collision");
    return placed.position;
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

void
InterleavedChecker::setCertifiedTemplates(std::vector<char> certified)
{
    certifiedTemplates = std::move(certified);
    certFastActive = false;
}

std::size_t
InterleavedChecker::certifiedTemplateCount() const
{
    std::size_t n = 0;
    for (char bit : certifiedTemplates)
        n += bit != 0;
    return n;
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
        idSetVisits += idsets.size();
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
    for (const auto &[id, entry] : idsets) {
        int ov = entry.ids.overlap(view);
        if (max_overlap_exclusive >= 0 && ov >= max_overlap_exclusive)
            continue;
        best = std::max(best, ov);
    }
    if (overlap_out != nullptr)
        *overlap_out = best;
    if (best == 0)
        return;

    int least_diff = -1;
    for (const auto &[id, entry] : idsets) {
        int ov = entry.ids.overlap(view);
        if (ov != best)
            continue;
        if (max_overlap_exclusive >= 0 && ov >= max_overlap_exclusive)
            continue;
        if (!tie_break) {
            selected.push_back(id);
            continue;
        }
        int diff = entry.ids.symmetricDifference(view);
        if (least_diff == -1 || diff < least_diff) {
            least_diff = diff;
            selected.clear();
            selected.push_back(id);
        } else if (diff == least_diff) {
            selected.push_back(id);
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
        auto it = postings.find(token);
        if (it != postings.end())
            hitScratch.insert(hitScratch.end(), it->second.begin(),
                              it->second.end());
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
        int diff = static_cast<int>(idsets.at(set_id).ids.size()) +
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
        auto set_it = idsets.find(set_id);
        if (set_it == idsets.end())
            continue;
        const std::vector<GroupId> &members = set_it->second.groupIds;
        if (!config.equivalentGroupDedup) {
            for (GroupId gid : members) {
                if (groups.count(gid))
                    out.push_back(gid);
            }
            continue;
        }
        // seer-prove fast path: a sole-member set yields at most one
        // class with a one-element pool — the member itself, with no
        // equivalence draw (pickSalt only advances for pools > 1). Skip
        // building the signature classes; the result is identical.
        if (certFastActive && members.size() == 1) {
            if (groups.count(members.front()))
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
            auto git = groups.find(members[pos]);
            if (git != groups.end())
                memberScratch.push_back(
                    {git->second.stateSignature(), pos, members[pos]});
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
                if (!groups.at(memberScratch[i].gid).zombie())
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
    auto it = postings.find(token);
    if (it == postings.end()) {
        it = insertRecycled(postings, token, sparePostings);
        it->second.clear();
    }
    it->second.push_back(set_id);
}

void
InterleavedChecker::relate(GroupId gid, std::uint64_t set_id)
{
    auto it = groupToSet.find(gid);
    if (it == groupToSet.end())
        it = insertRecycled(groupToSet, gid, spareRelations);
    it->second = set_id;
}

AutomatonGroup &
InterleavedChecker::insertGroup(GroupId gid)
{
    return insertRecycled(groups, gid, spareGroups)->second;
}

void
InterleavedChecker::contentsAdd(std::uint64_t set_id,
                                const std::vector<IdToken> &contents)
{
    auto it = setsByContents.find(contents);
    if (it == setsByContents.end()) {
        it = insertRecycled(setsByContents, contents, spareContents);
        it->second.clear();
    }
    std::vector<std::uint64_t> &ids = it->second;
    ids.insert(std::lower_bound(ids.begin(), ids.end(), set_id),
               set_id);
}

void
InterleavedChecker::contentsRemove(std::uint64_t set_id,
                                   const std::vector<IdToken> &contents)
{
    auto it = setsByContents.find(contents);
    CS_ASSERT(it != setsByContents.end(), "contents-map entry missing");
    auto &ids = it->second;
    ids.erase(std::remove(ids.begin(), ids.end(), set_id), ids.end());
    if (ids.empty())
        eraseRecycled(setsByContents, it, spareContents);
}

void
InterleavedChecker::indexAddSet(std::uint64_t set_id,
                                const IdSetEntry &entry)
{
    for (IdToken token : entry.ids.values())
        addPosting(token, set_id);
    contentsAdd(set_id, entry.ids.values());
}

void
InterleavedChecker::indexRemoveSet(std::uint64_t set_id,
                                   const IdSetEntry &entry)
{
    for (IdToken token : entry.ids.values()) {
        auto it = postings.find(token);
        CS_ASSERT(it != postings.end(), "posting list missing");
        auto &list = it->second;
        list.erase(std::remove(list.begin(), list.end(), set_id),
                   list.end());
        if (list.empty())
            eraseRecycled(postings, it, sparePostings);
    }
    contentsRemove(set_id, entry.ids.values());
}

std::uint64_t
InterleavedChecker::findOrCreateIdSet(
    const std::vector<IdToken> &sorted_unique)
{
    if (config.routingIndex) {
        auto it = setsByContents.find(sorted_unique);
        if (it != setsByContents.end())
            return it->second.front();
    } else {
        for (auto &[set_id, entry] : idsets) {
            if (entry.ids.values() == sorted_unique)
                return set_id;
        }
    }
    std::uint64_t set_id = nextIdSetId++;
    CS_ASSERT(!idsets.count(set_id), "identifier-set id collision");
    auto pos = insertRecycled(idsets, set_id, spareIdSets);
    pos->second.ids.assign(sorted_unique);
    pos->second.groupIds.clear();
    indexAddSet(set_id, pos->second);
    return set_id;
}

void
InterleavedChecker::registerGroup(GroupId gid,
                                  const std::vector<IdToken> &initial_ids)
{
    std::uint64_t set_id = findOrCreateIdSet(initial_ids);
    idsets.at(set_id).groupIds.push_back(gid);
    relate(gid, set_id);
    if (tracer != nullptr)
        tracer->beginSpan(gid, traceNow);
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
    GroupId group, const std::vector<IdToken> &view)
{
    auto map_it = groupToSet.find(group);
    CS_ASSERT(map_it != groupToSet.end(), "group without identifier set");
    auto set_it = idsets.find(map_it->second);
    CS_ASSERT(set_it != idsets.end(), "dangling identifier-set id");
    IdSetEntry &entry = set_it->second;

    if (entry.groupIds.size() == 1) {
        // seer-prove fast path: when every message token is already in
        // the set, the insert below adds nothing — the remove/add
        // re-key and the posting scan are identity operations. One
        // linear overlap check skips both map round-trips.
        if (certFastActive &&
            entry.ids.overlap(view) == static_cast<int>(view.size())) {
            return;
        }
        // Sole owner: expand in place (the paper's ID ∪ m.Sv). The
        // index follows: new tokens gain a posting, and the set is
        // re-keyed under its new contents.
        const std::uint64_t set_id = set_it->first;
        auto contents_it = setsByContents.find(entry.ids.values());
        CS_ASSERT(contents_it != setsByContents.end(),
                  "contents-map entry missing");
        if (contents_it->second.size() != 1) {
            contentsRemove(set_id, entry.ids.values());
            entry.ids.insert(view, &addedScratch);
            contentsAdd(set_id, entry.ids.values());
        } else {
            // Alone under its old contents (the usual case): move the
            // map node over whole, rewriting its key in place, so the
            // re-key reuses the node and the key's buffer.
            auto node = setsByContents.extract(contents_it);
            entry.ids.insert(view, &addedScratch);
            node.key() = entry.ids.values();
            auto placed = setsByContents.insert(std::move(node));
            if (!placed.inserted) {
                std::vector<std::uint64_t> &ids = placed.position->second;
                ids.insert(std::lower_bound(ids.begin(), ids.end(), set_id),
                           set_id);
            }
        }
        for (IdToken token : addedScratch)
            addPosting(token, set_id);
        return;
    }
    // Shared set: split off an expanded copy for this group.
    entry.groupIds.erase(std::remove(entry.groupIds.begin(),
                                     entry.groupIds.end(), group),
                         entry.groupIds.end());
    contentsScratch = entry.ids;
    contentsScratch.insert(view);
    std::uint64_t set_id = findOrCreateIdSet(contentsScratch.values());
    idsets.at(set_id).groupIds.push_back(group);
    map_it->second = set_id;
}

void
InterleavedChecker::eraseGroup(GroupId group)
{
    auto it = groups.find(group);
    if (it == groups.end())
        return;
    // Default span end for teardown without a report; sites with a
    // real fate (accept/error/timeout/shed) close the span first and
    // this becomes a no-op.
    traceEnd(it->second, traceNow, obs::SpanEnd::Pruned);
    auto map_it = groupToSet.find(group);
    if (map_it != groupToSet.end()) {
        auto set_it = idsets.find(map_it->second);
        if (set_it != idsets.end()) {
            auto &members = set_it->second.groupIds;
            members.erase(std::remove(members.begin(), members.end(),
                                      group),
                          members.end());
            if (members.empty()) {
                indexRemoveSet(set_it->first, set_it->second);
                eraseRecycled(idsets, set_it, spareIdSets);
            }
        }
        eraseRecycled(groupToSet, map_it, spareRelations);
    }
    eraseRecycled(groups, it, spareGroups);
}

void
InterleavedChecker::collectDescendants(GroupId group,
                                       std::vector<GroupId> &out) const
{
    auto it = groups.find(group);
    if (it == groups.end())
        return;
    for (GroupId child : it->second.children()) {
        if (!groups.count(child))
            continue;
        out.push_back(child);
        collectDescendants(child, out);
    }
}

void
InterleavedChecker::pruneLineageOnAccept(GroupId winner)
{
    // seer-prove fast path: a winner with no rival set, no parent, and
    // no children removes exactly itself — addRivalsOf is a no-op on
    // rivalSet() == 0, the ancestor walk never starts, and there are
    // no descendants. Skip the removal-set construction.
    if (certFastActive) {
        auto it = groups.find(winner);
        if (it != groups.end() && it->second.rivalSet() == 0 &&
            it->second.parent() == 0 && it->second.children().empty()) {
            eraseGroup(winner);
            return;
        }
    }

    std::vector<GroupId> &removal = removalScratch;
    removal.clear();

    auto addRivalsOf = [this, &removal](GroupId gid) {
        auto it = groups.find(gid);
        if (it == groups.end() || it->second.rivalSet() == 0)
            return;
        std::uint64_t rival_set = it->second.rivalSet();
        for (const auto &[other_id, other] : groups) {
            if (other_id != gid && other.rivalSet() == rival_set) {
                removal.push_back(other_id);
                collectDescendants(other_id, removal);
            }
        }
    };

    // The winner, everything derived from it, its stale ancestors,
    // each level's rival hypotheses, and their derivations.
    removal.push_back(winner);
    collectDescendants(winner, removal);
    addRivalsOf(winner);

    GroupId ancestor = groups.at(winner).parent();
    while (ancestor != 0) {
        auto it = groups.find(ancestor);
        if (it == groups.end())
            break;
        GroupId next = it->second.parent();
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
InterleavedChecker::makeEvent(CheckEventKind kind,
                              const AutomatonGroup &group,
                              common::SimTime time) const
{
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
    auto rel = groupToSet.find(group.id());
    if (rel != groupToSet.end()) {
        auto set_it = idsets.find(rel->second);
        if (set_it != idsets.end())
            event.identifiers = set_it->second.ids.values();
    }
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
        auto it = groups.find(gid);
        if (it == groups.end())
            continue; // pruned by an earlier winner this round
        InstanceView accepted = it->second.acceptingInstance();
        if (!accepted)
            continue;
        if (!it->second.zombie()) {
            ++counters.accepted;
            CheckEvent event =
                makeEvent(CheckEventKind::Accepted, it->second, now);
            if (latencyPolicyActive() &&
                annotateLatency(event, it->second, accepted)) {
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
            traceEnd(it->second, now, obs::SpanEnd::Accepted);
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
    for (std::uint64_t set_id : selectedScratch) {
        auto set_it = idsets.find(set_id);
        if (set_it == idsets.end())
            continue;
        for (GroupId gid : set_it->second.groupIds) {
            auto git = groups.find(gid);
            if (git == groups.end())
                continue;
            if (chosen == 0 || (groups.at(chosen).zombie() &&
                                !git->second.zombie())) {
                chosen = gid;
            }
        }
    }

    CheckEvent event;
    if (chosen != 0) {
        traceEnd(groups.at(chosen), message.time,
                 obs::SpanEnd::Diverged);
        event = makeEvent(CheckEventKind::ErrorDetected,
                          groups.at(chosen), message.time);
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
    certFastActive = message.tpl < certifiedTemplates.size() &&
                     certifiedTemplates[message.tpl] != 0;

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
        for (const auto &[gid, group] : groups)
            candidates.push_back(gid);
    }

    // --- trial consumption (lines 4-8) --------------------------------
    counters.consumeAttempts += candidates.size();
    std::vector<GroupId> &consuming = consumingScratch;
    consuming.clear();
    for (GroupId gid : candidates) {
        auto it = groups.find(gid);
        if (it != groups.end() && it->second.canConsume(message.tpl))
            consuming.push_back(gid);
    }

    auto doDecisive = [this, &message, &view, &events](GroupId gid) {
        AutomatonGroup &group = groups.at(gid);
        bool ok =
            group.consume(message.tpl, message.record, message.time);
        CS_ASSERT(ok, "decisive consumption failed after canConsume");
        if (tracer != nullptr)
            tracer->annotate(gid, message.time,
                             obs::ConsumeAnnotation::Decisive);
        applyDecisiveIdUpdate(gid, view);
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
                rank.emplace_back(groups.at(gids[i]).history().size(), i);
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
            auto set_it = idsets.find(groupToSet.at(gid));
            if (set_it != idsets.end())
                pooled.unionWith(set_it->second.ids);
        }
        pooled.insert(view);
        std::uint64_t set_id = findOrCreateIdSet(pooled.values());
        std::vector<GroupId> &members = idsets.at(set_id).groupIds;
        members.reserve(members.size() + gids.size());
        for (GroupId gid : gids) {
            GroupId clone_id = nextGroupId++;
            AutomatonGroup &clone = insertGroup(clone_id);
            AutomatonGroup &source = groups.at(gid);
            source.cloneInto(clone, clone_id, message.tpl);
            bool ok = clone.consume(message.tpl, message.record,
                                    message.time);
            CS_ASSERT(ok, "clone consumption failed after canConsume");
            clone.setRivalSet(rival_set);
            source.addChild(clone_id);
            members.push_back(clone_id);
            relate(clone_id, set_id);
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
                if (groups.at(gid).history().size() >
                    groups.at(best).history().size()) {
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
            AutomatonGroup &fresh = insertGroup(gid);
            fresh.reset(gid, starters);
            ++counters.recoveredNewSequence;
            bool ok = fresh.consume(message.tpl, message.record,
                                    message.time);
            CS_ASSERT(ok, "fresh group failed to consume");
            registerGroup(gid, view);
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
                    auto it = groups.find(gid);
                    if (it != groups.end() &&
                        it->second.canConsume(message.tpl)) {
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
            auto it = groups.find(gid);
            if (it == groups.end())
                continue;
            std::vector<AutomatonGroup::RepairedEdge> &repaired =
                repairedScratch;
            repaired.clear();
            if (it->second.consumeWithRepair(message.tpl, message.record,
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
                applyDecisiveIdUpdate(gid, view);
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
                                   common::SimTime now,
                                   double timeout) const
{
    auto recent = [now, timeout](const AutomatonGroup &g) {
        return now - g.lastActivity() <= timeout;
    };

    auto parent_it = groups.find(group.parent());
    if (parent_it != groups.end() && recent(parent_it->second))
        return true;

    std::vector<GroupId> descendants;
    collectDescendants(group.id(), descendants);
    for (GroupId gid : descendants) {
        if (recent(groups.at(gid)))
            return true;
    }

    if (group.rivalSet() != 0) {
        for (const auto &[gid, other] : groups) {
            if (gid != group.id() &&
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
    // Walk the live map directly: the loop erases at most the group it
    // stands on and creates none, so advancing first visits exactly
    // the groups that were live when the sweep began.
    for (auto it = groups.begin(); it != groups.end();) {
        const GroupId gid = it->first;
        auto current = it++;
        AutomatonGroup &group = current->second;
        double timeout = resolver(group.candidateTaskNames());
        maxResolvedTimeout = std::max(maxResolvedTimeout, timeout);
        if (group.zombie()) {
            // Zombies linger to absorb late messages, then fade.
            if (now - group.lastActivity() > 3.0 * maxResolvedTimeout)
                eraseGroup(gid);
            continue;
        }
        if (now - group.lastActivity() <= timeout)
            continue;
        if (config.timeoutSuppression && lineageCovered(group, now,
                                                        timeout)) {
            ++counters.timeoutsSuppressed;
            eraseGroup(gid);
            continue;
        }
        ++counters.timeoutsReported;
        traceEnd(group, now, obs::SpanEnd::TimedOut);
        events.push_back(makeEvent(CheckEventKind::Timeout, group, now));
        if (config.zombieAbsorption)
            group.markZombie();
        else
            eraseGroup(gid);
    }
    return events;
}

std::vector<CheckEvent>
InterleavedChecker::shedToCap(std::size_t cap, common::SimTime now)
{
    std::vector<CheckEvent> events;
    traceNow = now;
    if (groups.size() <= cap)
        return events;

    // Eviction order: zombies first (already reported; pure state),
    // then least-recently-active. Ties fall back to the older group
    // id, which is deterministic.
    std::vector<GroupId> order;
    order.reserve(groups.size());
    for (const auto &[gid, group] : groups)
        order.push_back(gid);
    std::sort(order.begin(), order.end(),
              [this](GroupId a, GroupId b) {
                  const AutomatonGroup &ga = groups.at(a);
                  const AutomatonGroup &gb = groups.at(b);
                  if (ga.zombie() != gb.zombie())
                      return ga.zombie();
                  if (ga.lastActivity() != gb.lastActivity())
                      return ga.lastActivity() < gb.lastActivity();
                  return a < b;
              });

    std::size_t to_shed = groups.size() - cap;
    for (std::size_t i = 0; i < to_shed && i < order.size(); ++i) {
        auto it = groups.find(order[i]);
        if (it == groups.end())
            continue;
        ++counters.groupsShed;
        traceEnd(it->second, now, obs::SpanEnd::Shed);
        events.push_back(
            makeEvent(CheckEventKind::Degraded, it->second, now));
        eraseGroup(order[i]);
    }
    return events;
}

std::vector<CheckEvent>
InterleavedChecker::finish(common::SimTime now)
{
    std::vector<CheckEvent> events;
    traceNow = now;
    std::vector<GroupId> snapshot;
    for (const auto &[gid, group] : groups)
        snapshot.push_back(gid);
    for (GroupId gid : snapshot) {
        auto it = groups.find(gid);
        if (it == groups.end())
            continue;
        if (!it->second.zombie()) {
            traceEnd(it->second, now, obs::SpanEnd::EndOfStream);
            events.push_back(makeEvent(CheckEventKind::Timeout,
                                       it->second, now));
        }
        eraseGroup(gid);
    }
    idsets.clear();
    groupToSet.clear();
    postings.clear();
    setsByContents.clear();
    return events;
}

const std::vector<std::uint64_t> *
InterleavedChecker::postingsFor(IdToken token) const
{
    auto it = postings.find(token);
    return it == postings.end() ? nullptr : &it->second;
}

bool
InterleavedChecker::indexConsistent() const
{
    // Every live set's tokens each carry exactly one posting entry…
    std::size_t expected_postings = 0;
    for (const auto &[set_id, entry] : idsets) {
        expected_postings += entry.ids.size();
        for (IdToken token : entry.ids.values()) {
            auto it = postings.find(token);
            if (it == postings.end())
                return false;
            if (std::count(it->second.begin(), it->second.end(),
                           set_id) != 1) {
                return false;
            }
        }
        // …the contents map knows the set…
        auto cit = setsByContents.find(entry.ids.values());
        if (cit == setsByContents.end() ||
            std::count(cit->second.begin(), cit->second.end(),
                       set_id) != 1) {
            return false;
        }
        // …and every member group points back at the set.
        for (GroupId gid : entry.groupIds) {
            if (!groups.count(gid))
                return false;
            auto git = groupToSet.find(gid);
            if (git == groupToSet.end() || git->second != set_id)
                return false;
        }
    }
    // …and no posting or contents entry points at a dead set.
    std::size_t actual_postings = 0;
    for (const auto &[token, list] : postings) {
        if (list.empty())
            return false;
        actual_postings += list.size();
        for (std::uint64_t set_id : list) {
            auto it = idsets.find(set_id);
            if (it == idsets.end() || !it->second.ids.contains(token))
                return false;
        }
    }
    if (actual_postings != expected_postings)
        return false;
    std::size_t contents_ids = 0;
    for (const auto &[contents, ids] : setsByContents) {
        if (ids.empty() || !std::is_sorted(ids.begin(), ids.end()))
            return false;
        contents_ids += ids.size();
        for (std::uint64_t set_id : ids) {
            auto it = idsets.find(set_id);
            if (it == idsets.end() ||
                it->second.ids.values() != contents) {
                return false;
            }
        }
    }
    if (contents_ids != idsets.size())
        return false;
    // Every group is reachable from its set.
    for (const auto &[gid, set_id] : groupToSet) {
        auto it = idsets.find(set_id);
        if (it == idsets.end())
            return false;
        const auto &members = it->second.groupIds;
        if (std::count(members.begin(), members.end(), gid) != 1)
            return false;
    }
    return groupToSet.size() == groups.size();
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
    std::vector<GroupId> order;
    order.reserve(groups.size());
    for (const auto &[gid, group] : groups)
        order.push_back(gid);
    std::sort(order.begin(), order.end(),
              [this](GroupId a, GroupId b) {
                  const AutomatonGroup &ga = groups.at(a);
                  const AutomatonGroup &gb = groups.at(b);
                  if (ga.zombie() != gb.zombie())
                      return ga.zombie();
                  if (ga.lastActivity() != gb.lastActivity())
                      return ga.lastActivity() < gb.lastActivity();
                  return a < b;
              });

    for (GroupId gid : order) {
        if (retained <= max_bytes || groups.size() <= 1)
            break;
        auto it = groups.find(gid);
        if (it == groups.end())
            continue;
        std::size_t group_bytes = it->second.approxRetainedBytes();
        ++counters.groupsShed;
        traceEnd(it->second, now, obs::SpanEnd::Shed);
        events.push_back(
            makeEvent(CheckEventKind::Degraded, it->second, now));
        eraseGroup(gid);
        retained -= std::min(retained, group_bytes);
    }
    return events;
}

std::size_t
InterleavedChecker::approxRetainedBytes() const
{
    // Bookkeeping overhead constants are rough node-size guesses; the
    // point is a deterministic, monotone measure over persisted state,
    // not byte-exact accounting.
    std::size_t bytes = 0;
    for (const auto &[gid, group] : groups)
        bytes += group.approxRetainedBytes() + 48;
    for (const auto &[set_id, entry] : idsets) {
        // x2 on tokens: the postings and contents maps mirror every
        // live set's token list.
        bytes += 2 * entry.ids.size() * sizeof(IdToken) +
                 entry.groupIds.size() * sizeof(GroupId) + 96;
    }
    bytes += groupToSet.size() * 48;
    for (const auto &[name, edges] : removalCounts)
        bytes += name.size() + edges.size() * 24 + 64;
    return bytes;
}

void
InterleavedChecker::saveState(common::BinWriter &out) const
{
    out.writeU64(counters.messages);
    out.writeU64(counters.decisive);
    out.writeU64(counters.ambiguous);
    out.writeU64(counters.recoveredPassUnknown);
    out.writeU64(counters.recoveredNewSequence);
    out.writeU64(counters.recoveredOtherSet);
    out.writeU64(counters.recoveredFalseDependency);
    out.writeU64(counters.unmatched);
    out.writeU64(counters.errorsReported);
    out.writeU64(counters.timeoutsReported);
    out.writeU64(counters.timeoutsSuppressed);
    out.writeU64(counters.latencyAnomalies);
    out.writeU64(counters.groupsShed);
    out.writeU64(counters.accepted);
    out.writeU64(counters.consumeAttempts);

    out.writeU64(groups.size());
    for (const auto &[gid, group] : groups)
        group.saveState(out, automatonSet);

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

    out.writeU64(idsets.size());
    for (const auto &[set_id, entry] : idsets) {
        out.writeU64(set_id);
        out.writeU32Vector(entry.ids.values());
        out.writeU64Vector(entry.groupIds);
    }

    out.writeU64(groupToSet.size());
    for (const auto &[gid, set_id] : groupToSet) {
        out.writeU64(gid);
        out.writeU64(set_id);
    }

    out.writeU64(nextGroupId);
    out.writeU64(nextIdSetId);
    out.writeU64(nextRivalSet);
    out.writeF64(maxResolvedTimeout);
}

bool
InterleavedChecker::restoreState(common::BinReader &in)
{
    groups.clear();
    removalCounts.clear();
    idsets.clear();
    groupToSet.clear();
    postings.clear();
    setsByContents.clear();
    spareGroups.clear();
    spareIdSets.clear();
    spareRelations.clear();
    sparePostings.clear();
    spareContents.clear();

    counters = CheckerStats{};
    counters.messages = in.readU64();
    counters.decisive = in.readU64();
    counters.ambiguous = in.readU64();
    counters.recoveredPassUnknown = in.readU64();
    counters.recoveredNewSequence = in.readU64();
    counters.recoveredOtherSet = in.readU64();
    counters.recoveredFalseDependency = in.readU64();
    counters.unmatched = in.readU64();
    counters.errorsReported = in.readU64();
    counters.timeoutsReported = in.readU64();
    counters.timeoutsSuppressed = in.readU64();
    counters.latencyAnomalies = in.readU64();
    counters.groupsShed = in.readU64();
    counters.accepted = in.readU64();
    counters.consumeAttempts = in.readU64();

    std::uint64_t group_count = in.readU64();
    if (!in.ok())
        return false;
    for (std::uint64_t i = 0; i < group_count; ++i) {
        AutomatonGroup group;
        if (!group.restoreState(in, automatonSet))
            return false;
        GroupId gid = group.id();
        if (!groups.emplace(gid, std::move(group)).second) {
            in.fail();
            return false;
        }
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
        if (!in.ok())
            return false;
        IdSetEntry entry;
        entry.ids = IdentifierSet(tokens);
        entry.groupIds = std::move(members);
        auto [pos, inserted] = idsets.emplace(set_id, std::move(entry));
        if (!inserted) {
            in.fail();
            return false;
        }
        // Rebuild the derived routing index. Posting lists fill in
        // ascending set-id order (map iteration), which may differ
        // from the incremental insertion order of the live run —
        // selection sorts candidates by set id, so the difference is
        // unobservable.
        indexAddSet(set_id, pos->second);
    }

    std::uint64_t relation_count = in.readU64();
    if (!in.ok())
        return false;
    for (std::uint64_t i = 0; i < relation_count; ++i) {
        GroupId gid = in.readU64();
        std::uint64_t set_id = in.readU64();
        if (!in.ok() || !groupToSet.emplace(gid, set_id).second) {
            in.fail();
            return false;
        }
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
    for (const auto &[token, sets] : postings)
        bound = std::max(bound, static_cast<std::size_t>(token) + 1);
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
    if (!groups.empty() && groups.rbegin()->first >= nextGroupId)
        return false;
    if (!idsets.empty() && idsets.rbegin()->first >= nextIdSetId)
        return false;
    for (const auto &[gid, group] : groups) {
        if (group.rivalSet() >= nextRivalSet)
            return false;
    }
    return true;
}

} // namespace cloudseer::core
