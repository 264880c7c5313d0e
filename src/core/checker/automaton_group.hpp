/**
 * @file
 * Automaton groups and Algorithm 1 (paper §4, "Checking Individual
 * Sequences").
 *
 * A group tracks one in-flight log sequence. It starts with an
 * instance of every task automaton that can consume the sequence's
 * first message and narrows, message by message, to the instances that
 * consumed everything so far. Consumption is transactional: if no
 * instance can take the message, the group is left untouched and the
 * caller handles the divergence (Algorithm 2's case 3).
 *
 * A group's instances live in one InstanceArena the group owns
 * (DESIGN.md §19). reset() and cloneInto() refill an existing group
 * in place, so a checker that recycles retired groups creates new
 * ones in buffers that are already the right size.
 */

#ifndef CLOUDSEER_CORE_CHECKER_AUTOMATON_GROUP_HPP
#define CLOUDSEER_CORE_CHECKER_AUTOMATON_GROUP_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/time_util.hpp"
#include "core/automaton/automaton_instance.hpp"
#include "core/checker/identifier_set.hpp"
#include "logging/log_record.hpp"

namespace cloudseer::core {

/** Stable group identifier. */
using GroupId = std::uint64_t;

/** Message labels kept for reports. */
struct ConsumedMessage
{
    logging::RecordId record = 0;
    logging::TemplateId tpl = logging::kInvalidTemplate;
    common::SimTime time = 0.0;
};

/**
 * One in-flight sequence hypothesis: a set of candidate automaton
 * instances plus bookkeeping for routing, lineage, and reporting.
 */
class AutomatonGroup
{
  public:
    /** Empty group (id 0, no instances); reset() or restoreState()
     *  fills it. */
    AutomatonGroup() = default;

    /**
     * Fresh group over the global automaton set M (Algorithm 1 lines
     * 2-3). Instances are created for every automaton; the first
     * consume() narrows them.
     */
    AutomatonGroup(GroupId id,
                   const std::vector<const TaskAutomaton *> &automata);

    /**
     * Make this group what the constructor would have made, reusing
     * every buffer it already holds.
     */
    void reset(GroupId id,
               const std::vector<const TaskAutomaton *> &automata);

    /** Group id. */
    GroupId id() const { return groupId; }

    /** True iff some instance can take the message (no mutation). */
    bool canConsume(logging::TemplateId tpl) const;

    /**
     * Algorithm 1: keep exactly the instances that consume the
     * message; drop the rest. Transactional: when no instance can
     * consume, the group is unchanged and false is returned.
     */
    bool consume(logging::TemplateId tpl, logging::RecordId record,
                 common::SimTime now);

    /** One dependency edge an instance dropped as false. */
    struct RepairedEdge
    {
        const TaskAutomaton *automaton = nullptr;
        int from = 0;
        int to = 0;
    };

    /**
     * Recovery (d): ask started instances to drop the false
     * dependencies blocking tpl, then consume it. Returns true on
     * success; untouched group on failure.
     *
     * @param repaired Receives the dropped edges when non-null (for
     *        the model-refinement feedback loop).
     */
    bool consumeWithRepair(logging::TemplateId tpl,
                           logging::RecordId record, common::SimTime now,
                           std::vector<RepairedEdge> *repaired = nullptr);

    /** Candidate instances still alive, in creation order. */
    InstanceRange instances() const { return InstanceRange(arena); }

    /** First accepting instance, or a null view. */
    InstanceView acceptingInstance() const;

    /** Messages consumed so far, oldest first. */
    const std::vector<ConsumedMessage> &history() const
    {
        return consumedMessages;
    }

    /** Time of the last consumed message. */
    common::SimTime lastActivity() const { return lastActivityTime; }

    /** Creation time (first message's time). */
    common::SimTime createdAt() const { return creationTime; }

    /**
     * Distinct candidate task names, in candidate order (for timeout
     * resolution and reports on non-accepted groups). Cached like the
     * state signature and rebuilt only after consumption narrows the
     * candidates, so the per-message timeout sweep reads it without
     * copying.
     */
    const std::vector<std::string> &candidateTaskNames() const;

    /**
     * Equivalence for the paper's random-selection heuristic: same
     * instance kinds in the same states.
     */
    bool equivalentTo(const AutomatonGroup &other) const;

    /**
     * Canonical state fingerprint: two groups compare equal under
     * equivalentTo() iff their signatures are byte-equal. Cached and
     * recomputed lazily after consumption, so the checker's
     * equivalence-class dedup hashes one string per group instead of
     * running pairwise instance-state comparisons. The encoding is
     * prefix-unambiguous (each instance's specification pointer fixes
     * its state-vector length), so string equality is exact, not a
     * hash.
     */
    const std::string &stateSignature() const;

    // --- lineage (Algorithm 2 case 2 bookkeeping) ---------------------

    /** The group this one was copied from (0 = root hypothesis). */
    GroupId parent() const { return parentId; }

    /** Groups copied from this one. */
    const std::vector<GroupId> &children() const { return childIds; }

    /** Ambiguity set this group belongs to (0 = none). */
    std::uint64_t rivalSet() const { return rivalSetId; }

    /** Set lineage links (checker-internal). */
    void setParent(GroupId parent) { parentId = parent; }
    void addChild(GroupId child) { childIds.push_back(child); }
    void setRivalSet(std::uint64_t set) { rivalSetId = set; }

    /** Zombie groups were already reported; they absorb, not report. */
    bool zombie() const { return isZombie; }
    void markZombie() { isZombie = true; }

    /** Deep copy with a new id (case-2 hypothesis forking). */
    AutomatonGroup cloneAs(GroupId new_id) const;

    /**
     * cloneAs into an existing group, overwriting it and reusing its
     * buffers: the clone is a child of this group with no children and
     * no ambiguity set of its own. Only the candidates that can consume
     * `next` are copied (the ones consuming it will keep), so a fork
     * never copies instances it is about to drop; the caller consumes
     * `next` into the clone right after.
     */
    void cloneInto(AutomatonGroup &target, GroupId new_id,
                   logging::TemplateId next) const;

    /**
     * Serialise the group (seer-vault, DESIGN.md §13). Each candidate
     * is written as an index into `automata` plus the instance's
     * mutable state; the signature cache is recomputed lazily after
     * restore, never persisted (it embeds raw specification pointers).
     */
    void
    saveState(common::BinWriter &out,
              const std::vector<const TaskAutomaton *> &automata) const;

    /**
     * Overwrite this group from a saveState image taken against the
     * same automaton vector (same order — the model fingerprint in the
     * checkpoint header guards this). False on any decode failure.
     */
    bool restoreState(common::BinReader &in,
                      const std::vector<const TaskAutomaton *> &automata);

    /**
     * Deterministic size estimate for the memory ceiling. Only counts
     * state that saveState persists, so live and restored checkers
     * agree on eviction decisions.
     */
    std::size_t approxRetainedBytes() const;

  private:
    /** cloneAs's copy of everything but the arena into `target`. */
    void copyAllButInstances(AutomatonGroup &target, GroupId new_id) const;

    GroupId groupId = 0;
    InstanceArena arena; ///< the candidate instances
    std::vector<ConsumedMessage> consumedMessages;
    mutable std::string signatureCache;
    mutable std::vector<std::string> taskNamesCache;
    common::SimTime lastActivityTime = 0.0;
    common::SimTime creationTime = 0.0;
    GroupId parentId = 0;
    std::vector<GroupId> childIds;
    std::uint64_t rivalSetId = 0;
    mutable bool signatureValid = false;
    mutable bool taskNamesValid = false;
    bool anyConsumed = false;
    bool isZombie = false;
};

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_CHECKER_AUTOMATON_GROUP_HPP
