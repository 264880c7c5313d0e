/**
 * @file
 * Algorithm 2 (paper §4): checking interleaved log sequences.
 *
 * The checker maintains the paper's three global structures — the
 * identifier sets I, the automaton groups G, and the relation R
 * between them — and routes each incoming message to the group(s)
 * whose identifier set shares the most identifiers with it. Three
 * outcomes per message: decisive consumption (case 1), brute-force
 * hypothesis forking (case 2), or divergence recovery (case 3) with
 * the paper's four prioritized heuristics. The error-message and
 * timeout criteria turn divergences and silences into reports.
 *
 * Additions documented in DESIGN.md §4: explicit lineage links between
 * forked hypotheses make the paper's "remove the other possibilities"
 * pruning deterministic, and timed-out groups whose lineage is still
 * progressing are pruned silently instead of reported.
 *
 * Routing index (DESIGN.md §9): the paper's set selection scans every
 * live identifier set per message. With `routingIndex` on (default)
 * the checker instead maintains an inverted index from identifier
 * token to the id-sets containing it, so selection touches only the
 * sets actually sharing an identifier with the message — sublinear in
 * live groups, and bit-identical to the scan in every report.
 */

#ifndef CLOUDSEER_CORE_CHECKER_INTERLEAVED_CHECKER_HPP
#define CLOUDSEER_CORE_CHECKER_INTERLEAVED_CHECKER_HPP

#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/binio.hpp"
#include "common/time_util.hpp"
#include "core/automaton/refinement.hpp"
#include "core/checker/check_types.hpp"
#include "core/checker/slot_table.hpp"
#include "core/mining/latency_profile.hpp"
#include "obs/trace.hpp"

namespace cloudseer::core {

/** Feature toggles; each maps to an ablation in DESIGN.md §6. */
struct CheckerConfig
{
    /** Route by identifier sets (off = brute-force every group). */
    bool identifierRouting = true;

    /**
     * Serve set selection from the inverted token→id-set index
     * instead of the paper's linear scan over all live sets. Off is
     * the reference scan path — behaviourally identical (the
     * differential test pins report sequences bit-equal), only
     * slower.
     */
    bool routingIndex = true;

    /** Tie-break equal overlaps by least symmetric difference. */
    bool tieBreakLeastDifference = true;

    /** Collapse equivalent groups under one identifier set. */
    bool equivalentGroupDedup = true;

    /** Recovery (d): remove false dependencies on the fly. */
    bool falseDependencyRemoval = true;

    /** Prune (don't report) timed-out groups whose lineage advanced. */
    bool timeoutSuppression = true;

    /** Keep reported-timeout groups as silent absorbers of late
     *  messages (reduces follow-on false positives from delays). */
    bool zombieAbsorption = true;

    /**
     * Upper bound on the hypotheses forked by one ambiguous message
     * (Algorithm 2 case 2). Unbounded forking is exponential when
     * identifiers cannot separate sequences at all; the cap keeps the
     * checker online at the cost of occasionally dropping the correct
     * hypothesis (surfacing as a checking inaccuracy, like the
     * paper's). seer-lint's SL005 pass checks mined models against
     * this cap before deployment.
     */
    std::size_t maxForkFanout = kDefaultMaxForkFanout;

    /**
     * Seed for the random-selection heuristic among equivalents. The
     * pick is a pure hash of (seed, record id, draw ordinal) — no
     * generator state survives between messages — so a checker that
     * sees the same message over the same candidate pool makes the
     * same choice: one restored from a checkpoint draws exactly as
     * the uninterrupted one, with no generator state to persist.
     */
    std::uint64_t seed = 42;
};

/**
 * Order-sensitive FNV-1a fingerprint of an automaton vector (names,
 * events, edges). A vault checkpoint stores the fingerprint of the
 * models it was taken against; restore refuses a mismatch, because
 * serialised instance state indexes into these exact automata.
 */
std::uint64_t
modelFingerprint(const std::vector<const TaskAutomaton *> &automata);

/** The online checking engine. */
class InterleavedChecker
{
  public:
    /**
     * @param config   Feature toggles.
     * @param automata Global automaton set M; must outlive the checker.
     */
    InterleavedChecker(const CheckerConfig &config,
                       std::vector<const TaskAutomaton *> automata);

    /**
     * Process one message (Algorithm 2). Returns any accepted or
     * erroneous instances this message resolved.
     */
    std::vector<CheckEvent> feed(const CheckMessage &message);

    /**
     * Resolves the timeout for a group from the task names it still
     * tracks (per-task timeouts from the estimator, or a constant).
     */
    using TimeoutResolver =
        std::function<double(const std::vector<std::string> &)>;

    /**
     * Timeout criterion: report groups that consumed nothing within
     * `timeout` seconds before `now`.
     */
    std::vector<CheckEvent> sweepTimeouts(common::SimTime now,
                                          double timeout);

    /** Timeout criterion with a per-group timeout resolver. */
    std::vector<CheckEvent>
    sweepTimeouts(common::SimTime now,
                  const TimeoutResolver &resolver);

    /**
     * Load shedding: evict groups until at most `cap` remain, each
     * eviction emitting a Degraded event so no state vanishes
     * silently. Zombies go first (they were already reported), then
     * the groups idle the longest; the most recently active state is
     * kept. Degraded events are operator health signals — a shed
     * group's verdict is *unknown*, so they must never be scored as
     * problem reports.
     */
    std::vector<CheckEvent> shedToCap(std::size_t cap,
                                      common::SimTime now);

    /**
     * Memory ceiling (seer-vault, DESIGN.md §13): evict
     * least-recently-active groups until approxRetainedBytes() fits
     * under `max_bytes`, with the same order, Degraded reporting, and
     * counters as shedToCap — the two shedding paths are one contract.
     * At least one group is always kept, so a ceiling below a single
     * group's footprint degrades to "keep only the newest state"
     * rather than thrashing. No-op when max_bytes is 0 (no ceiling).
     */
    std::vector<CheckEvent> shedToMemory(std::size_t max_bytes,
                                         common::SimTime now);

    /**
     * Deterministic estimate of checker state size in bytes, computed
     * only from state that saveState persists — mutable caches (group
     * signatures) are excluded so a restored checker and the
     * uninterrupted one make identical eviction decisions.
     */
    std::size_t approxRetainedBytes() const;

    /**
     * Serialise the full checking state (seer-vault, DESIGN.md §13):
     * counters, groups, removal tallies, identifier sets, the
     * group↔set relation, id allocators, the timeout horizon, and the
     * RNG. The routing index (postings, contents map) is derived state
     * and rebuilt on restore; the automaton set and config are the
     * caller's to re-supply.
     */
    void saveState(common::BinWriter &out) const;

    /**
     * Overwrite this checker from a saveState image taken against an
     * identical automaton vector (guard with modelFingerprint before
     * calling). An image whose groups, identifier sets and relations
     * do not name each other, or whose next ids are not fresh, is
     * refused. On failure the stream is marked bad and the checker is
     * left cleared — construct a fresh one rather than continuing.
     */
    bool restoreState(common::BinReader &in);

    /**
     * Dependency-removal tallies accumulated by recovery (d) — the
     * input to refineFromRemovals (model-refinement feedback loop).
     */
    const RemovalCounts &dependencyRemovals() const
    {
        return removalCounts;
    }

    /**
     * End of stream: every remaining unaccepted group is reported as a
     * timeout (it never completed) and the state is cleared.
     */
    std::vector<CheckEvent> finish(common::SimTime now);

    /** Counters. */
    const CheckerStats &stats() const { return counters; }

    /** Groups currently tracked. */
    std::size_t activeGroups() const { return groupOrder.size(); }

    /** Identifier sets currently tracked. */
    std::size_t activeIdentifierSets() const { return setOrder.size(); }

    /**
     * Posting list of a token (id-set ids containing it), or nullptr
     * when no live set holds the token. Test/introspection surface of
     * the routing index.
     */
    const std::vector<std::uint64_t> *
    postingsFor(logging::IdToken token) const;

    /** Tokens currently carrying a non-empty posting list. */
    std::size_t postingTokens() const { return postingIndex.size(); }

    /**
     * Sizes of the slot pools and tables behind the live state. All
     * follow the live entry count (DESIGN.md §19), not the peak or the
     * ids handed out; a long run whose live work stays small keeps them
     * small. Test surface; not checker state.
     */
    struct SlotFootprint
    {
        std::size_t groupSlots = 0;   ///< group slots in allocated chunks
        std::size_t idSetSlots = 0;   ///< set slots in allocated chunks
        std::size_t postingSlots = 0; ///< posting slots in allocated chunks
        std::size_t spareSlots = 0;   ///< free slots in allocated chunks
        std::size_t groupOrderCapacity = 0;    ///< live-order entries
        std::size_t idSetOrderCapacity = 0;    ///< live-order entries
        std::size_t groupIndexCapacity = 0;    ///< id -> slot entries
        std::size_t idSetIndexCapacity = 0;    ///< id -> slot entries
        std::size_t postingIndexCapacity = 0;  ///< token -> slot entries
        std::size_t contentsIndexCapacity = 0; ///< contents -> slot entries
    };
    SlotFootprint slotFootprint() const;

    /**
     * Identifier sets visited by selection so far: every live set per
     * scan, every posting hit per indexed lookup. Counted work, exact
     * per input, so tests can pin routing complexity without a clock;
     * not a CheckerStats field, never checkpointed or exported.
     */
    std::uint64_t idSetsVisited() const { return idSetVisits; }

    /**
     * Full cross-check of the routing structures: every id-set token
     * appears in exactly one posting entry, no posting points at a
     * dead set, the contents map mirrors the live sets, and every
     * group↔set relation is bidirectional. O(state); test-only.
     */
    bool indexConsistent() const;

    /** One past the largest identifier token a live set holds (0 when
     *  none): a restore checks it against the interner it resolves
     *  tokens through. */
    std::size_t identifierTokenBound() const;

    /**
     * Attach an execution-lifecycle tracer (seer-scope, DESIGN.md
     * §11): one span per group from creation to its fate, annotated
     * with the Algorithm 2 outcome of every consumed message. Null
     * (the default) is the null sink — every hook below is a single
     * pointer test and the checker behaves bit-identically.
     */
    void setTracer(obs::ExecutionTracer *tracer_)
    {
        tracer = tracer_;
    }

    /**
     * Install the latency-anomaly criterion (seer-flight, DESIGN.md
     * §12): executions that accept logically but run over the mined
     * task-level budget are reported as LatencyAnomaly instead of
     * Accepted, with per-edge timings and the critical branch through
     * forks attached. Profiles are matched by task name; tasks without
     * a sampled profile stay exempt. An empty vector clears the
     * policy and restores bit-identical pre-flight behaviour.
     */
    void setLatencyPolicy(const std::vector<LatencyProfile> &profiles,
                          const LatencyCheckConfig &policy = {});

    /** True when a latency policy with at least one profile is set. */
    bool latencyPolicyActive() const { return !latencyProfiles.empty(); }

    /**
     * Kept for callers of the former seer-prove certified dispatch
     * (DESIGN.md §15); does nothing. The shortcuts the certificate
     * used to arm are identities whatever the template, so the checker
     * now takes them for every message and reads no certificate.
     */
    void setCertifiedTemplates(const std::vector<char> &) {}

  private:
    /** A live group and the identifier set it belongs to: the paper's
     *  relation R, folded into the group's slot. */
    struct GroupSlot
    {
        AutomatonGroup group;
        Slot set = kNoSlot;
    };

    /** A live identifier set and the groups it routes to. */
    struct IdSetSlot
    {
        std::uint64_t id = 0;
        IdentifierSet ids;
        std::vector<GroupId> groupIds;
        /** This set's key in contentsIndex (a hash of ids). */
        std::uint64_t contentsKey = 0;
    };

    /** Id and slot of a live group or set, for walks in id order. */
    using Ordered = LiveOrder::Entry;

    CheckerConfig config;
    std::vector<const TaskAutomaton *> automatonSet;
    std::vector<char> knownTemplates; // indexed by TemplateId

    /**
     * Recovery (b) memo, indexed by TemplateId: the automata whose
     * fresh instance can consume the template, in automatonSet order.
     * A fresh group built from exactly these equals a fresh group over
     * every automaton after its first consume(), which keeps exactly
     * the consuming instances in order.
     */
    std::vector<std::vector<const TaskAutomaton *>> startersByTemplate;
    CheckerStats counters;

    /** Record id of the message currently in feed(); the hash basis
     *  of the equivalence-class pick. */
    logging::RecordId currentRecord = 0;

    /** Per-feed draw ordinal (several pools can draw per message). */
    std::uint32_t pickSalt = 0;

    /** Whether a restored image's groups, identifier sets, relations
     *  and next ids fit together the way live state always does. */
    bool restoredStateConsistent() const;

    /** Drop every group, set, posting and removal tally. */
    void clearState();

    /** Pure deterministic pick: index into a pool of `pool_size`. */
    std::size_t equivalencePickIndex(std::size_t pool_size);

    // --- cross-message state in dense slots (DESIGN.md §19) ------------
    //
    // Groups, identifier sets and posting lists live in slot pools; a
    // retired slot keeps its buffers for the next occupant, within the
    // pool's trim bound. Group and set ids are handed out in ascending
    // order, so a new one always goes at the back of its LiveOrder,
    // which finds a slot by id and fixes the order of every walk that
    // reaches output (the sweep, finish, shed ties, rival lookups,
    // checkpoints, the scan path).

    SlotPool<GroupSlot> groupSlots;
    LiveOrder groupOrder; ///< live groups: id -> slot, ascending id

    SlotPool<IdSetSlot> setSlots;
    LiveOrder setOrder; ///< live sets: id -> slot, ascending id

    RemovalCounts removalCounts;

    /**
     * Inverted routing index: token -> posting slot, whose list holds
     * the ids of the sets containing the token in insertion order.
     * Maintained on set creation, in-place expansion, and retirement;
     * a list that drains leaves the index, so the table is sized to
     * the live tokens.
     */
    SlotIndex postingIndex;
    SlotPool<std::vector<std::uint64_t>> postingLists;

    /**
     * Exact-contents lookup for findOrCreateIdSet: a hash of each live
     * set's sorted tokens -> its slot. Every hit is confirmed against
     * the set's tokens; in-place expansion can transiently alias two
     * sets, and the scan semantics pick the lowest id among them.
     */
    SlotIndex contentsIndex;

    /** The live group `gid`, or null. */
    GroupSlot *
    findGroup(GroupId gid)
    {
        const Slot slot = groupOrder.find(gid);
        return slot == kNoSlot ? nullptr : &groupSlots[slot];
    }
    const GroupSlot *
    findGroup(GroupId gid) const
    {
        const Slot slot = groupOrder.find(gid);
        return slot == kNoSlot ? nullptr : &groupSlots[slot];
    }

    /** The live group `gid`, which must exist. */
    AutomatonGroup &groupAt(GroupId gid);
    const AutomatonGroup &groupAt(GroupId gid) const;

    /** The live set `set_id`, or null. */
    const IdSetSlot *
    findSet(std::uint64_t set_id) const
    {
        const Slot slot = setOrder.find(set_id);
        return slot == kNoSlot ? nullptr : &setSlots[slot];
    }

    /** Posting for `token` -> `set_id`. */
    void addPosting(logging::IdToken token, std::uint64_t set_id);

    /** A live group under `gid` (greater than every live id), in a
     *  reused slot when there is one (its contents are stale: the caller
     *  resets or clones into it). The reference stays valid while other
     *  groups are inserted. */
    GroupSlot &insertGroup(GroupId gid);

    std::uint64_t nextGroupId = 1;
    std::uint64_t nextIdSetId = 1;
    std::uint64_t nextRivalSet = 1;
    std::uint64_t idSetVisits = 0;

    bool templateKnown(logging::TemplateId tpl) const;

    /**
     * Identifier-set ids with the best overlap below the exclusive
     * bound (-1 = unbounded), ascending, into `selected`. `view` must
     * be sorted-unique (one dedup per message, done in feed).
     * `tie_break` applies the least-difference heuristic among equal
     * overlaps; recovery (c) retries without it so tie-break losers
     * get their chance before lower ranks. Dispatches to the indexed
     * or scan implementation per config.routingIndex; both return
     * identical selections.
     */
    void selectIdSets(const std::vector<logging::IdToken> &view,
                      int max_overlap_exclusive, int *overlap_out,
                      bool tie_break, std::vector<std::uint64_t> &selected);

    /** Reference implementation: linear scan over all live sets. */
    void selectIdSetsScan(const std::vector<logging::IdToken> &view,
                          int max_overlap_exclusive, int *overlap_out,
                          bool tie_break,
                          std::vector<std::uint64_t> &selected) const;

    /** Indexed implementation: posting-list accumulation. */
    void selectIdSetsIndexed(const std::vector<logging::IdToken> &view,
                             int max_overlap_exclusive, int *overlap_out,
                             bool tie_break,
                             std::vector<std::uint64_t> &selected);

    /** Candidate groups of the selected sets, deduped per config, into
     *  `out` (ascending). */
    void candidateGroups(const std::vector<std::uint64_t> &set_ids,
                         std::vector<GroupId> &out);

    /** Case 1 bookkeeping: expand or re-home the group's set. */
    void applyDecisiveIdUpdate(GroupSlot &owner,
                               const std::vector<logging::IdToken> &view);

    /**
     * Slot of the identifier set with the given contents, reusing an
     * existing identical set (the paper's I is a *set* of sets:
     * identical sets are one element, which is what lets the
     * equivalent-group heuristic collapse interchangeable groups).
     */
    Slot findOrCreateIdSet(const std::vector<logging::IdToken> &sorted_unique);

    // --- routing-index maintenance ------------------------------------

    /** Add a freshly created set to postings and the contents index. */
    void indexAddSet(Slot set);

    /** Remove a retiring set from postings and the contents index. */
    void indexRemoveSet(Slot set);

    /** Re-key a set in the contents index after its tokens changed. */
    void contentsRekey(Slot set);

    /** Give a brand-new group (already inserted) its identifier set. */
    void registerGroup(GroupSlot &entry,
                       const std::vector<logging::IdToken> &initial_ids);

    /** Retire a set no group belongs to any more. */
    void eraseSet(Slot set);

    /** Remove one group, and its set when no other group shares it. */
    void eraseGroup(GroupId group);

    /** eraseGroup for the live group in `slot`. */
    void eraseGroupAt(Slot slot);

    /** Collect the group and all its (live) descendants. */
    void collectDescendants(GroupId group,
                            std::vector<GroupId> &out) const;

    /** The paper's acceptance pruning, made deterministic by lineage. */
    void pruneLineageOnAccept(GroupId winner);

    /** True when a lineage-linked group consumed within the window. */
    bool lineageCovered(const AutomatonGroup &group, common::SimTime now,
                        double timeout);

    /** Fill shedScratch with the live groups in eviction order: zombies
     *  first, then least recently active, ties to the older id. */
    void orderForShedding();

    /** Largest timeout handed out so far (zombie-expiry horizon). */
    double maxResolvedTimeout = 0.0;

    /** Optional execution tracer (null = no tracing). */
    obs::ExecutionTracer *tracer = nullptr;

    /** Latency profiles by task name (empty = criterion off). */
    std::map<std::string, LatencyProfile> latencyProfiles;

    /** Budget rule applied to the mined quantiles. */
    LatencyCheckConfig latencyPolicy;

    /**
     * Fill the seer-flight fields of an acceptance event (timings,
     * budgets, critical path) from the accepting instance. Returns
     * true when the execution ran over its task-level budget.
     */
    bool annotateLatency(CheckEvent &event, const AutomatonGroup &group,
                         InstanceView instance) const;

    /**
     * Message-clock time of the current feed/sweep, so generic
     * teardown paths (eraseGroup) can stamp span ends without the
     * reason-specific call sites threading a time through.
     */
    common::SimTime traceNow = 0.0;

    /** Close a group's span (no-op when untraced or already closed). */
    void traceEnd(const AutomatonGroup &group, common::SimTime time,
                  obs::SpanEnd reason) const;

    /** Build a report for a live group. */
    CheckEvent makeEvent(CheckEventKind kind, const GroupSlot &entry,
                         common::SimTime time) const;

    /** Handle acceptance on a set of touched groups. */
    void harvestAcceptance(std::span<const GroupId> touched,
                           common::SimTime now,
                           std::vector<CheckEvent> &events);

    // --- per-message scratch (DESIGN.md §18) ---------------------------
    //
    // Reused across calls so a steady-state feed() allocates only for
    // state that outlives the message (new groups, new identifier
    // sets, reports). None of this is checker state: saveState never
    // writes it and nothing reads it across messages.

    /** feed()'s sorted-unique token view of the message. */
    std::vector<logging::IdToken> viewScratch;
    /** Output of the latest selectIdSets call. */
    std::vector<std::uint64_t> selectedScratch;
    /** Indexed selection: set id per posting hit, then sorted. */
    std::vector<std::uint64_t> hitScratch;
    /** Indexed selection: (set id, overlap), ascending set id. */
    std::vector<std::pair<std::uint64_t, int>> overlapScratch;
    /** Case 1/2 candidates; kept until recovery (d) reads them. */
    std::vector<GroupId> candidateScratch;
    /** Recovery (c) candidates of the current overlap level. */
    std::vector<GroupId> levelScratch;
    /** Candidates that can consume the message. */
    std::vector<GroupId> consumingScratch;
    /** Case 2: the hypotheses to fork, and their clones. */
    std::vector<GroupId> forkScratch;
    std::vector<GroupId> touchedScratch;
    /** Case 2 over the fan-out cap: (history length, position) per
     *  contender. */
    std::vector<std::pair<std::size_t, std::size_t>> forkRankScratch;

    /** candidateGroups: one live member of a set, with its state
     *  signature and its position in the member list. */
    struct ClassMember
    {
        std::string_view signature;
        std::size_t position = 0;
        GroupId gid = 0;
        bool zombie = false;
    };
    std::vector<ClassMember> memberScratch;
    /** candidateGroups: (first member position, run start) per class. */
    std::vector<std::pair<std::size_t, std::size_t>> classScratch;
    /** candidateGroups: the draw pool of one class. */
    std::vector<GroupId> poolScratch;

    /** pruneLineageOnAccept's removal set. */
    std::vector<GroupId> removalScratch;
    /** lineageCovered: the swept group's live descendants. */
    std::vector<GroupId> descendantScratch;
    /** shedToCap / shedToMemory: the eviction order. */
    std::vector<Ordered> shedScratch;
    /** applyDecisiveIdUpdate: tokens new to the expanded set. */
    std::vector<logging::IdToken> addedScratch;
    /** Contents of a set being created: a shared set's expanded copy
     *  (case 1) or the pooled set of a fork (case 2). */
    IdentifierSet contentsScratch;
    /** Recovery (d): edges removed by the current repair. */
    std::vector<AutomatonGroup::RepairedEdge> repairedScratch;

    /** Error-message criterion (paper §4, Problem Detection). */
    void applyErrorCriterion(const CheckMessage &message,
                             const std::vector<logging::IdToken> &view,
                             std::vector<CheckEvent> &events);
};

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_CHECKER_INTERLEAVED_CHECKER_HPP
