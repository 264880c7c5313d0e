/**
 * @file
 * The task automaton (paper §3.3) — CloudSeer's workflow specification.
 *
 * Implementation model: the septuple (Q, Σ, Δ, q0, F, Qf, Qj) is
 * realised as a transitively-reduced DAG over *event nodes*, where an
 * event node is the k-th occurrence of a message template within one
 * task execution. A state of the paper's automaton corresponds to "this
 * event has been consumed"; fork states are nodes with out-degree > 1,
 * join states nodes with in-degree > 1. The bounded self-loop trick the
 * paper uses to let a fork state absorb its concurrent successors is
 * subsumed by token semantics in AutomatonInstance: an instance's
 * current state set is the frontier of consumed events, matching the
 * {q3, q5}-style presentation of the paper's Table 1.
 */

#ifndef CLOUDSEER_CORE_AUTOMATON_TASK_AUTOMATON_HPP
#define CLOUDSEER_CORE_AUTOMATON_TASK_AUTOMATON_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "logging/template_catalog.hpp"

namespace cloudseer::core {

/** One node of the workflow DAG: an occurrence of a template. */
struct EventNode
{
    logging::TemplateId tpl = logging::kInvalidTemplate;
    int occurrence = 0; ///< 0-based occurrence index within an execution
};

/** An edge of the workflow DAG, by event index. */
struct DependencyEdge
{
    int from = 0;
    int to = 0;
    bool strong = false; ///< always-immediately-adjacent in training

    bool operator==(const DependencyEdge &other) const = default;
};

/**
 * Immutable workflow specification for one task. Built by the offline
 * modeling stage; shared (by pointer) among all checking instances.
 */
class TaskAutomaton
{
  public:
    /**
     * @param task_name Task this automaton models ("boot", ...).
     * @param events    Event nodes; index = event id.
     * @param edges     Transitively-reduced dependency edges.
     */
    TaskAutomaton(std::string task_name, std::vector<EventNode> events,
                  std::vector<DependencyEdge> edges);

    /** Task name. */
    const std::string &name() const { return taskName; }

    /** Number of event nodes (the paper's "Msgs" column, Table 2). */
    std::size_t eventCount() const { return eventNodes.size(); }

    /** Number of edges (the paper's "Trans" column, Table 2). */
    std::size_t edgeCount() const { return edgeList.size(); }

    /** Event node by id. */
    const EventNode &event(int id) const;

    /** Direct predecessors of an event. */
    const std::vector<int> &preds(int id) const;

    /** Direct successors of an event. */
    const std::vector<int> &succs(int id) const;

    /** All edges. */
    const std::vector<DependencyEdge> &edges() const { return edgeList; }

    /** Events with no predecessors (enabled in a fresh instance). */
    const std::vector<int> &initialEvents() const { return initials; }

    /** Events with no successors (all must fire before acceptance). */
    const std::vector<int> &finalEvents() const { return finals; }

    /** Fork states: events with out-degree > 1 (the paper's Qf). */
    std::vector<int> forkStates() const;

    /** Join states: events with in-degree > 1 (the paper's Qj). */
    std::vector<int> joinStates() const;

    /** True iff the template is in this automaton's input set Σ. */
    bool containsTemplate(logging::TemplateId tpl) const
    {
        return !eventsForTemplate(tpl).empty();
    }

    /**
     * Event ids for a template, ordered by (occurrence, event id); empty
     * when the template is not in Σ. A view of the per-template index,
     * valid as long as the automaton.
     */
    std::span<const int>
    eventsForTemplate(logging::TemplateId tpl) const
    {
        if (std::size_t{tpl} + 1 >= templateOffsets.size())
            return {};
        const std::uint32_t first = templateOffsets[tpl];
        return {templateEvents.data() + first,
                templateOffsets[tpl + 1] - first};
    }

    /**
     * Algorithm 1's lookup of "the next unconsumed occurrence of tpl":
     * the first event of tpl's run whose flag in `consumed` (one flag
     * per event, by id) is clear — the lowest pending occurrence, ties
     * to the lowest id — or -1 when none is pending.
     */
    int
    nextPendingEvent(logging::TemplateId tpl, const char *consumed) const
    {
        for (int event : eventsForTemplate(tpl)) {
            if (!consumed[event])
                return event;
        }
        return -1;
    }

    /** Graphviz rendering for docs and the mining-explorer example. */
    std::string toDot(const logging::TemplateCatalog &catalog) const;

    /** Structural equality (used by modeling-convergence loops). */
    bool sameStructure(const TaskAutomaton &other) const;

  private:
    std::string taskName;
    std::vector<EventNode> eventNodes;
    std::vector<DependencyEdge> edgeList;
    std::vector<std::vector<int>> predList;
    std::vector<std::vector<int>> succList;
    std::vector<int> initials;
    std::vector<int> finals;
    /**
     * Per-template event index, built once by the constructor (the
     * automaton is immutable, so it never goes stale). TemplateIds are
     * dense catalog indices: template t's events are
     * templateEvents[templateOffsets[t], templateOffsets[t + 1]), in
     * (occurrence, id) order. templateOffsets has one entry per
     * template up to the largest in Σ, plus one; kInvalidTemplate is
     * never indexed.
     */
    std::vector<std::uint32_t> templateOffsets;
    std::vector<int> templateEvents;
};

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_AUTOMATON_TASK_AUTOMATON_HPP
