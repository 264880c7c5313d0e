#include "core/automaton/task_automaton.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace cloudseer::core {

TaskAutomaton::TaskAutomaton(std::string task_name,
                             std::vector<EventNode> events,
                             std::vector<DependencyEdge> edges)
    : taskName(std::move(task_name)),
      eventNodes(std::move(events)),
      edgeList(std::move(edges))
{
    predList.resize(eventNodes.size());
    succList.resize(eventNodes.size());
    for (const DependencyEdge &edge : edgeList) {
        CS_ASSERT(edge.from >= 0 &&
                      edge.from < static_cast<int>(eventNodes.size()) &&
                      edge.to >= 0 &&
                      edge.to < static_cast<int>(eventNodes.size()),
                  "edge endpoint out of range");
        succList[static_cast<std::size_t>(edge.from)].push_back(edge.to);
        predList[static_cast<std::size_t>(edge.to)].push_back(edge.from);
    }
    for (std::size_t i = 0; i < eventNodes.size(); ++i) {
        if (predList[i].empty())
            initials.push_back(static_cast<int>(i));
        if (succList[i].empty())
            finals.push_back(static_cast<int>(i));
    }

    // The per-template index: event ids sorted by (template,
    // occurrence, id), one run per template. Algorithm 1's lookup takes
    // the first event of a run that is still pending.
    std::size_t templates = 0;
    for (const EventNode &node : eventNodes) {
        if (node.tpl != logging::kInvalidTemplate)
            templates = std::max<std::size_t>(templates, node.tpl + 1);
    }
    templateOffsets.assign(templates + 1, 0);
    for (std::size_t i = 0; i < eventNodes.size(); ++i) {
        const logging::TemplateId tpl = eventNodes[i].tpl;
        if (tpl == logging::kInvalidTemplate)
            continue;
        templateEvents.push_back(static_cast<int>(i));
        ++templateOffsets[tpl + 1];
    }
    std::partial_sum(templateOffsets.begin(), templateOffsets.end(),
                     templateOffsets.begin());
    std::sort(templateEvents.begin(), templateEvents.end(),
              [this](int a, int b) {
                  const EventNode &x = eventNodes[static_cast<std::size_t>(a)];
                  const EventNode &y = eventNodes[static_cast<std::size_t>(b)];
                  if (x.tpl != y.tpl)
                      return x.tpl < y.tpl;
                  return x.occurrence != y.occurrence
                             ? x.occurrence < y.occurrence
                             : a < b;
              });
}

const EventNode &
TaskAutomaton::event(int id) const
{
    CS_ASSERT(id >= 0 && id < static_cast<int>(eventNodes.size()),
              "event id out of range");
    return eventNodes[static_cast<std::size_t>(id)];
}

const std::vector<int> &
TaskAutomaton::preds(int id) const
{
    CS_ASSERT(id >= 0 && id < static_cast<int>(predList.size()),
              "event id out of range");
    return predList[static_cast<std::size_t>(id)];
}

const std::vector<int> &
TaskAutomaton::succs(int id) const
{
    CS_ASSERT(id >= 0 && id < static_cast<int>(succList.size()),
              "event id out of range");
    return succList[static_cast<std::size_t>(id)];
}

std::vector<int>
TaskAutomaton::forkStates() const
{
    std::vector<int> out;
    for (std::size_t i = 0; i < succList.size(); ++i) {
        if (succList[i].size() > 1)
            out.push_back(static_cast<int>(i));
    }
    return out;
}

std::vector<int>
TaskAutomaton::joinStates() const
{
    std::vector<int> out;
    for (std::size_t i = 0; i < predList.size(); ++i) {
        if (predList[i].size() > 1)
            out.push_back(static_cast<int>(i));
    }
    return out;
}

std::string
TaskAutomaton::toDot(const logging::TemplateCatalog &catalog) const
{
    std::string out = "digraph \"" + taskName + "\" {\n";
    out += "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
    for (std::size_t i = 0; i < eventNodes.size(); ++i) {
        std::string label = catalog.label(eventNodes[i].tpl);
        // Escape double quotes for graphviz.
        std::string escaped;
        for (char c : label) {
            if (c == '"')
                escaped += "\\\"";
            else
                escaped.push_back(c);
        }
        if (eventNodes[i].occurrence > 0) {
            escaped += " (#" +
                       std::to_string(eventNodes[i].occurrence + 1) + ")";
        }
        out += "  e" + std::to_string(i) + " [label=\"" + escaped +
               "\"];\n";
    }
    for (const DependencyEdge &edge : edgeList) {
        out += "  e" + std::to_string(edge.from) + " -> e" +
               std::to_string(edge.to);
        if (edge.strong)
            out += " [style=bold]";
        out += ";\n";
    }
    out += "}\n";
    return out;
}

bool
TaskAutomaton::sameStructure(const TaskAutomaton &other) const
{
    if (eventNodes.size() != other.eventNodes.size() ||
        edgeList.size() != other.edgeList.size()) {
        return false;
    }
    for (std::size_t i = 0; i < eventNodes.size(); ++i) {
        if (eventNodes[i].tpl != other.eventNodes[i].tpl ||
            eventNodes[i].occurrence != other.eventNodes[i].occurrence) {
            return false;
        }
    }
    // Edge order is canonical (sorted by the builder), so compare flat.
    for (std::size_t i = 0; i < edgeList.size(); ++i) {
        if (!(edgeList[i] == other.edgeList[i]))
            return false;
    }
    return true;
}

} // namespace cloudseer::core
