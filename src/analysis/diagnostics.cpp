#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <sstream>

#include "common/string_util.hpp"

namespace cloudseer::analysis {

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Info: return "info";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "unknown";
}

const std::vector<DiagnosticInfo> &
diagnosticCatalog()
{
    static const std::vector<DiagnosticInfo> catalog = {
        {"SL001", Severity::Error, "fork/join imbalance",
         "Duplicate parallel edges double-count a join's branches "
         "(error); a join that merges some but not all branches of an "
         "upstream fork is improperly nested (warning). Either way the "
         "frontier-token semantics of Algorithm 1 no longer mirror the "
         "mined concurrency."},
        {"SL002", Severity::Error, "dead or orphan state",
         "An automaton with no events, or an event depending on "
         "itself, can never fire or accept (error). An event with no "
         "ordering at all (orphan), or a specification split into "
         "disconnected components, is usually a mining artifact "
         "(warning/info)."},
        {"SL003", Severity::Error, "dependency cycle (weak member)",
         "Dependency edges must form a DAG; a cycle makes every "
         "member state unreachable and the automaton unacceptable. "
         "This cycle contains at least one weak edge, so refinement "
         "could in principle break it — the model is still invalid."},
        {"SL004", Severity::Warning, "redundant dependency edge",
         "The edge is implied by another path, violating the "
         "transitive reduction DependencyMiner guarantees. Semantics "
         "are unchanged but the model is bloated and the miner (or a "
         "hand edit) is suspect."},
        {"SL005", Severity::Warning, "cross-automaton template collision",
         "A template shared by several task automata lets one message "
         "match groups of different tasks, firing Algorithm 2 case "
         "(2). The static per-interleaving fan-out bound (consumption "
         "sites across automata) is checked against the checker's "
         "hypothesis cap; above the cap, correct hypotheses can be "
         "dropped."},
        {"SL006", Severity::Warning, "unroutable template",
         "The template extracts no routable identifier (no UUID/IP "
         "placeholder), so its messages carry an empty identifier "
         "view: identifier-set selection cannot route them and every "
         "occurrence costs a recovery walk."},
        {"SL007", Severity::Error, "state-signature aliasing",
         "Two distinct states must never alias one routing signature: "
         "duplicate (template, occurrence) events in one automaton or "
         "duplicate task names make states indistinguishable (error); "
         "structurally identical automata under different names fork "
         "permanently ambiguous hypotheses (warning)."},
        {"SL008", Severity::Error, "timeout inconsistency",
         "A non-positive timeout reports every group instantly "
         "(error); a timeout below the largest quiet gap observed in "
         "correct executions reports every slow-but-correct run "
         "(warning)."},
        {"SL009", Severity::Error, "strong-dependency cycle",
         "A cycle built entirely of strong (always-adjacent) edges "
         "contradicts its own training evidence and survives the "
         "false-dependency refinement loop, which only weakens "
         "reorder-induced weak orderings."},
        {"SL010", Severity::Error, "latency profile mismatch",
         "A latency profile must describe the automaton it ships "
         "with: edge timings for edges the automaton does not have, "
         "or non-monotone quantiles (p50 > p95 > p99 > max), poison "
         "the online latency-anomaly criterion (error). A profile "
         "that covers only part of the dependency edges, or an "
         "automaton deployed with no profile at all, leaves "
         "transitions unbudgeted and silently unmonitored (warning)."},
        {"SL020", Severity::Warning, "ambiguous interleaving",
         "Two task automata can both consume a run of two or more "
         "shared templates back to back (a joint walk of the pairwise "
         "product), so one interleaved stream sustains rival "
         "hypotheses across several messages instead of resolving at "
         "the first divergence. When the templates on the joint run "
         "carry no instance identifier the rivals are provably "
         "inseparable (warning); with a UUID-class identifier the "
         "runtime identifier sets can still split them (info)."},
        {"SL021", Severity::Warning, "identifier-inseparable collision",
         "A template shared by several automata extracts no "
         "identifier at all, so Algorithm 2 cannot ever separate the "
         "executions its messages could belong to (warning). A shared "
         "template whose only identifiers are shared-class values "
         "such as node IPs routes, but the values repeat across "
         "concurrent executions on one node and do not disambiguate "
         "(info)."},
        {"SL022", Severity::Warning, "super-linear pending-set growth",
         "One directed path of an automaton consumes two or more "
         "inseparable shared templates, so every in-flight execution "
         "multiplies its rival fan-out at each such step: the "
         "worst-case pending-set size grows super-linearly in the "
         "number of concurrent executions (the product of the "
         "cross-automaton site counts bounds one execution's "
         "hypotheses)."},
        {"SL023", Severity::Warning, "dead-end divergence anchor",
         "A non-initial event's template also starts some automaton, "
         "so a message that diverges from its true group re-anchors "
         "as a fresh bogus execution (recovery (b)) that can never "
         "accept — a dead end that survives until timeout. Without an "
         "instance identifier the bogus group also captures follow-up "
         "messages (warning); with one it times out quietly (info)."},
    };
    return catalog;
}

const DiagnosticInfo *
diagnosticInfo(const std::string &id)
{
    for (const DiagnosticInfo &info : diagnosticCatalog()) {
        if (id == info.id)
            return &info;
    }
    return nullptr;
}

std::size_t
LintReport::count(Severity severity) const
{
    std::size_t n = 0;
    for (const Diagnostic &diagnostic : diagnostics) {
        if (diagnostic.severity == severity)
            ++n;
    }
    return n;
}

bool
LintReport::hasErrors() const
{
    return count(Severity::Error) > 0;
}

std::vector<const Diagnostic *>
LintReport::withId(const std::string &id) const
{
    std::vector<const Diagnostic *> out;
    for (const Diagnostic &diagnostic : diagnostics) {
        if (diagnostic.id == id)
            out.push_back(&diagnostic);
    }
    return out;
}

void
LintReport::merge(LintReport &&other)
{
    diagnostics.insert(diagnostics.end(),
                       std::make_move_iterator(other.diagnostics.begin()),
                       std::make_move_iterator(other.diagnostics.end()));
}

void
LintReport::sortStable()
{
    std::stable_sort(diagnostics.begin(), diagnostics.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         if (a.automaton != b.automaton)
                             return a.automaton < b.automaton;
                         if (a.id != b.id)
                             return a.id < b.id;
                         if (a.eventA != b.eventA)
                             return a.eventA < b.eventA;
                         return a.eventB < b.eventB;
                     });
}

std::string
LintReport::toText() const
{
    std::ostringstream out;
    for (const Diagnostic &diagnostic : diagnostics) {
        out << severityName(diagnostic.severity) << ": ["
            << diagnostic.id << "] ";
        if (!diagnostic.automaton.empty())
            out << diagnostic.automaton << ": ";
        out << diagnostic.message << "\n";
    }
    out << automataChecked << " automata checked: "
        << count(Severity::Error) << " error(s), "
        << count(Severity::Warning) << " warning(s), "
        << count(Severity::Info) << " info(s)";
    return out.str();
}

std::string
LintReport::toJson() const
{
    std::ostringstream out;
    out << "{\n  \"tool\": \"seer-lint\",\n  \"version\": 1,\n"
        << "  \"automata\": " << automataChecked << ",\n"
        << "  \"errors\": " << count(Severity::Error) << ",\n"
        << "  \"warnings\": " << count(Severity::Warning) << ",\n"
        << "  \"infos\": " << count(Severity::Info) << ",\n"
        << "  \"diagnostics\": [\n";
    for (std::size_t i = 0; i < diagnostics.size(); ++i) {
        const Diagnostic &diagnostic = diagnostics[i];
        out << "    {\"id\": \"" << diagnostic.id << "\", \"severity\": \""
            << severityName(diagnostic.severity) << "\", \"automaton\": \""
            << common::JsonEscaped{diagnostic.automaton}
            << "\", \"message\": \""
            << common::JsonEscaped{diagnostic.message} << "\"";
        if (diagnostic.eventA >= 0)
            out << ", \"event\": " << diagnostic.eventA;
        if (diagnostic.eventB >= 0)
            out << ", \"event2\": " << diagnostic.eventB;
        if (diagnostic.isEdge)
            out << ", \"edge\": true";
        if (!diagnostic.metrics.empty()) {
            out << ", \"metrics\": {";
            bool first = true;
            for (const auto &[key, value] : diagnostic.metrics) {
                out << (first ? "" : ", ") << "\""
                    << common::JsonEscaped{key} << "\": " << value;
                first = false;
            }
            out << "}";
        }
        out << "}" << (i + 1 < diagnostics.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
}

} // namespace cloudseer::analysis
