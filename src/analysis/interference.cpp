#include "analysis/interference.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <unordered_set>

#include "analysis/model_lint.hpp"
#include "common/string_util.hpp"
#include "logging/variable_extractor.hpp"

namespace cloudseer::analysis {

namespace {

using core::TaskAutomaton;
using logging::TemplateId;

void
add(LintReport &report, const char *id, Severity severity,
    std::string automaton, std::string message, int event_a = -1,
    int event_b = -1, std::map<std::string, double> metrics = {})
{
    Diagnostic diagnostic;
    diagnostic.id = id;
    diagnostic.severity = severity;
    diagnostic.automaton = std::move(automaton);
    diagnostic.message = std::move(message);
    diagnostic.eventA = event_a;
    diagnostic.eventB = event_b;
    diagnostic.metrics = std::move(metrics);
    report.diagnostics.push_back(std::move(diagnostic));
}

/** Static facts about one template across the whole model set. */
struct TemplateFacts
{
    std::uint32_t owners = 0; ///< automata with a consumption site
    std::uint32_t sites = 0;  ///< total consumption sites
    SignatureIdClass idClass = SignatureIdClass::None;
};

/**
 * The consumable-adjacency relation of one automaton: (t, u) is in
 * `pairs` iff some reachable consumed-prefix can consume a t-event and
 * then immediately a u-event. Computed by exact enumeration of the
 * reachable downsets (subsets of events closed under dependencies);
 * `truncated` degrades to "assume everything adjacent".
 */
struct Adjacency
{
    bool truncated = false;
    std::set<std::pair<TemplateId, TemplateId>> pairs;
};

Adjacency
consumableAdjacency(const TaskAutomaton &automaton, std::size_t cap)
{
    Adjacency out;
    std::size_t n = automaton.eventCount();
    if (n == 0)
        return out;
    if (n > 64) { // downsets are 64-bit masks
        out.truncated = true;
        return out;
    }
    std::vector<std::uint64_t> need(n, 0);
    for (std::size_t e = 0; e < n; ++e) {
        for (int pred : automaton.preds(static_cast<int>(e)))
            need[e] |= std::uint64_t{1} << pred;
    }
    auto enabled = [&](std::uint64_t consumed, std::size_t e) {
        return ((consumed >> e) & 1) == 0 && (need[e] & ~consumed) == 0;
    };
    std::unordered_set<std::uint64_t> seen{0};
    std::vector<std::uint64_t> work{0};
    while (!work.empty()) {
        std::uint64_t state = work.back();
        work.pop_back();
        for (std::size_t e = 0; e < n; ++e) {
            if (!enabled(state, e))
                continue;
            std::uint64_t next = state | (std::uint64_t{1} << e);
            for (std::size_t f = 0; f < n; ++f) {
                if (enabled(next, f)) {
                    out.pairs.insert(
                        {automaton.event(static_cast<int>(e)).tpl,
                         automaton.event(static_cast<int>(f)).tpl});
                }
            }
            if (seen.insert(next).second) {
                if (seen.size() > cap) {
                    out.truncated = true;
                    return out;
                }
                work.push_back(next);
            }
        }
    }
    return out;
}

/**
 * Longest walk through a joint-adjacency graph, counted in messages.
 * Returns 0 for "unbounded" (the graph has a cycle, so the two
 * automata can trade shared templates forever).
 */
int
longestJointRun(const std::set<std::pair<TemplateId, TemplateId>> &edges)
{
    std::map<TemplateId, std::vector<TemplateId>> succs;
    std::set<TemplateId> nodes;
    for (const auto &[t, u] : edges) {
        succs[t].push_back(u);
        nodes.insert(t);
        nodes.insert(u);
    }
    std::map<TemplateId, int> memo;
    std::set<TemplateId> on_stack;
    bool unbounded = false;
    std::function<int(TemplateId)> visit = [&](TemplateId node) -> int {
        auto it = memo.find(node);
        if (it != memo.end())
            return it->second;
        if (!on_stack.insert(node).second) {
            unbounded = true;
            return 1;
        }
        int best = 1;
        auto sit = succs.find(node);
        if (sit != succs.end()) {
            for (TemplateId next : sit->second)
                best = std::max(best, 1 + visit(next));
        }
        on_stack.erase(node);
        memo[node] = best;
        return best;
    };
    int best = 0;
    for (TemplateId node : nodes)
        best = std::max(best, visit(node));
    return unbounded ? 0 : best;
}

std::string
tplLabel(const logging::TemplateCatalog &catalog, TemplateId tpl)
{
    return "'" + catalog.label(tpl) + "'";
}

const char *
classWord(SignatureIdClass id_class)
{
    switch (id_class) {
      case SignatureIdClass::None: return "no identifier";
      case SignatureIdClass::SharedOnly:
        return "only shared-class identifiers";
      case SignatureIdClass::Instance: return "an instance identifier";
    }
    return "?";
}

} // namespace

SignatureIdClass
classifyTemplate(const std::string &text, bool numbers_as_identifiers)
{
    using logging::VariableExtractor;
    using logging::VariableKind;
    bool uuid = text.find(VariableExtractor::placeholder(
                    VariableKind::Uuid)) != std::string::npos;
    bool number = text.find(VariableExtractor::placeholder(
                      VariableKind::Number)) != std::string::npos;
    if (uuid || (numbers_as_identifiers && number))
        return SignatureIdClass::Instance;
    bool ip = text.find(VariableExtractor::placeholder(
                  VariableKind::Ip)) != std::string::npos;
    return ip ? SignatureIdClass::SharedOnly : SignatureIdClass::None;
}

const char *
verdictName(SignatureVerdictKind kind)
{
    switch (kind) {
      case SignatureVerdictKind::CertifiedUnambiguous: return "certified";
      case SignatureVerdictKind::SoleOwnerUnidentified:
        return "sole-unidentified";
      case SignatureVerdictKind::SharedIdentified:
        return "shared-identified";
      case SignatureVerdictKind::SharedInseparable:
        return "shared-inseparable";
    }
    return "?";
}

std::optional<SignatureVerdictKind>
verdictFromName(const std::string &word)
{
    for (SignatureVerdictKind kind :
         {SignatureVerdictKind::CertifiedUnambiguous,
          SignatureVerdictKind::SoleOwnerUnidentified,
          SignatureVerdictKind::SharedIdentified,
          SignatureVerdictKind::SharedInseparable}) {
        if (word == verdictName(kind))
            return kind;
    }
    return std::nullopt;
}

bool
AmbiguityCertificate::certified(TemplateId tpl) const
{
    auto it = std::lower_bound(
        verdicts.begin(), verdicts.end(), tpl,
        [](const SignatureVerdict &v, TemplateId id) { return v.tpl < id; });
    return it != verdicts.end() && it->tpl == tpl &&
           it->kind == SignatureVerdictKind::CertifiedUnambiguous;
}

std::size_t
AmbiguityCertificate::certifiedCount() const
{
    std::size_t n = 0;
    for (const SignatureVerdict &verdict : verdicts) {
        if (verdict.kind == SignatureVerdictKind::CertifiedUnambiguous)
            ++n;
    }
    return n;
}

std::vector<char>
AmbiguityCertificate::certifiedBits(std::size_t catalog_size) const
{
    std::vector<char> bits(catalog_size, 0);
    for (const SignatureVerdict &verdict : verdicts) {
        if (verdict.kind == SignatureVerdictKind::CertifiedUnambiguous &&
            verdict.tpl < catalog_size) {
            bits[verdict.tpl] = 1;
        }
    }
    return bits;
}

core::CertificateRecord
AmbiguityCertificate::toRecord() const
{
    core::CertificateRecord record;
    record.present = true;
    record.fingerprint = modelFingerprint;
    for (const SignatureVerdict &verdict : verdicts) {
        record.verdicts.push_back({verdict.tpl, verdictName(verdict.kind),
                                   verdict.automata, verdict.sites});
    }
    return record;
}

std::optional<AmbiguityCertificate>
AmbiguityCertificate::fromRecord(const core::CertificateRecord &record)
{
    if (!record.present)
        return std::nullopt;
    AmbiguityCertificate certificate;
    certificate.modelFingerprint = record.fingerprint;
    for (const core::SignatureVerdictRecord &raw : record.verdicts) {
        auto kind = verdictFromName(raw.verdict);
        if (!kind)
            return std::nullopt;
        certificate.verdicts.push_back(
            {raw.tpl, *kind, raw.automata, raw.sites});
    }
    std::sort(certificate.verdicts.begin(), certificate.verdicts.end(),
              [](const SignatureVerdict &a, const SignatureVerdict &b) {
                  return a.tpl < b.tpl;
              });
    return certificate;
}

InterferenceResult
analyzeInterference(const std::vector<TaskAutomaton> &automata,
                    const logging::TemplateCatalog &catalog,
                    const InterferenceOptions &options)
{
    InterferenceResult result;
    result.report.automataChecked = automata.size();

    // --- whole-set template facts -------------------------------------
    std::map<TemplateId, TemplateFacts> facts;
    std::vector<std::set<TemplateId>> alphabet(automata.size());
    for (std::size_t a = 0; a < automata.size(); ++a) {
        const TaskAutomaton &automaton = automata[a];
        for (std::size_t e = 0; e < automaton.eventCount(); ++e)
            alphabet[a].insert(automaton.event(static_cast<int>(e)).tpl);
        for (TemplateId tpl : alphabet[a]) {
            TemplateFacts &fact = facts[tpl];
            fact.owners += 1;
            fact.sites += static_cast<std::uint32_t>(
                automaton.eventsForTemplate(tpl).size());
        }
    }
    for (auto &[tpl, fact] : facts) {
        fact.idClass = classifyTemplate(catalog.text(tpl),
                                        options.numbersAsIdentifiers);
    }

    // --- the verdict table (certificate) ------------------------------
    for (const auto &[tpl, fact] : facts) {
        SignatureVerdictKind kind;
        if (fact.owners <= 1) {
            kind = fact.idClass == SignatureIdClass::Instance
                       ? SignatureVerdictKind::CertifiedUnambiguous
                       : SignatureVerdictKind::SoleOwnerUnidentified;
        } else {
            kind = fact.idClass == SignatureIdClass::Instance
                       ? SignatureVerdictKind::SharedIdentified
                       : SignatureVerdictKind::SharedInseparable;
        }
        result.certificate.verdicts.push_back(
            {tpl, kind, fact.owners, fact.sites});
    }

    // --- SL021: identifier-inseparable collisions ---------------------
    for (const auto &[tpl, fact] : facts) {
        if (fact.owners < 2 || fact.idClass == SignatureIdClass::Instance)
            continue;
        Severity severity = fact.idClass == SignatureIdClass::None
                                ? Severity::Warning
                                : Severity::Info;
        std::ostringstream message;
        message << "template " << tplLabel(catalog, tpl) << " is shared by "
                << fact.owners << " automata (" << fact.sites
                << " sites) and extracts " << classWord(fact.idClass)
                << "; its messages cannot be attributed to one execution";
        add(result.report, "SL021", severity, "", message.str(), -1, -1,
            {{"automata", static_cast<double>(fact.owners)},
             {"sites", static_cast<double>(fact.sites)}});
    }

    // --- SL020: pairwise product walks --------------------------------
    std::vector<Adjacency> adjacency(automata.size());
    for (std::size_t a = 0; a < automata.size(); ++a)
        adjacency[a] =
            consumableAdjacency(automata[a], options.maxDownsetStates);

    auto adjacent = [&](std::size_t a, TemplateId t, TemplateId u) {
        return adjacency[a].truncated ||
               adjacency[a].pairs.count({t, u}) != 0;
    };

    for (std::size_t a = 0; a < automata.size(); ++a) {
        for (std::size_t b = a + 1; b < automata.size(); ++b) {
            std::vector<TemplateId> shared;
            std::set_intersection(alphabet[a].begin(), alphabet[a].end(),
                                  alphabet[b].begin(), alphabet[b].end(),
                                  std::back_inserter(shared));
            if (shared.empty())
                continue;
            std::set<std::pair<TemplateId, TemplateId>> joint;
            bool inseparable_run = false;
            std::pair<TemplateId, TemplateId> witness{0, 0};
            bool have_witness = false;
            for (TemplateId t : shared) {
                for (TemplateId u : shared) {
                    if (!adjacent(a, t, u) || !adjacent(b, t, u))
                        continue;
                    joint.insert({t, u});
                    bool pair_inseparable =
                        facts[t].idClass != SignatureIdClass::Instance &&
                        facts[u].idClass != SignatureIdClass::Instance;
                    // Prefer an inseparable witness; else the first
                    // (smallest, shared is sorted) joint pair.
                    if (!have_witness ||
                        (pair_inseparable && !inseparable_run)) {
                        witness = {t, u};
                        have_witness = true;
                    }
                    inseparable_run |= pair_inseparable;
                }
            }
            if (joint.empty())
                continue;
            int run = longestJointRun(joint);
            bool truncated =
                adjacency[a].truncated || adjacency[b].truncated;
            std::ostringstream message;
            message << "automata '" << automata[a].name() << "' and '"
                    << automata[b].name()
                    << "' can both consume shared-template runs of "
                    << (run == 0 ? std::string("unbounded length")
                                 : std::to_string(run) +
                                       " messages back to back")
                    << " (e.g. " << tplLabel(catalog, witness.first)
                    << " -> " << tplLabel(catalog, witness.second) << ")"
                    << (inseparable_run
                            ? "; the run's identifiers cannot separate "
                              "the rival hypotheses"
                            : "; instance identifiers can still split "
                              "the rivals")
                    << (truncated ? " [downset exploration truncated: "
                                    "adjacency over-approximated]"
                                  : "");
            std::map<std::string, double> metrics{
                {"adjacent_pairs", static_cast<double>(joint.size())},
                {"run_messages", static_cast<double>(run)}};
            if (truncated)
                metrics["truncated"] = 1.0;
            add(result.report, "SL020",
                inseparable_run ? Severity::Warning : Severity::Info, "",
                message.str(), -1, -1, std::move(metrics));
        }
    }

    // --- SL022: super-linear pending-set growth -----------------------
    for (std::size_t a = 0; a < automata.size(); ++a) {
        const TaskAutomaton &automaton = automata[a];
        std::size_t n = automaton.eventCount();
        std::vector<int> marked; // events with inseparable shared tpl
        for (std::size_t e = 0; e < n; ++e) {
            const TemplateFacts &fact =
                facts[automaton.event(static_cast<int>(e)).tpl];
            if (fact.owners >= 2 &&
                fact.idClass != SignatureIdClass::Instance)
                marked.push_back(static_cast<int>(e));
        }
        if (marked.size() < 2)
            continue;
        // Reachability from each marked event (forward BFS).
        std::map<int, std::set<int>> reaches;
        for (int e : marked) {
            std::set<int> &seen = reaches[e];
            std::vector<int> work{e};
            while (!work.empty()) {
                int node = work.back();
                work.pop_back();
                for (int next : automaton.succs(node)) {
                    if (seen.insert(next).second)
                        work.push_back(next);
                }
            }
        }
        // Longest chain of marked events under reachability. Cyclic
        // models (a lint error anyway) are cut at the back edge.
        std::map<int, int> memo;
        std::map<int, int> best_next;
        std::set<int> on_stack;
        std::function<int(int)> chain = [&](int e) -> int {
            auto it = memo.find(e);
            if (it != memo.end())
                return it->second;
            if (!on_stack.insert(e).second)
                return 1;
            int best = 1;
            for (int f : marked) {
                if (f == e || !reaches[e].count(f))
                    continue;
                int candidate = 1 + chain(f);
                if (candidate > best) {
                    best = candidate;
                    best_next[e] = f;
                }
            }
            on_stack.erase(e);
            memo[e] = best;
            return best;
        };
        int start = marked.front();
        int depth = 0;
        for (int e : marked) {
            int candidate = chain(e);
            if (candidate > depth) {
                depth = candidate;
                start = e;
            }
        }
        if (depth < 2)
            continue;
        // Multiplicative fan-out bound: product of the cross-automaton
        // site counts of the distinct templates along the chain.
        double bound = 1.0;
        std::set<TemplateId> counted;
        int last = start;
        for (int e = start;;) {
            TemplateId tpl = automaton.event(e).tpl;
            if (counted.insert(tpl).second)
                bound *= static_cast<double>(facts[tpl].sites);
            last = e;
            auto next = best_next.find(e);
            if (next == best_next.end())
                break;
            e = next->second;
        }
        std::ostringstream message;
        message << "one directed path consumes " << depth
                << " inseparable shared templates ("
                << tplLabel(catalog, automaton.event(start).tpl) << " ... "
                << tplLabel(catalog, automaton.event(last).tpl)
                << "): worst-case rival fan-out multiplies to ~" << bound
                << " hypotheses per in-flight execution";
        if (options.maxForkFanout > 0)
            message << " (checker cap " << options.maxForkFanout << ")";
        std::map<std::string, double> metrics{
            {"chain", static_cast<double>(depth)}, {"bound", bound}};
        if (options.maxForkFanout > 0)
            metrics["cap"] = static_cast<double>(options.maxForkFanout);
        add(result.report, "SL022", Severity::Warning,
            automaton.name(), message.str(), start, last,
            std::move(metrics));
    }

    // --- SL023: dead-end divergence anchors ---------------------------
    std::map<TemplateId, std::vector<std::string>> starters;
    for (const TaskAutomaton &automaton : automata) {
        for (int e : automaton.initialEvents())
            starters[automaton.event(e).tpl].push_back(automaton.name());
    }
    for (std::size_t a = 0; a < automata.size(); ++a) {
        const TaskAutomaton &automaton = automata[a];
        std::vector<int> initial = automaton.initialEvents();
        std::set<int> initial_set(initial.begin(), initial.end());
        for (std::size_t e = 0; e < automaton.eventCount(); ++e) {
            int event = static_cast<int>(e);
            if (initial_set.count(event))
                continue;
            TemplateId tpl = automaton.event(event).tpl;
            auto sit = starters.find(tpl);
            if (sit == starters.end())
                continue;
            const TemplateFacts &fact = facts[tpl];
            Severity severity = fact.idClass == SignatureIdClass::Instance
                                    ? Severity::Info
                                    : Severity::Warning;
            std::ostringstream message;
            message << "event e" << event << " "
                    << tplLabel(catalog, tpl)
                    << " is mid-sequence here but its template starts "
                       "automaton '"
                    << sit->second.front() << "'";
            if (sit->second.size() > 1)
                message << " and " << sit->second.size() - 1 << " other(s)";
            message << ": a diverged message re-anchors as a bogus fresh "
                       "execution that can never accept";
            add(result.report, "SL023", severity, automaton.name(),
                message.str(), event, -1,
                {{"starters",
                  static_cast<double>(sit->second.size())}});
        }
    }

    result.report.sortStable();
    return result;
}

std::string
proveReportJson(const LintReport &report,
                const AmbiguityCertificate &certificate,
                const logging::TemplateCatalog &catalog)
{
    std::ostringstream out;
    out << "{\n  \"tool\": \"seer-prove\",\n  \"version\": 1,\n"
        << "  \"automata\": " << report.automataChecked << ",\n"
        << "  \"errors\": " << report.count(Severity::Error) << ",\n"
        << "  \"warnings\": " << report.count(Severity::Warning) << ",\n"
        << "  \"infos\": " << report.count(Severity::Info) << ",\n"
        << "  \"certificate\": {\n"
        << "    \"fingerprint\": " << certificate.modelFingerprint << ",\n"
        << "    \"templates\": " << certificate.verdicts.size() << ",\n"
        << "    \"certified\": " << certificate.certifiedCount() << ",\n"
        << "    \"signatures\": [\n";
    for (std::size_t i = 0; i < certificate.verdicts.size(); ++i) {
        const SignatureVerdict &verdict = certificate.verdicts[i];
        out << "      {\"template\": " << verdict.tpl << ", \"label\": \""
            << common::JsonEscaped{catalog.label(verdict.tpl)}
            << "\", \"verdict\": \"" << verdictName(verdict.kind)
            << "\", \"automata\": " << verdict.automata
            << ", \"sites\": " << verdict.sites << "}"
            << (i + 1 < certificate.verdicts.size() ? "," : "") << "\n";
    }
    out << "    ]\n  },\n  \"diagnostics\": [\n";
    for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
        const Diagnostic &diagnostic = report.diagnostics[i];
        out << "    {\"id\": \"" << diagnostic.id << "\", \"severity\": \""
            << severityName(diagnostic.severity) << "\", \"automaton\": \""
            << common::JsonEscaped{diagnostic.automaton}
            << "\", \"message\": \""
            << common::JsonEscaped{diagnostic.message} << "\"";
        if (diagnostic.eventA >= 0)
            out << ", \"event\": " << diagnostic.eventA;
        if (diagnostic.eventB >= 0)
            out << ", \"event2\": " << diagnostic.eventB;
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
        out << "}" << (i + 1 < report.diagnostics.size() ? "," : "")
            << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
}

core::TaskModeler::Verifier
makeInterferenceVerifier(InterferenceOptions options)
{
    auto accepted = std::make_shared<std::vector<TaskAutomaton>>();
    return [accepted, options](const TaskAutomaton &automaton,
                               const logging::TemplateCatalog &catalog) {
        std::vector<TaskAutomaton> bundle = *accepted;
        bundle.push_back(automaton);
        InterferenceResult result =
            analyzeInterference(bundle, catalog, options);
        std::vector<std::string> findings;
        for (const Diagnostic &diagnostic : result.report.diagnostics) {
            if (diagnostic.severity < Severity::Warning)
                continue;
            std::string line = std::string(severityName(
                                   diagnostic.severity)) +
                               ": [" + diagnostic.id + "] ";
            if (!diagnostic.automaton.empty())
                line += diagnostic.automaton + ": ";
            line += diagnostic.message;
            findings.push_back(std::move(line));
        }
        accepted->push_back(automaton);
        return findings;
    };
}

void
attachProve(core::TaskModeler &modeler, LintOptions lint,
            InterferenceOptions prove)
{
    auto lint_verifier = makeLintVerifier(std::move(lint));
    auto prove_verifier = makeInterferenceVerifier(prove);
    modeler.setVerifier(
        [lint_verifier, prove_verifier](
            const TaskAutomaton &automaton,
            const logging::TemplateCatalog &catalog) {
            std::vector<std::string> findings =
                lint_verifier(automaton, catalog);
            std::vector<std::string> more =
                prove_verifier(automaton, catalog);
            findings.insert(findings.end(),
                            std::make_move_iterator(more.begin()),
                            std::make_move_iterator(more.end()));
            return findings;
        });
}

} // namespace cloudseer::analysis
