/**
 * @file
 * seer-prove: static interference & ambiguity analysis over a whole
 * model set (DESIGN.md §15).
 *
 * Where seer-lint checks each automaton's internal structure, this
 * pass asks the cross-automaton question Algorithm 2 pays for at run
 * time: can two task automata both accept a run of shared templates,
 * and do the templates' identifiers separate the executions when they
 * do? Four diagnostics come out of it:
 *
 *   SL020 ambiguous interleaving      — a pairwise product walk finds
 *         a run of >= 2 shared templates both automata can consume
 *         back to back, so rival hypotheses survive several messages.
 *   SL021 identifier-inseparable collision — a shared template whose
 *         extracted identifiers can never split the rival executions.
 *   SL022 super-linear pending-set growth — one directed path consumes
 *         several inseparable shared templates; the worst-case rival
 *         fan-out multiplies at each, so pending-set size is
 *         super-linear in concurrent executions.
 *   SL023 dead-end divergence anchor  — a non-initial event's template
 *         also starts some automaton, so divergence recovery (b)
 *         re-anchors lost messages as bogus executions that can never
 *         accept.
 *
 * Alongside the report, the analysis emits an AmbiguityCertificate:
 * a per-template verdict table whose "certified unambiguous" entries
 * are sole-owner templates carrying an instance identifier. It is a
 * diagnostic: the checker no longer reads it (its shortcuts hold for
 * every template), seer_prove prints it, and model_io still persists
 * it as a CertificateRecord so old and new model files load alike.
 */

#ifndef CLOUDSEER_ANALYSIS_INTERFERENCE_HPP
#define CLOUDSEER_ANALYSIS_INTERFERENCE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/model_lint.hpp"
#include "core/automaton/task_automaton.hpp"
#include "core/mining/model_builder.hpp"
#include "core/mining/model_io.hpp"
#include "logging/template_catalog.hpp"

namespace cloudseer::analysis {

/** Tuning knobs for the interference analysis. */
struct InterferenceOptions
{
    /** Checker fork-fanout cap, reported as context in SL022 metrics
     *  (0 = unknown/uncapped). */
    int maxForkFanout = 0;

    /** Treat <num> placeholders as routable instance identifiers,
     *  mirroring CheckerConfig/LintOptions. */
    bool numbersAsIdentifiers = false;

    /**
     * Cap on the per-automaton downset (consumed-prefix) enumeration
     * behind the SL020 adjacency relation. Within the cap the
     * adjacency is exact; past it the analysis degrades soundly by
     * assuming every shared-template pair adjacent (a conservative
     * over-approximation, never a missed warning).
     */
    std::size_t maxDownsetStates = 1u << 16;
};

/** Identifier class a template's placeholders can extract. */
enum class SignatureIdClass
{
    None,       ///< no placeholder at all: unroutable and inseparable
    SharedOnly, ///< only shared-class values (node IPs): routes, but
                ///< repeats across concurrent executions
    Instance,   ///< carries a UUID-class (or opted-in number) value
};

/** Per-template verdict kinds, from best to worst. */
enum class SignatureVerdictKind
{
    /** Exactly one automaton consumes it and it carries an instance
     *  identifier: the fast-path bit. */
    CertifiedUnambiguous,

    /** Sole owner, but no instance identifier extractable. */
    SoleOwnerUnidentified,

    /** Shared across automata, instance identifier present: runtime
     *  identifier sets can separate the executions. */
    SharedIdentified,

    /** Shared and identifier-inseparable: the SL021 case. */
    SharedInseparable,
};

/** Stable wire name ("certified", "sole-unidentified", ...). */
const char *verdictName(SignatureVerdictKind kind);

/** Inverse of verdictName; nullopt on an unknown word. */
std::optional<SignatureVerdictKind> verdictFromName(const std::string &word);

/** One template's verdict. */
struct SignatureVerdict
{
    logging::TemplateId tpl = logging::kInvalidTemplate;
    SignatureVerdictKind kind = SignatureVerdictKind::SharedInseparable;

    /** Number of automata with a consumption site for the template. */
    std::uint32_t automata = 0;

    /** Total consumption sites across the model set. */
    std::uint32_t sites = 0;
};

/**
 * The per-signature verdict table the analysis proves. Persisted
 * alongside the model (core::CertificateRecord) and installed on the
 * checker as a bitmap.
 */
struct AmbiguityCertificate
{
    /** Checker model fingerprint of the analysed bundle; stamped by
     *  callers that link cloudseer_core (this layer sits below it). */
    std::uint64_t modelFingerprint = 0;

    /** Ascending by template id; covers every template the model set
     *  references. */
    std::vector<SignatureVerdict> verdicts;

    /** True when tpl is certified unambiguous. */
    bool certified(logging::TemplateId tpl) const;

    /** Number of certified templates. */
    std::size_t certifiedCount() const;

    /**
     * Dense bitmap sized for a catalog of `catalog_size` templates
     * (the shape the former checker dispatch took).
     */
    std::vector<char> certifiedBits(std::size_t catalog_size) const;

    /** Convert to the model_io persistence record. */
    core::CertificateRecord toRecord() const;

    /** Parse a persisted record; nullopt on an unknown verdict word. */
    static std::optional<AmbiguityCertificate>
    fromRecord(const core::CertificateRecord &record);
};

/** Report plus certificate: one analysis run's full output. */
struct InterferenceResult
{
    LintReport report;
    AmbiguityCertificate certificate;
};

/** Identifier class of one template's text. */
SignatureIdClass classifyTemplate(const std::string &text,
                                  bool numbers_as_identifiers);

/** Run the whole-model-set interference analysis. */
InterferenceResult
analyzeInterference(const std::vector<core::TaskAutomaton> &automata,
                    const logging::TemplateCatalog &catalog,
                    const InterferenceOptions &options = {});

/**
 * seer-prove JSON document: the finding list plus the certificate
 * verdict table (machine-readable, golden-pinned by tests).
 */
std::string proveReportJson(const LintReport &report,
                            const AmbiguityCertificate &certificate,
                            const logging::TemplateCatalog &catalog);

/**
 * Mine-time hook, shaped like makeLintVerifier: each verified
 * automaton is analysed against the ones already accepted through the
 * same verifier, and warning-or-worse interference findings come back
 * as summaries. Stateful: one verifier instance accumulates the
 * bundle it has seen.
 */
core::TaskModeler::Verifier
makeInterferenceVerifier(InterferenceOptions options = {});

/**
 * Install a combined lint + interference verifier on a modeler
 * (replaces any verifier already set; TaskModeler holds one slot).
 */
void attachProve(core::TaskModeler &modeler, LintOptions lint = {},
                 InterferenceOptions prove = {});

} // namespace cloudseer::analysis

#endif // CLOUDSEER_ANALYSIS_INTERFERENCE_HPP
