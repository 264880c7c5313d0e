#include "core/monitor/report_json.hpp"

#include <charconv>

#include "common/string_util.hpp"
#include "core/monitor/workflow_monitor.hpp"

namespace cloudseer::core {

namespace {

/** Append an integer as std::to_string renders it. */
template <typename Int>
void
appendInt(std::string &out, Int value)
{
    char buf[24];
    auto result = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, result.ptr);
}

/** Append a template's label (TemplateCatalog::label) as a JSON string. */
void
appendLabel(std::string &out, const logging::TemplateCatalog &catalog,
            logging::TemplateId tpl)
{
    out += '"';
    appendJsonEscaped(out, catalog.service(tpl));
    out += ": ";
    appendJsonEscaped(out, catalog.text(tpl));
    out += '"';
}

void
appendStringArray(std::string &out, const std::vector<std::string> &items)
{
    out += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ',';
        out += '"';
        appendJsonEscaped(out, items[i]);
        out += '"';
    }
    out += ']';
}

void
appendLabelArray(std::string &out, const logging::TemplateCatalog &catalog,
                 const std::vector<logging::TemplateId> &tpls)
{
    out += '[';
    for (std::size_t i = 0; i < tpls.size(); ++i) {
        if (i > 0)
            out += ',';
        appendLabel(out, catalog, tpls[i]);
    }
    out += ']';
}

} // namespace

void
appendReportJson(std::string &out, const MonitorReport &report,
                 const logging::TemplateCatalog &catalog)
{
    const CheckEvent &event = report.event;

    out += "{\"kind\":\"";
    out += checkEventKindName(event.kind);
    out += "\",\"task\":\"";
    appendJsonEscaped(out, event.taskName);
    out += "\",\"time\":";
    common::appendDouble(out, event.time, 3);
    out += ",\"start\":";
    common::appendDouble(out, event.startTime, 3);
    out += ",\"duration\":";
    common::appendDouble(out, event.time - event.startTime, 3);
    out += ",\"endOfStream\":";
    out += report.endOfStream ? "true" : "false";
    out += ",\"messages\":";
    appendInt(out, event.records.size());
    out += ",\"records\":[";
    for (std::size_t i = 0; i < event.records.size(); ++i) {
        if (i > 0)
            out += ',';
        appendInt(out, event.records[i]);
    }
    out += "],\"candidates\":";
    appendStringArray(out, event.candidateTasks);
    out += ",\"states\":";
    appendLabelArray(out, catalog, event.frontierTemplates);
    out += ",\"expected\":";
    appendLabelArray(out, catalog, event.expectedTemplates);
    if (event.totalBudget >= 0.0) {
        out += ",\"latency\":{\"total\":";
        common::appendDouble(out, event.totalElapsed, 3);
        out += ",\"budget\":";
        common::appendDouble(out, event.totalBudget, 3);
        out += ",\"criticalPath\":[";
        for (std::size_t i = 0; i < event.criticalPath.size(); ++i) {
            if (i > 0)
                out += ',';
            appendInt(out, event.criticalPath[i]);
        }
        out += "],\"edges\":[";
        for (std::size_t i = 0; i < event.edgeTimings.size(); ++i) {
            const EdgeTiming &timing = event.edgeTimings[i];
            if (i > 0)
                out += ',';
            out += "{\"from\":";
            appendInt(out, timing.from);
            out += ",\"to\":";
            appendInt(out, timing.to);
            out += ",\"fromLabel\":";
            appendLabel(out, catalog, timing.fromTpl);
            out += ",\"toLabel\":";
            appendLabel(out, catalog, timing.toTpl);
            out += ",\"elapsed\":";
            common::appendDouble(out, timing.elapsed, 3);
            out += ",\"budget\":";
            common::appendDouble(out, timing.budget, 3);
            out += ",\"exceeded\":";
            out += timing.exceeded ? "true" : "false";
            out += '}';
        }
        out += "]}";
    }
    out += '}';
}

std::string
reportToJson(const MonitorReport &report,
             const logging::TemplateCatalog &catalog)
{
    std::string out;
    appendReportJson(out, report, catalog);
    return out;
}

std::string
statsSummaryJson(const CheckerStats &checker, const IngestStats &ingest,
                 double time)
{
    std::string out = "{\"kind\":\"SUMMARY\",";
    out += "\"time\":" + common::formatDouble(time, 3) + ",";
    out += "\"checker\":{";
    out += "\"messages\":" + std::to_string(checker.messages) + ",";
    out += "\"decisive\":" + std::to_string(checker.decisive) + ",";
    out += "\"ambiguous\":" + std::to_string(checker.ambiguous) + ",";
    out += "\"recoveries\":{\"a\":" +
           std::to_string(checker.recoveredPassUnknown) + ",\"b\":" +
           std::to_string(checker.recoveredNewSequence) + ",\"c\":" +
           std::to_string(checker.recoveredOtherSet) + ",\"d\":" +
           std::to_string(checker.recoveredFalseDependency) + "},";
    out += "\"unmatched\":" + std::to_string(checker.unmatched) + ",";
    out += "\"accepted\":" + std::to_string(checker.accepted) + ",";
    out += "\"errors\":" + std::to_string(checker.errorsReported) + ",";
    out += "\"timeouts\":" + std::to_string(checker.timeoutsReported) +
           ",";
    out += "\"timeoutsSuppressed\":" +
           std::to_string(checker.timeoutsSuppressed) + ",";
    out += "\"latencyAnomalies\":" +
           std::to_string(checker.latencyAnomalies) + ",";
    out += "\"shed\":" + std::to_string(checker.groupsShed) + ",";
    out += "\"consumeAttempts\":" +
           std::to_string(checker.consumeAttempts) + ",";
    out += "\"decisiveFraction\":" +
           common::formatDouble(checker.decisiveFraction(), 4) + "},";
    out += "\"ingest\":{";
    out += "\"lines\":" + std::to_string(ingest.linesSeen) + ",";
    out += "\"delivered\":" + std::to_string(ingest.recordsDelivered) +
           ",";
    out += "\"malformed\":" + std::to_string(ingest.malformed()) + ",";
    out += "\"clamped\":" + std::to_string(ingest.nonMonotonicClamped) +
           ",";
    out += "\"duplicates\":" +
           std::to_string(ingest.duplicatesSuppressed) + ",";
    out += "\"forcedReleases\":" +
           std::to_string(ingest.forcedReleases) + ",";
    out += "\"reorderPeak\":" +
           std::to_string(ingest.reorderBufferPeak) + "}}";
    return out;
}

} // namespace cloudseer::core
