/**
 * @file
 * JSON rendering of monitor reports for alerting integrations
 * (PagerDuty/Slack webhooks, Elasticsearch alert indices, ...).
 *
 * One report becomes one single-line JSON object:
 *
 *   {"kind":"TIMEOUT","task":"boot","time":83.21,
 *    "endOfStream":false,"messages":9,"records":[1,3,...],
 *    "candidates":["boot"],
 *    "states":["nova-scheduler: ..."],"expected":["nova-compute: ..."]}
 */

#ifndef CLOUDSEER_CORE_MONITOR_REPORT_JSON_HPP
#define CLOUDSEER_CORE_MONITOR_REPORT_JSON_HPP

#include <string>
#include <string_view>

#include "common/string_util.hpp"
#include "core/monitor/report.hpp"

namespace cloudseer::core {

struct IngestStats;

/** Escape a string per JSON rules. */
std::string jsonEscape(const std::string &raw);

/** Append jsonEscape(raw) to `out` without a temporary (shared with
 *  the flight recorder, which renders bundle context on read). */
using common::appendJsonEscaped;

/** Render one report as a single-line JSON object. */
std::string reportToJson(const MonitorReport &report,
                         const logging::TemplateCatalog &catalog);

/** Append reportToJson(report, catalog) to `out` without temporaries. */
void appendReportJson(std::string &out, const MonitorReport &report,
                      const logging::TemplateCatalog &catalog);

/**
 * Final summary record for the report stream: checker and ingest
 * counters as one {"kind":"SUMMARY",...} line, emitted after the last
 * report so a captured run is self-describing — a consumer can score
 * accuracy and audit the ingest guards without attaching a debugger.
 */
std::string statsSummaryJson(const CheckerStats &checker,
                             const IngestStats &ingest, double time);

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_MONITOR_REPORT_JSON_HPP
