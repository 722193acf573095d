/**
 * @file
 * Self-contained HTML flight-recorder report: one file, zero external
 * fetches (no scripts, no fonts, no stylesheet links — everything is
 * inline CSS and inline SVG), so it can be archived as a CI artifact
 * and opened years later.
 *
 * Sections (each carries a stable element id the golden-structure CLI
 * test keys on):
 *
 *   #meta          run identity: workload, git SHA, schema versions,
 *                  registry meta block
 *   #gate          the history-check verdict banner (when a check
 *                  report is supplied)
 *   #trajectories  per-metric sparkline SVGs across the history
 *                  store, grouped by record source
 *   #metrics       the current run's full registry table, grouped by
 *                  metric prefix
 *   #histograms    p50/p95/p99 plus an inline bin-bar SVG per
 *                  registry histogram
 *   #scorecard     the per-loop scorecard: fate, rejection reason,
 *                  dynamics, missed-ops pricing, transform attempts
 *   #phases        the compile-pipeline phase-timer breakdown as a
 *                  horizontal bar chart
 *   #prof          "where the host cycles go": the sampling
 *                  self-profiler's region split for the run that
 *                  produced this report, as a bar chart
 */

#ifndef LBP_OBS_REPORT_HH
#define LBP_OBS_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/history.hh"
#include "obs/json.hh"

namespace lbp
{
namespace obs
{

struct ReportData
{
    std::string workload;
    Json registryDoc;   ///< Registry::toJson() of the current run
    Json scorecard;     ///< scorecardToJson() (Null to omit)
    Json check;         ///< CheckReport::toJson() (Null to omit)
    Json prof;          ///< self-profile snapshot (Null to omit):
                        ///< {samples, untracked, dropped,
                        ///<  attributed_fraction, regions:{label:n}}
    std::vector<HistoryRecord> history; ///< full store, all sources
    std::string historyPath; ///< display only ("" when no store)
};

/** Render the report. The output is pure HTML5 + inline SVG. */
void writeHtmlReport(std::ostream &os, const ReportData &data);

/** Escape text for HTML element/attribute content. */
std::string htmlEscape(const std::string &s);

} // namespace obs
} // namespace lbp

#endif // LBP_OBS_REPORT_HH
