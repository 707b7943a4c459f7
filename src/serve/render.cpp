#include "serve/render.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "analysis/coreport.hpp"
#include "analysis/followreport.hpp"
#include "engine/filter.hpp"
#include "engine/queries.hpp"
#include "serve/base_memo.hpp"
#include "serve/partial.hpp"
#include "serve/render_text.hpp"
#include "util/strings.hpp"

namespace gdelt::serve {
namespace {

/// Domain labels of a ranked source-id list.
std::vector<std::string> SourceLabels(const engine::Database& db,
                                      std::span<const std::uint32_t> ids) {
  std::vector<std::string> labels;
  labels.reserve(ids.size());
  for (const std::uint32_t s : ids) {
    labels.emplace_back(db.source_domain(s));
  }
  return labels;
}

/// Per-rank projection of a per-source-id count vector.
std::vector<std::uint64_t> CountsOf(const std::vector<std::uint64_t>& counts,
                                    std::span<const std::uint32_t> ids) {
  std::vector<std::uint64_t> out;
  out.reserve(ids.size());
  for (const std::uint32_t s : ids) out.push_back(counts[s]);
  return out;
}

/// The restricted (window/confidence-filtered) query family.
///
/// The morsel backend runs the vectorized bitmap filter and feeds the
/// selection bitmap straight into the filtered aggregates — mention rows
/// are materialized only when a kernel needs an explicit row list (the
/// restricted co-reporting rebuild). The OpenMP backend keeps the
/// original scalar two-pass row materialization as the ablation baseline.
Result<RenderedQuery> RenderRestricted(const engine::Database& db,
                                       const Request& r,
                                       parallel::Backend backend,
                                       const util::CancelToken* cancel) {
  RenderedQuery out;
  const bool bitmap_path = backend == parallel::Backend::kMorselPool;
  engine::SelectionBitmap sel;
  std::vector<std::uint64_t> rows;
  if (bitmap_path) {
    sel = engine::SelectMentionsBitmap(db, r.filter);
  } else {
    rows = engine::SelectMentionsBaseline(db, r.filter);
  }
  const std::uint64_t selected = bitmap_path ? sel.CountSet() : rows.size();
  out.note = StrFormat("[filter selects %llu of %zu mentions]",
                       static_cast<unsigned long long>(selected),
                       db.num_mentions());
  if (r.kind == "top-sources") {
    const auto counts = bitmap_path ? engine::ArticlesPerSource(db, sel)
                                    : engine::ArticlesPerSource(db, rows);
    const auto ids = RankSources(counts, r.top_k);
    AppendTopSourcesText(out.text, SourceLabels(db, ids), CountsOf(counts, ids),
                         /*restricted=*/true);
    return out;
  }
  if (r.kind == "coreport") {
    const auto counts = bitmap_path ? engine::ArticlesPerSource(db, sel)
                                    : engine::ArticlesPerSource(db, rows);
    const auto top = RankSources(counts, r.top_k);
    // The per-event rebuild wants explicit rows; pay the materialization
    // only on this branch.
    if (bitmap_path) rows = sel.ToRows();
    const auto matrix = analysis::ComputeCoReporting(db, top, rows, cancel);
    AppendCoreportText(out.text, SourceLabels(db, top), matrix,
                       /*restricted=*/true);
    return out;
  }
  // cross-report
  const auto report = bitmap_path ? engine::CountryCrossReporting(db, sel)
                                  : engine::CountryCrossReporting(db, rows);
  const auto reported = engine::CountriesByReportedEvents(db, r.top_k);
  const auto publishing = engine::CountriesByPublishedArticles(db, r.top_k);
  AppendCrossReportText(out.text, reported, publishing, report,
                        /*restricted=*/true);
  return out;
}

/// Unchecked dispatch; RenderQuery wraps it with the cancellation
/// enforcement boundary.
Result<RenderedQuery> RenderQueryImpl(const engine::Database& db,
                                      const Request& r,
                                      parallel::Backend backend,
                                      const util::CancelToken* cancel) {
  const std::string& query = r.kind;
  const std::size_t top_k = r.top_k;
  if (r.partial) {
    return RenderPartialFrame(db, r, backend, cancel);
  }
  if (r.restricted && (query == "top-sources" || query == "cross-report" ||
                       query == "coreport")) {
    return RenderRestricted(db, r, backend, cancel);
  }
  RenderedQuery out;
  if (query == "stats") {
    GDELT_ASSIGN_OR_RETURN(const auto base, BaseDatasetStats(db, cancel));
    out.text = base->table.ToText();
    Appendf(out.text, "Event-size power-law alpha (MLE, xmin=2): %.2f\n",
            base->power_law_alpha);
    return out;
  }
  if (query == "top-sources") {
    GDELT_ASSIGN_OR_RETURN(const auto ranking, BaseSourceRanking(db, cancel));
    const auto top = ranking->Top(top_k);
    AppendTopSourcesText(out.text, SourceLabels(db, top),
                         CountsOf(ranking->articles, top),
                         /*restricted=*/false);
    return out;
  }
  if (query == "top-events") {
    const auto top = engine::TopReportedEvents(db, top_k);
    std::vector<std::uint32_t> articles;
    std::vector<std::string> urls;
    for (const auto& ev : top) {
      articles.push_back(ev.articles);
      urls.emplace_back(db.event_source_url(ev.event_row));
    }
    AppendTopEventsText(out.text, articles, urls);
    return out;
  }
  if (query == "quarterly") {
    GDELT_ASSIGN_OR_RETURN(const auto series, BaseQuarterSeries(db, cancel));
    AppendQuarterSeries(out.text, "Active sources per quarter (Fig 3):",
                        series->active_sources);
    AppendQuarterSeries(out.text, "Events per quarter (Fig 4):",
                        series->events);
    AppendQuarterSeries(out.text, "Articles per quarter (Fig 5):",
                        series->articles);
    return out;
  }
  if (query == "coreport") {
    GDELT_ASSIGN_OR_RETURN(const auto ranking, BaseSourceRanking(db, cancel));
    const auto top = ranking->Top(top_k);
    analysis::TiledCoReportOptions coreport_options;
    coreport_options.use_morsel_pool =
        backend == parallel::Backend::kMorselPool;
    coreport_options.cancel = cancel;
    const auto matrix = analysis::ComputeCoReporting(db, top, coreport_options);
    AppendCoreportText(out.text, SourceLabels(db, top), matrix,
                       /*restricted=*/false);
    return out;
  }
  if (query == "follow") {
    GDELT_ASSIGN_OR_RETURN(const auto ranking, BaseSourceRanking(db, cancel));
    const auto top = ranking->Top(top_k);
    const auto matrix = analysis::ComputeFollowReporting(db, top, backend,
                                                         cancel);
    AppendFollowText(out.text, SourceLabels(db, top), matrix);
    return out;
  }
  if (query == "country-coreport") {
    GDELT_ASSIGN_OR_RETURN(const auto report, BaseCountryCoReport(db, cancel));
    GDELT_ASSIGN_OR_RETURN(const auto ranking,
                           BaseCountryRankings(db, cancel));
    AppendCountryCoreportText(out.text, ranking->TopPublishing(top_k),
                              *report);
    return out;
  }
  if (query == "cross-report") {
    GDELT_ASSIGN_OR_RETURN(const auto report, BaseCrossReport(db, cancel));
    GDELT_ASSIGN_OR_RETURN(const auto ranking,
                           BaseCountryRankings(db, cancel));
    AppendCrossReportText(out.text, ranking->TopReported(top_k),
                          ranking->TopPublishing(top_k), *report,
                          /*restricted=*/false);
    return out;
  }
  if (query == "delay") {
    GDELT_ASSIGN_OR_RETURN(const auto delay,
                           BaseDelayStats(db, backend, cancel));
    GDELT_ASSIGN_OR_RETURN(const auto ranking, BaseSourceRanking(db, cancel));
    const auto top = ranking->Top(top_k);
    std::vector<analysis::DelayStats> top_stats;
    top_stats.reserve(top.size());
    for (const std::uint32_t s : top) top_stats.push_back(delay->per_source[s]);
    AppendDelayText(out.text, SourceLabels(db, top), top_stats,
                    delay->quarterly);
    return out;
  }
  if (query == "tone") {
    GDELT_ASSIGN_OR_RETURN(const auto tone, BaseToneAggregates(db, cancel));
    GDELT_ASSIGN_OR_RETURN(const auto ranking,
                           BaseCountryRankings(db, cancel));
    static constexpr const char* kQuadNames[] = {
        "", "verbal cooperation", "material cooperation", "verbal conflict",
        "material conflict"};
    Appendf(out.text, "Average tone / Goldstein by CAMEO quad class:\n");
    for (std::size_t q = 1; q <= 4; ++q) {
      Appendf(out.text, "  %-22s tone %+6.2f  goldstein %+6.2f  (%s events)\n",
              kQuadNames[q], tone->by_quad.tone[q].Mean(),
              tone->by_quad.goldstein[q].Mean(),
              WithThousands(tone->by_quad.tone[q].count).c_str());
    }
    Appendf(out.text, "\nAverage event tone by located country:\n");
    for (const CountryId c : ranking->TopReported(top_k)) {
      Appendf(out.text, "  %-14s %+6.2f  (%s events)\n",
              std::string(CountryName(c)).c_str(), tone->by_country[c].Mean(),
              WithThousands(tone->by_country[c].count).c_str());
    }
    return out;
  }
  if (query == "first-reports") {
    GDELT_ASSIGN_OR_RETURN(const auto stats,
                           BaseFirstReports(db, backend, cancel));
    GDELT_ASSIGN_OR_RETURN(const auto ranking, BaseSourceRanking(db, cancel));
    const auto& counts = ranking->articles;
    const auto by_breaks = RankSources(stats->first_reports, top_k);
    std::vector<std::uint64_t> breaks;
    std::vector<double> rate_pct;
    for (const std::uint32_t s : by_breaks) {
      breaks.push_back(stats->first_reports[s]);
      rate_pct.push_back(100.0 * stats->RepeatRate(s, counts[s]));
    }
    AppendFirstReportsText(out.text, SourceLabels(db, by_breaks), breaks,
                           CountsOf(counts, by_breaks), rate_pct,
                           stats->events_broken_within_hour, db.num_events());
    return out;
  }
  return status::InvalidArgument("unknown query '" + query + "'");
}

}  // namespace

Result<RenderedQuery> RenderQuery(const engine::Database& db,
                                  const Request& r,
                                  parallel::Backend backend,
                                  const util::CancelToken* cancel) {
  auto out = RenderQueryImpl(db, r, backend, cancel);
  // Enforcement boundary: a kernel that observed the token mid-scan bailed
  // with a short count, so whatever Impl rendered is garbage. Re-check the
  // token here and replace the result wholesale — callers either get the
  // complete text or kCancelled, never a truncated aggregate.
  if (util::Cancelled(cancel)) {
    return status::Cancelled("query cancelled during execution");
  }
  return out;
}

}  // namespace gdelt::serve
