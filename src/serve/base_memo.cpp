#include "serve/base_memo.hpp"

#include "analysis/distributions.hpp"
#include "schema/countries.hpp"

namespace gdelt::serve {
namespace {

template <typename V>
std::size_t Bytes(const std::vector<V>& v) {
  return v.capacity() * sizeof(V);
}

std::size_t Bytes(const engine::QuarterSeries& s) { return Bytes(s.values); }

const engine::MemoTag<SourceRanking> kSourceRanking{
    "memo.build.source_ranking", [](const SourceRanking& v) {
      return Bytes(v.articles) + Bytes(v.ranked);
    }};
const engine::MemoTag<CountryRankings> kCountryRankings{
    "memo.build.country_rankings", [](const CountryRankings& v) {
      return Bytes(v.by_reported_events) + Bytes(v.by_published_articles);
    }};
const engine::MemoTag<BaseDelay> kDelay{
    "memo.build.delay", [](const BaseDelay& v) {
      return Bytes(v.per_source) + Bytes(v.quarterly.average) +
             Bytes(v.quarterly.median);
    }};
const engine::MemoTag<analysis::FirstReportStats> kFirstReports{
    "memo.build.first_reports", [](const analysis::FirstReportStats& v) {
      return Bytes(v.first_reports) + Bytes(v.first_delay_histogram) +
             Bytes(v.repeat_events) + Bytes(v.repeat_articles);
    }};
const engine::MemoTag<analysis::CountryCoReport> kCountryCoReport{
    "memo.build.country_coreport", [](const analysis::CountryCoReport& v) {
      return Bytes(v.event_counts) + Bytes(v.pair_counts);
    }};
const engine::MemoTag<engine::CountryCrossReport> kCrossReport{
    "memo.build.cross_report", [](const engine::CountryCrossReport& v) {
      return Bytes(v.counts) + Bytes(v.articles_per_publisher);
    }};
const engine::MemoTag<BaseQuarterly> kQuarterly{
    "memo.build.quarterly", [](const BaseQuarterly& v) {
      return Bytes(v.active_sources) + Bytes(v.events) + Bytes(v.articles);
    }};
const engine::MemoTag<BaseStats> kStats{
    "memo.build.stats", [](const BaseStats&) { return std::size_t{0}; }};
const engine::MemoTag<BaseTone> kTone{
    "memo.build.tone",
    [](const BaseTone& v) { return Bytes(v.by_country); }};

}  // namespace

Memoized<SourceRanking> BaseSourceRanking(const engine::Database& db,
                                          const util::CancelToken* cancel) {
  return db.Memo(
      kSourceRanking,
      [&] {
        SourceRanking v;
        v.articles = engine::ArticlesPerSource(db);
        v.ranked = engine::RankSourcesByArticles(v.articles, v.articles.size());
        return v;
      },
      cancel);
}

Memoized<CountryRankings> BaseCountryRankings(
    const engine::Database& db, const util::CancelToken* cancel) {
  return db.Memo(
      kCountryRankings,
      [&] {
        const std::size_t all = Countries().size();
        return CountryRankings{engine::CountriesByReportedEvents(db, all),
                               engine::CountriesByPublishedArticles(db, all)};
      },
      cancel);
}

Memoized<BaseDelay> BaseDelayStats(const engine::Database& db,
                                   parallel::Backend backend,
                                   const util::CancelToken* cancel) {
  return db.Memo(
      kDelay,
      [&] {
        return BaseDelay{analysis::PerSourceDelayStats(db, backend, cancel),
                         analysis::QuarterlyDelayStats(db)};
      },
      cancel);
}

Memoized<analysis::FirstReportStats> BaseFirstReports(
    const engine::Database& db, parallel::Backend backend,
    const util::CancelToken* cancel) {
  return db.Memo(
      kFirstReports,
      [&] {
        return analysis::ComputeFirstReports(db, /*histogram_bins=*/18,
                                             backend, cancel);
      },
      cancel);
}

Memoized<analysis::CountryCoReport> BaseCountryCoReport(
    const engine::Database& db, const util::CancelToken* cancel) {
  return db.Memo(
      kCountryCoReport,
      [&] { return analysis::ComputeCountryCoReporting(db, cancel); }, cancel);
}

Memoized<engine::CountryCrossReport> BaseCrossReport(
    const engine::Database& db, const util::CancelToken* cancel) {
  return db.Memo(
      kCrossReport, [&] { return engine::CountryCrossReporting(db); }, cancel);
}

Memoized<BaseQuarterly> BaseQuarterSeries(const engine::Database& db,
                                          const util::CancelToken* cancel) {
  return db.Memo(
      kQuarterly,
      [&] {
        return BaseQuarterly{engine::ActiveSourcesPerQuarter(db),
                             engine::EventsPerQuarter(db),
                             engine::ArticlesPerQuarter(db)};
      },
      cancel);
}

Memoized<BaseStats> BaseDatasetStats(const engine::Database& db,
                                     const util::CancelToken* cancel) {
  return db.Memo(
      kStats,
      [&] {
        return BaseStats{analysis::ComputeDatasetStatistics(db),
                         analysis::EventSizePowerLawAlpha(db, 2)};
      },
      cancel);
}

Memoized<BaseTone> BaseToneAggregates(const engine::Database& db,
                                      const util::CancelToken* cancel) {
  return db.Memo(
      kTone,
      [&] {
        return BaseTone{analysis::ToneByQuadClass(db),
                        analysis::AverageToneByCountry(db)};
      },
      cancel);
}

}  // namespace gdelt::serve
