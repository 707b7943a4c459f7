// Whole-base aggregates, memoized on the immutable engine::Database.
//
// Every aggregate here depends on the base tables alone, never on a
// request's `top` or window, so it is computed once per loaded database
// (engine::Database::Memo) and a request only cuts its ranking prefix and
// renders. Values are aggregates, not rendered text. Restricted
// (window/confidence) requests, the coreport/follow kernels and partial
// frames do not come through here.
//
// Each accessor returns kCancelled, and publishes nothing, when `cancel`
// fired before or during its build.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/country.hpp"
#include "analysis/delay.hpp"
#include "analysis/firstreport.hpp"
#include "analysis/stats.hpp"
#include "analysis/tone.hpp"
#include "engine/database.hpp"
#include "engine/queries.hpp"
#include "parallel/morsel.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace gdelt::serve {

template <typename T>
using Memoized = Result<std::shared_ptr<const T>>;

/// Articles per source id, and every source id ranked by that count
/// (engine::RankSourcesByArticles order).
struct SourceRanking {
  std::vector<std::uint64_t> articles;  ///< per source id
  std::vector<std::uint32_t> ranked;    ///< all source ids

  /// engine::TopSourcesByArticles(db, k).
  std::span<const std::uint32_t> Top(std::size_t k) const noexcept {
    return std::span<const std::uint32_t>(ranked).first(
        std::min(k, ranked.size()));
  }
};

/// Every country ranked by located events and by published articles.
struct CountryRankings {
  std::vector<CountryId> by_reported_events;
  std::vector<CountryId> by_published_articles;

  /// engine::CountriesByReportedEvents(db, k).
  std::vector<CountryId> TopReported(std::size_t k) const {
    return Prefix(by_reported_events, k);
  }
  /// engine::CountriesByPublishedArticles(db, k).
  std::vector<CountryId> TopPublishing(std::size_t k) const {
    return Prefix(by_published_articles, k);
  }

 private:
  static std::vector<CountryId> Prefix(const std::vector<CountryId>& ids,
                                       std::size_t k) {
    return {ids.begin(),
            ids.begin() + static_cast<std::ptrdiff_t>(std::min(k, ids.size()))};
  }
};

/// Publication delay per source and per quarter (`delay`).
struct BaseDelay {
  std::vector<analysis::DelayStats> per_source;
  analysis::QuarterlyDelay quarterly;
};

/// The three trend series of `quarterly` (Figs 3-5).
struct BaseQuarterly {
  engine::QuarterSeries active_sources;
  engine::QuarterSeries events;
  engine::QuarterSeries articles;
};

/// Table I plus the event-size power-law exponent (`stats`).
struct BaseStats {
  analysis::DatasetStatistics table;
  double power_law_alpha = 0.0;
};

/// Tone by CAMEO quad class and by located country (`tone`).
struct BaseTone {
  analysis::QuadClassTone by_quad;
  std::vector<analysis::MeanAccumulator> by_country;
};

Memoized<SourceRanking> BaseSourceRanking(
    const engine::Database& db, const util::CancelToken* cancel = nullptr);

Memoized<CountryRankings> BaseCountryRankings(
    const engine::Database& db, const util::CancelToken* cancel = nullptr);

/// `backend` only picks the runtime of the build; both give identical
/// values.
Memoized<BaseDelay> BaseDelayStats(
    const engine::Database& db,
    parallel::Backend backend = parallel::Backend::kMorselPool,
    const util::CancelToken* cancel = nullptr);

/// ComputeFirstReports with 18 histogram bins.
Memoized<analysis::FirstReportStats> BaseFirstReports(
    const engine::Database& db,
    parallel::Backend backend = parallel::Backend::kMorselPool,
    const util::CancelToken* cancel = nullptr);

Memoized<analysis::CountryCoReport> BaseCountryCoReport(
    const engine::Database& db, const util::CancelToken* cancel = nullptr);

/// Unrestricted engine::CountryCrossReporting.
Memoized<engine::CountryCrossReport> BaseCrossReport(
    const engine::Database& db, const util::CancelToken* cancel = nullptr);

Memoized<BaseQuarterly> BaseQuarterSeries(
    const engine::Database& db, const util::CancelToken* cancel = nullptr);

Memoized<BaseStats> BaseDatasetStats(
    const engine::Database& db, const util::CancelToken* cancel = nullptr);

Memoized<BaseTone> BaseToneAggregates(
    const engine::Database& db, const util::CancelToken* cancel = nullptr);

}  // namespace gdelt::serve
