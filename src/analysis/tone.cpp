#include "analysis/tone.hpp"

#include <algorithm>

#include "parallel/parallel.hpp"

namespace gdelt::analysis {
namespace {

/// Bounds on the summation blocks of MeanByBin: at most kToneMaxBlocks
/// blocks of at least kToneMinBlockEvents events. The block boundaries
/// depend only on the event count, so the float sums do not depend on how
/// many threads run the blocks, and the partials stay bounded by
/// kToneMaxBlocks x bins.
constexpr std::size_t kToneMaxBlocks = 256;
constexpr std::size_t kToneMinBlockEvents = 1024;

/// Generic parallel mean-by-bin over events: one partial per event block,
/// merged in block order, so the result is bitwise identical at every
/// team size.
template <typename BinFn, typename ValueFn>
std::vector<MeanAccumulator> MeanByBin(const engine::Database& db,
                                       std::size_t bins, BinFn&& bin_of,
                                       ValueFn&& value_of) {
  const std::size_t events = db.num_events();
  const std::size_t min_size_blocks =
      (events + kToneMinBlockEvents - 1) / kToneMinBlockEvents;
  const auto blocks =
      SplitRange(events, std::min(kToneMaxBlocks, min_size_blocks));
  std::vector<MeanAccumulator> partials(blocks.size() * bins);
  ParallelFor(blocks.size(), [&](std::size_t block) {
    MeanAccumulator* local = partials.data() + block * bins;
    for (std::size_t e = blocks[block].begin; e < blocks[block].end; ++e) {
      const std::size_t b = bin_of(e);
      if (b >= bins) continue;
      local[b].sum += value_of(e);
      ++local[b].count;
    }
  });
  std::vector<MeanAccumulator> merged(bins);
  for (std::size_t block = 0; block < blocks.size(); ++block) {
    for (std::size_t b = 0; b < bins; ++b) {
      merged[b].sum += partials[block * bins + b].sum;
      merged[b].count += partials[block * bins + b].count;
    }
  }
  return merged;
}

}  // namespace

std::vector<MeanAccumulator> AverageToneByCountry(
    const engine::Database& db) {
  const auto country = db.event_country();
  const auto tone = db.events_tone();
  return MeanByBin(
      db, Countries().size(),
      [&](std::size_t e) -> std::size_t {
        return country[e] == kNoCountry ? SIZE_MAX : country[e];
      },
      [&](std::size_t e) { return tone[e]; });
}

QuadClassTone ToneByQuadClass(const engine::Database& db) {
  const auto quad = db.event_quad_class();
  const auto tone = db.events_tone();
  const auto goldstein = db.event_goldstein();
  QuadClassTone result;
  const auto tones = MeanByBin(
      db, 5, [&](std::size_t e) -> std::size_t { return quad[e]; },
      [&](std::size_t e) { return tone[e]; });
  const auto scores = MeanByBin(
      db, 5, [&](std::size_t e) -> std::size_t { return quad[e]; },
      [&](std::size_t e) { return goldstein[e]; });
  for (std::size_t q = 0; q < 5; ++q) {
    result.tone[q] = tones[q];
    result.goldstein[q] = scores[q];
  }
  return result;
}

QuarterlyTone QuarterlyAverageTone(const engine::Database& db) {
  const auto w = engine::QuartersOf(db);
  const auto added = db.event_added_interval();
  const auto tone = db.events_tone();
  QuarterlyTone result;
  result.first_quarter = w.first;
  result.values = MeanByBin(
      db, static_cast<std::size_t>(w.count),
      [&](std::size_t e) -> std::size_t {
        const std::int32_t q =
            QuarterOfUnixSeconds(IntervalStartUnixSeconds(added[e])) -
            w.first;
        return q < 0 ? SIZE_MAX : static_cast<std::size_t>(q);
      },
      [&](std::size_t e) { return tone[e]; });
  return result;
}

}  // namespace gdelt::analysis
