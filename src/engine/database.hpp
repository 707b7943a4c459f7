// The in-memory GDELT database.
//
// Loads the converter's binary tables, materializes the inverted indexes
// (event -> mentions, source -> mentions) and derived columns (source ->
// country via TLD), and hands out typed spans for the query kernels. After
// Load() everything is read-only — the paper's core architectural bet —
// so queries run lock-free across all threads. Aggregates that depend on
// nothing but these tables are computed once, on first use, and kept in
// the database's memo (Database::Memo).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "columnar/csr.hpp"
#include "columnar/dictionary.hpp"
#include "columnar/table.hpp"
#include "schema/countries.hpp"
#include "trace/trace.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace gdelt::engine {

struct LoadOptions {
  /// Build the event/source inverted indexes (needed by co-reporting,
  /// follow-reporting and per-source delay queries).
  bool build_indexes = true;
  /// Run a parallel first-touch pass over the large buffers so pages are
  /// distributed across NUMA nodes before the first scan.
  bool numa_first_touch = true;
};

/// Key of one memoized whole-base aggregate of type T. Declare each tag
/// once, with static storage duration: its address is the memo key.
template <typename T>
struct MemoTag {
  /// Trace span around a build, "memo.build.<aggregate>".
  const char* span;
  /// Heap footprint of a built value, counted in Database::MemoryBytes().
  std::size_t (*bytes)(const T&);
};

/// Read-only, fully materialized database.
class Database {
 public:
  Database();
  ~Database();
  Database(Database&&) noexcept;
  Database& operator=(Database&&) noexcept;

  /// Loads a directory written by convert::ConvertDataset.
  static Result<Database> Load(const std::string& dir,
                               const LoadOptions& options = {});

  // --- sizes ---
  std::size_t num_events() const noexcept { return num_events_; }
  std::size_t num_mentions() const noexcept { return num_mentions_; }
  std::uint32_t num_sources() const noexcept { return sources_.size(); }

  // --- mentions columns ---
  std::span<const std::uint32_t> mention_event_row() const noexcept {
    return mention_event_row_;
  }
  std::span<const std::int64_t> mention_event_interval() const noexcept {
    return mention_event_interval_;
  }
  std::span<const std::int64_t> mention_interval() const noexcept {
    return mention_interval_;
  }
  std::span<const std::uint32_t> mention_source_id() const noexcept {
    return mention_source_id_;
  }
  std::span<const std::uint8_t> mention_confidence() const noexcept {
    return mention_confidence_;
  }

  // --- events columns ---
  std::span<const std::uint64_t> event_global_id() const noexcept {
    return event_global_id_;
  }
  std::span<const std::int64_t> event_added_interval() const noexcept {
    return event_added_interval_;
  }
  std::span<const std::uint16_t> event_country() const noexcept {
    return event_country_;
  }
  /// Average document tone of each event.
  std::span<const double> events_tone() const noexcept { return event_tone_; }
  /// Goldstein conflict-cooperation score of each event.
  std::span<const double> event_goldstein() const noexcept {
    return event_goldstein_;
  }
  /// CAMEO quad class (1..4) of each event.
  std::span<const std::uint8_t> event_quad_class() const noexcept {
    return event_quad_class_;
  }
  /// First-article URL of event row r.
  std::string_view event_source_url(std::size_t r) const noexcept {
    return events_.GetColumn("source_url").StringAt(r);
  }

  // --- derived ---
  /// Country of each dictionary source (TLD heuristic); kNoCountry if the
  /// TLD is unknown.
  std::span<const std::uint16_t> source_country() const noexcept {
    return source_country_;
  }
  /// True article count per event row (orphans excluded).
  std::span<const std::uint32_t> event_article_count() const noexcept {
    return event_article_count_;
  }

  // --- indexes (valid when LoadOptions::build_indexes) ---
  /// Mentions of each event row, ascending capture time.
  const CsrIndex& mentions_by_event() const noexcept {
    return mentions_by_event_;
  }
  /// Mentions of each source id, ascending capture time.
  const CsrIndex& mentions_by_source() const noexcept {
    return mentions_by_source_;
  }

  /// Memoized event -> distinct-source index: for every event row, the
  /// sorted, deduplicated source ids that reported on it. Built lazily in
  /// parallel on first use (a Memo entry) and kept for the lifetime of
  /// the database; the whole co-reporting query family shares it instead
  /// of re-walking mentions_by_event() and re-sorting per event on every
  /// invocation. Requires LoadOptions::build_indexes. Kernels fetch it
  /// once per call, outside their parallel bodies: callers that miss at
  /// the same moment each build a copy.
  const CsrSetIndex& event_distinct_sources() const;

  /// The memoized value of `tag`, built by `build()` (returning T) on
  /// first use. Thread-safe: the build runs outside the memo's lock, so
  /// callers racing on a missing entry may each build; the first to
  /// finish publishes and every caller gets that value. A build whose
  /// `cancel` token has fired publishes nothing and yields kCancelled
  /// (a pre-cancelled call does not build at all). Entries live as long
  /// as the database.
  template <typename T, typename Build>
  Result<std::shared_ptr<const T>> Memo(
      const MemoTag<T>& tag, Build&& build,
      const util::CancelToken* cancel = nullptr) const {
    if (auto hit = MemoFind(&tag)) return std::static_pointer_cast<const T>(hit);
    if (util::Cancelled(cancel)) {
      return status::Cancelled("memo build cancelled");
    }
    std::shared_ptr<const T> built;
    {
      trace::Span span(tag.span);
      built = std::make_shared<const T>(std::forward<Build>(build)());
    }
    if (util::Cancelled(cancel)) {
      return status::Cancelled("memo build cancelled");
    }
    const std::size_t bytes = tag.bytes(*built);
    return std::static_pointer_cast<const T>(
        MemoPublish(&tag, std::move(built), bytes));
  }

  /// Memo activity since load: builds run to completion (a build that
  /// lost a publish race counts too) and lookups served from an entry.
  struct MemoStats {
    std::uint64_t builds = 0;
    std::uint64_t hits = 0;
  };
  MemoStats memo_stats() const noexcept;

  const StringDictionary& sources() const noexcept { return sources_; }

  /// Domain name of a source id.
  std::string_view source_domain(std::uint32_t id) const noexcept {
    return sources_.At(id);
  }

  /// Timeline bounds over mention capture intervals ([first, last]).
  std::int64_t first_interval() const noexcept { return first_interval_; }
  std::int64_t last_interval() const noexcept { return last_interval_; }

  /// Total heap footprint (tables + indexes + memo), for the load report.
  std::size_t MemoryBytes() const noexcept;

 private:
  struct MemoStore;

  /// The published value of `key`, or nullptr (counts a hit when found).
  std::shared_ptr<const void> MemoFind(const void* key) const;
  /// Publishes `value` under `key` unless an entry already exists; returns
  /// whichever value is published.
  std::shared_ptr<const void> MemoPublish(const void* key,
                                          std::shared_ptr<const void> value,
                                          std::size_t bytes) const;

  Table events_;
  Table mentions_;
  StringDictionary sources_;

  std::size_t num_events_ = 0;
  std::size_t num_mentions_ = 0;

  // cached spans into the tables
  std::span<const std::uint32_t> mention_event_row_;
  std::span<const std::int64_t> mention_event_interval_;
  std::span<const std::int64_t> mention_interval_;
  std::span<const std::uint32_t> mention_source_id_;
  std::span<const std::uint8_t> mention_confidence_;
  std::span<const std::uint64_t> event_global_id_;
  std::span<const std::int64_t> event_added_interval_;
  std::span<const std::uint16_t> event_country_;
  std::span<const double> event_tone_;
  std::span<const double> event_goldstein_;
  std::span<const std::uint8_t> event_quad_class_;

  std::vector<std::uint16_t> source_country_;
  std::vector<std::uint32_t> event_article_count_;
  CsrIndex mentions_by_event_;
  CsrIndex mentions_by_source_;
  std::int64_t first_interval_ = 0;
  std::int64_t last_interval_ = 0;

  // Behind a pointer so Database stays movable (the lock is not) and
  // references into memoized values survive a move.
  std::unique_ptr<MemoStore> memo_;
};

}  // namespace gdelt::engine
