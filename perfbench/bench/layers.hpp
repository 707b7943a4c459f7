// Per-layer probes of the traced run.
//
// Each probe drives one layer in isolation through its public functions,
// with a single caller and nothing else running, and appends its metrics
// to the report. The per-kind probes use one fixed request per kind
// (top 10, no window), so their exact counts repeat across seeds.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "traffic.hpp"

namespace perfbench {

/// `columnar.table_read_s` and `io.crc32_mb_s` over the run's tables.
void ProbeStorage(const std::string& db_dir, std::vector<Metric>& out);

/// `engine.select_bitmap_ms` for a 13-week, confidence >= 50 window.
void ProbeBitmap(const gdelt::engine::Database& db, const Timeline& t,
                 std::vector<Metric>& out);

/// Per kind: `analysis.kernel_ms.<kind>`, `serve.render_text_ms.<kind>`,
/// `parallel.morsels.<kind>`; per decomposable kind:
/// `partial.frame_render_ms.<kind>`, `partial.frame_bytes.<kind>`,
/// `partial.merge_ms.<kind>`. Returns the number of kinds whose merged
/// 2-shard frames differ from the single-node text.
int ProbeKinds(const gdelt::engine::Database& db, const Timeline& t,
               std::vector<Metric>& out);

/// `reps` passes of IngestArchivePair over `pairs`, each pass on a fresh
/// DeltaStore over `base`, one caller. `base` must not hold the pairs'
/// weeks already: an event seen before is rejected as malformed, which
/// would time the rejection path instead of an ingest.
struct IngestTiming {
  std::vector<double> ms;          ///< one per ingest
  std::uint64_t delta_rows = 0;    ///< events + mentions after a pass
  std::uint64_t failed = 0;        ///< ingests that erred or added malformed rows
};
IngestTiming TimeIngests(const gdelt::engine::Database& base,
                         const std::vector<std::pair<std::string, std::string>>& pairs,
                         int reps);

/// `stream.ingest_ms` (median of TimeIngests) and `stream.delta_rows`.
/// Returns the number of failed ingests.
std::uint64_t ProbeStream(const gdelt::engine::Database& base,
                          const std::vector<std::pair<std::string, std::string>>& pairs,
                          std::vector<Metric>& out);

/// Router probe: decomposable fixed requests through a router whose
/// shard s lives on `shard_ports[s]`, against the same sub-requests sent
/// directly. Sub-requests per query are counted on `backends` (the
/// distinct servers behind those ports); the stage vectors receive the
/// direct sub-requests' traced breakdowns.
struct RouterProbe {
  double overhead_p50_ms = 0;
  double subrequests_per_query = 0;
  std::vector<double> parse_ms, queue_wait_ms, execute_ms;
};
RouterProbe ProbeRouter(int router_port, const std::vector<int>& shard_ports,
                        const Timeline& t,
                        const std::vector<const gdelt::serve::Server*>& backends);

}  // namespace perfbench
