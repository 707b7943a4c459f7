#include "layers.hpp"

#include <cstdio>

#include "analysis/coreport.hpp"
#include "analysis/country.hpp"
#include "analysis/delay.hpp"
#include "analysis/distributions.hpp"
#include "analysis/firstreport.hpp"
#include "analysis/followreport.hpp"
#include "analysis/stats.hpp"
#include "analysis/tone.hpp"
#include "columnar/table.hpp"
#include "engine/filter.hpp"
#include "engine/queries.hpp"
#include "io/crc32.hpp"
#include "io/file.hpp"
#include "parallel/morsel.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/partial.hpp"
#include "serve/render.hpp"
#include "stream/delta_store.hpp"

namespace perfbench {

namespace engine = gdelt::engine;
namespace analysis = gdelt::analysis;
namespace serve = gdelt::serve;
using gdelt::parallel::Backend;

namespace {

constexpr int kReps = 3;

template <typename F>
double TimeMs(F&& f) {
  const auto start = Clock::now();
  f();
  return MsBetween(start, Clock::now());
}

/// The kernel calls RenderQuery makes for an unrestricted request of
/// `kind`, without the text formatting (serve/render.cpp).
void RunKernel(const engine::Database& db, const std::string& kind,
               std::size_t top_k) {
  std::size_t sink = 0;
  if (kind == "stats") {
    sink += analysis::ComputeDatasetStatistics(db).articles;
    sink += static_cast<std::size_t>(analysis::EventSizePowerLawAlpha(db, 2));
  } else if (kind == "top-sources") {
    sink += engine::ArticlesPerSource(db).size();
    sink += engine::TopSourcesByArticles(db, top_k).size();
  } else if (kind == "top-events") {
    sink += engine::TopReportedEvents(db, top_k).size();
  } else if (kind == "quarterly") {
    sink += engine::ActiveSourcesPerQuarter(db).values.size();
    sink += engine::EventsPerQuarter(db).values.size();
    sink += engine::ArticlesPerQuarter(db).values.size();
  } else if (kind == "coreport") {
    const auto top = engine::TopSourcesByArticles(db, top_k);
    analysis::TiledCoReportOptions options;
    options.use_morsel_pool = true;
    sink += analysis::ComputeCoReporting(db, top, options).size();
  } else if (kind == "follow") {
    const auto top = engine::TopSourcesByArticles(db, top_k);
    sink += analysis::ComputeFollowReporting(db, top, Backend::kMorselPool)
                .articles.size();
  } else if (kind == "country-coreport") {
    sink += analysis::ComputeCountryCoReporting(db).event_counts.size();
    sink += engine::CountriesByPublishedArticles(db, top_k).size();
  } else if (kind == "cross-report") {
    sink += engine::CountryCrossReporting(db).counts.size();
    sink += engine::CountriesByReportedEvents(db, top_k).size();
    sink += engine::CountriesByPublishedArticles(db, top_k).size();
  } else if (kind == "delay") {
    sink += analysis::PerSourceDelayStats(db, Backend::kMorselPool).size();
    sink += engine::TopSourcesByArticles(db, top_k).size();
    sink += analysis::QuarterlyDelayStats(db).median.size();
  } else if (kind == "tone") {
    sink += static_cast<std::size_t>(analysis::ToneByQuadClass(db).tone[1].count);
    sink += analysis::AverageToneByCountry(db).size();
    sink += engine::CountriesByReportedEvents(db, top_k).size();
  } else if (kind == "first-reports") {
    sink += analysis::ComputeFirstReports(db, 18, Backend::kMorselPool)
                .first_reports.size();
    sink += engine::ArticlesPerSource(db).size();
  }
  static volatile std::size_t keep = 0;
  keep = keep + sink;
}

serve::Request Parse(const std::string& line) {
  auto r = serve::ParseRequest(line);
  if (!r.ok()) {
    std::fprintf(stderr, "bad probe request %s: %s\n", line.c_str(),
                 r.status().ToString().c_str());
    std::abort();
  }
  return *r;
}

std::string PartialLine(const std::string& kind, std::uint32_t shard) {
  return "{\"query\":\"" + kind + "\",\"top\":10,\"partial\":true,\"shard\":" +
         std::to_string(shard) + ",\"of\":2}";
}

}  // namespace

void ProbeStorage(const std::string& db_dir, std::vector<Metric>& out) {
  double read_ms = 0;
  for (const char* table : {"/events.tbl", "/mentions.tbl"}) {
    read_ms += TimeMs([&] {
      auto t = gdelt::Table::ReadFromFile(db_dir + table);
      if (!t.ok()) std::fprintf(stderr, "table read failed: %s\n", table);
    });
  }
  out.push_back({"columnar.table_read_s", read_ms / 1e3, "s",
                 "events.tbl + mentions.tbl"});

  auto bytes = gdelt::ReadWholeFile(db_dir + "/mentions.tbl");
  std::vector<double> rates;
  if (bytes.ok()) {
    for (int r = 0; r < kReps; ++r) {
      std::uint32_t crc = 0;
      const double ms = TimeMs([&] {
        crc = gdelt::Crc32Update(0, bytes->data(), bytes->size());
      });
      static volatile std::uint32_t keep = 0;
      keep = crc;
      rates.push_back(static_cast<double>(bytes->size()) / 1e6 / (ms / 1e3));
    }
  }
  out.push_back({"io.crc32_mb_s", Median(rates), "MB/s", "over mentions.tbl"});
}

void ProbeBitmap(const engine::Database& db, const Timeline& t,
                 std::vector<Metric>& out) {
  engine::MentionFilter filter;
  const int from = t.weeks / 2;
  filter.begin_interval = t.first_interval + from * 672LL;
  filter.end_interval = filter.begin_interval + 13 * 672LL;
  filter.min_confidence = 50;
  std::vector<double> ms;
  for (int r = 0; r < 5; ++r) {
    ms.push_back(TimeMs([&] {
      static volatile std::uint64_t keep = 0;
      keep = engine::SelectMentionsBitmap(db, filter).CountSet();
    }));
  }
  out.push_back({"engine.select_bitmap_ms", Median(ms), "ms"});
}

int ProbeKinds(const engine::Database& db, const Timeline& t,
               std::vector<Metric>& out) {
  auto& pool = gdelt::parallel::MorselPool::Shared();
  int merge_mismatches = 0;
  for (const std::string& kind : AllKinds()) {
    const serve::Request request = Parse(QueryLine(kind, 10, t));
    std::vector<double> kernel_ms, render_ms;
    std::uint64_t morsels = 0;
    std::string text;
    for (int r = 0; r < kReps; ++r) {
      kernel_ms.push_back(TimeMs([&] { RunKernel(db, kind, 10); }));
      const auto before = pool.stats();
      render_ms.push_back(TimeMs([&] {
        auto rendered = serve::RenderQuery(db, request);
        if (rendered.ok()) text = rendered->text;
      }));
      const auto after = pool.stats();
      morsels = (after.morsels + after.morsels_skipped) -
                (before.morsels + before.morsels_skipped);
    }
    const double kernel = Median(kernel_ms);
    out.push_back({"analysis.kernel_ms." + kind, kernel, "ms"});
    out.push_back({"serve.render_text_ms." + kind, Median(render_ms) - kernel,
                   "ms", "RenderQuery minus kernel"});
    out.push_back({"parallel.morsels." + kind, static_cast<double>(morsels),
                   "count", "", true});

    if (!serve::IsPartialQueryKind(kind)) continue;
    std::vector<double> frame_ms, merge_ms;
    std::uint64_t frame_bytes = 0;
    std::string merged;
    for (int r = 0; r < kReps; ++r) {
      std::vector<std::string> frames;
      for (std::uint32_t shard = 0; shard < 2; ++shard) {
        const serve::Request part = Parse(PartialLine(kind, shard));
        frame_ms.push_back(TimeMs([&] {
          auto frame = serve::RenderPartialFrame(db, part, Backend::kMorselPool);
          frames.push_back(frame.ok() ? frame->text : std::string());
        }));
      }
      frame_bytes = frames[0].size() + frames[1].size();
      merge_ms.push_back(TimeMs([&] {
        std::vector<serve::JsonValue> parsed;
        for (const std::string& f : frames) {
          auto v = serve::JsonValue::Parse(f);
          if (v.ok()) parsed.push_back(std::move(*v));
        }
        auto m = serve::MergePartialFrames(request, parsed);
        merged = m.ok() ? *m : std::string();
      }));
    }
    if (merged != text) {
      ++merge_mismatches;
      std::printf("check partial merge of %s: differs from single node\n",
                  kind.c_str());
    }
    out.push_back({"partial.frame_render_ms." + kind, Median(frame_ms), "ms",
                   "one shard of 2"});
    out.push_back({"partial.frame_bytes." + kind,
                   static_cast<double>(frame_bytes), "bytes", "both shards",
                   true});
    out.push_back({"partial.merge_ms." + kind, Median(merge_ms), "ms",
                   "JSON parse + MergePartialFrames"});
  }
  return merge_mismatches;
}

IngestTiming TimeIngests(const engine::Database& base,
                         const std::vector<std::pair<std::string, std::string>>& pairs,
                         int reps) {
  IngestTiming timing;
  for (int rep = 0; rep < reps; ++rep) {
    gdelt::stream::DeltaStore store(&base);
    for (const auto& [events, mentions] : pairs) {
      const std::uint64_t malformed = store.malformed_rows();
      gdelt::Status status;
      timing.ms.push_back(
          TimeMs([&] { status = store.IngestArchivePair(events, mentions); }));
      if (!status.ok() || store.malformed_rows() != malformed) {
        std::printf("check ingest of %s: %s, %llu malformed rows\n",
                    events.c_str(), status.ToString().c_str(),
                    static_cast<unsigned long long>(store.malformed_rows() - malformed));
        ++timing.failed;
      }
    }
    const auto snap = store.Acquire();
    timing.delta_rows = snap->delta_events() + snap->delta_mentions();
  }
  return timing;
}

std::uint64_t ProbeStream(const engine::Database& base,
                          const std::vector<std::pair<std::string, std::string>>& pairs,
                          std::vector<Metric>& out) {
  const IngestTiming timing = TimeIngests(base, pairs, kReps);
  out.push_back({"stream.ingest_ms", Median(timing.ms), "ms",
                 "IngestArchivePair, one weekly chunk pair (n=" +
                     std::to_string(timing.ms.size()) + ")"});
  out.push_back({"stream.delta_rows", static_cast<double>(timing.delta_rows),
                 "count", "", true});
  return timing.failed;
}

RouterProbe ProbeRouter(int router_port, const std::vector<int>& shard_ports,
                        const Timeline& t,
                        const std::vector<const serve::Server*>& backends) {
  RouterProbe probe;
  auto routed = serve::LineClient::Connect("127.0.0.1", router_port);
  std::vector<serve::LineClient> direct;
  for (const int port : shard_ports) {
    auto c = serve::LineClient::Connect("127.0.0.1", port);
    if (!c.ok() || !routed.ok()) return probe;
    direct.push_back(std::move(*c));
  }
  const auto backend_requests = [&] {
    std::uint64_t n = 0;
    for (const auto* b : backends) n += b->metrics().requests_total.load();
    return n;
  };
  std::vector<double> overhead;
  std::uint64_t routed_requests = 0, sub_requests = 0;
  for (const std::string& kind : AllKinds()) {
    if (!serve::IsPartialQueryKind(kind)) continue;
    const std::string line = QueryLine(kind, 10, t);
    const serve::Request request = Parse(line);
    const auto of = static_cast<std::uint32_t>(shard_ports.size());
    // Warm both paths' caches once, then time them warm.
    (void)routed->RoundTrip(line);
    for (int r = 0; r < kReps; ++r) {
      double slowest = 0;
      for (std::uint32_t s = 0; s < of; ++s) {
        std::string sub = serve::BuildShardRequestLine(request, s, of);
        slowest = std::max(slowest, TimeMs([&] {
          (void)direct[s].RoundTrip(sub);
        }));
        // `top` above 400 lies outside every workload's parameter space,
        // so this sub-request misses the cache and reports all stages.
        const std::string cold = serve::BuildShardRequestLine(
            Parse(QueryLine(kind, 401 + r, t)), s, of);
        auto traced = direct[s].RoundTrip("{\"trace\":true," + cold.substr(1));
        if (!traced.ok()) continue;
        auto v = serve::JsonValue::Parse(*traced);
        const auto* tr = v.ok() ? v->Find("trace") : nullptr;
        const auto* stages = tr ? tr->Find("stages") : nullptr;
        if (stages == nullptr) continue;
        for (const auto& st : stages->elements()) {
          const std::string& name = st.Find("name")->AsString();
          const double ms = st.Find("ms")->AsNumber();
          if (name == "parse") probe.parse_ms.push_back(ms);
          if (name == "queue_wait") probe.queue_wait_ms.push_back(ms);
          if (name == "execute") probe.execute_ms.push_back(ms);
        }
      }
      const std::uint64_t before = backend_requests();
      const double via_router = TimeMs([&] { (void)routed->RoundTrip(line); });
      sub_requests += backend_requests() - before;
      ++routed_requests;
      overhead.push_back(via_router - slowest);
    }
  }
  probe.overhead_p50_ms = Median(overhead);
  probe.subrequests_per_query =
      routed_requests ? static_cast<double>(sub_requests) /
                            static_cast<double>(routed_requests)
                      : 0;
  return probe;
}

}  // namespace perfbench
