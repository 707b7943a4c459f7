// Tests for the whole-base aggregate memo (engine::Database::Memo and
// serve/base_memo): memoized text is byte-identical to a first call on a
// freshly loaded database, memoized rankings are exact prefixes, a
// cancelled build publishes nothing, racing first uses agree, and warm
// requests do no table work.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "analysis/firstreport.hpp"
#include "analysis/followreport.hpp"
#include "convert/converter.hpp"
#include "engine/queries.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "parallel/morsel.hpp"
#include "parallel/parallel.hpp"
#include "serve/base_memo.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace gdelt::serve {
namespace {

using ::gdelt::testing::TempDir;

constexpr const char* kKinds[] = {
    "stats",    "top-sources",  "top-events",       "quarterly",
    "coreport", "follow",       "country-coreport", "cross-report",
    "delay",    "tone",         "first-reports"};

class BaseMemoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dirs_ = new TempDir("base_memo");
    auto cfg = gen::GeneratorConfig::Tiny();
    // Enough events for many tone summation blocks.
    cfg.events_per_interval_mean = 8.0;
    cfg.defect_missing_archives = 0;
    const auto dataset = gen::GenerateDataset(cfg);
    ASSERT_TRUE(gen::EmitDataset(dataset, cfg, dirs_->path() + "/raw").ok());
    convert::ConvertOptions options;
    options.input_dir = dirs_->path() + "/raw";
    options.output_dir = dirs_->path() + "/db";
    ASSERT_TRUE(convert::ConvertDataset(options).ok());
    warm_ = new engine::Database(Fresh());
  }
  static void TearDownTestSuite() {
    delete warm_;
    delete dirs_;
  }

  static engine::Database Fresh() {
    auto db = engine::Database::Load(dirs_->path() + "/db");
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  static Request Parse(const std::string& line) {
    auto r = ParseRequest(line);
    EXPECT_TRUE(r.ok()) << line << ": " << r.status().ToString();
    return *r;
  }

  static std::string Line(const std::string& kind, std::size_t top,
                          bool windowed) {
    std::string line = R"({"query":")" + kind +
                       R"(","top":)" + std::to_string(top);
    if (windowed) {
      line += R"(,"from":"20150225000000","to":"20150310000000",)"
              R"("min_confidence":20)";
    }
    return line + "}";
  }

  static std::string Text(const engine::Database& db, const Request& r,
                          const util::CancelToken* cancel = nullptr) {
    auto rendered = RenderQuery(db, r, parallel::Backend::kMorselPool, cancel);
    EXPECT_TRUE(rendered.ok()) << rendered.status().ToString();
    return rendered.ok() ? rendered->text : std::string();
  }

  static std::uint64_t Morsels() {
    const auto s = parallel::MorselPool::Shared().stats();
    return s.morsels + s.morsels_skipped;
  }

  static inline TempDir* dirs_ = nullptr;
  static inline engine::Database* warm_ = nullptr;
};

TEST_F(BaseMemoTest, WarmTextMatchesFirstCallOnFreshDatabase) {
  const std::size_t tops[] = {1, 10, 16, 100, 400, warm_->num_sources() + 7};
  for (const char* kind : kKinds) {
    for (const std::size_t top : tops) {
      for (const bool windowed : {false, true}) {
        const Request r = Parse(Line(kind, top, windowed));
        const engine::Database fresh = Fresh();
        const std::string first = Text(fresh, r);
        EXPECT_FALSE(first.empty());
        EXPECT_EQ(Text(*warm_, r), first)
            << kind << " top " << top << (windowed ? " windowed" : "");
      }
    }
  }
}

TEST_F(BaseMemoTest, RankingsArePrefixesOfTheFullRanking) {
  auto sources = BaseSourceRanking(*warm_);
  ASSERT_TRUE(sources.ok());
  EXPECT_EQ((*sources)->articles, engine::ArticlesPerSource(*warm_));
  for (std::size_t k = 0; k <= warm_->num_sources() + 2; ++k) {
    const auto top = (*sources)->Top(k);
    EXPECT_EQ(std::vector<std::uint32_t>(top.begin(), top.end()),
              engine::TopSourcesByArticles(*warm_, k))
        << "k " << k;
  }
  auto countries = BaseCountryRankings(*warm_);
  ASSERT_TRUE(countries.ok());
  for (std::size_t k = 0; k <= Countries().size() + 2; ++k) {
    EXPECT_EQ((*countries)->TopReported(k),
              engine::CountriesByReportedEvents(*warm_, k))
        << "k " << k;
    EXPECT_EQ((*countries)->TopPublishing(k),
              engine::CountriesByPublishedArticles(*warm_, k))
        << "k " << k;
  }
}

TEST_F(BaseMemoTest, CancelledFirstCallPublishesNothing) {
  const engine::Database fresh = Fresh();
  const std::size_t bytes_before = fresh.MemoryBytes();
  util::CancelToken cancelled;
  cancelled.Cancel(util::CancelReason::kDisconnect);
  for (const char* kind : kKinds) {
    auto rendered = RenderQuery(fresh, Parse(Line(kind, 10, false)),
                                parallel::Backend::kMorselPool, &cancelled);
    ASSERT_FALSE(rendered.ok()) << kind;
    EXPECT_EQ(rendered.status().code(), StatusCode::kCancelled) << kind;
  }
  EXPECT_EQ(fresh.memo_stats().builds, 0u);
  EXPECT_EQ(fresh.MemoryBytes(), bytes_before);
  for (const char* kind : kKinds) {
    const Request r = Parse(Line(kind, 10, false));
    EXPECT_EQ(Text(fresh, r), Text(*warm_, r)) << kind;
  }
}

TEST_F(BaseMemoTest, RacingFirstUsesRenderIdenticalText) {
  const engine::Database fresh = Fresh();
  std::vector<Request> requests;
  std::vector<std::string> expected;
  for (const char* kind : kKinds) {
    requests.push_back(Parse(Line(kind, 16, false)));
    expected.push_back(Text(*warm_, requests.back()));
  }
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (const Request& r : requests) got[t].push_back(Text(fresh, r));
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected) << t;
}

TEST_F(BaseMemoTest, MemoCountsBuildsHitsAndBytes) {
  const engine::Database fresh = Fresh();
  const std::size_t bytes_before = fresh.MemoryBytes();
  for (const char* kind : kKinds) Text(fresh, Parse(Line(kind, 10, false)));
  // source ranking, country rankings, delay, first-reports,
  // country-coreport, cross-report, quarterly, stats, tone, and the
  // event -> distinct-source index.
  EXPECT_EQ(fresh.memo_stats().builds, 10u);
  EXPECT_GT(fresh.MemoryBytes(), bytes_before);
  const auto hits = fresh.memo_stats().hits;
  Text(fresh, Parse(Line("delay", 5, false)));
  EXPECT_EQ(fresh.memo_stats().builds, 10u);
  EXPECT_EQ(fresh.memo_stats().hits, hits + 2);  // delay + source ranking
}

TEST_F(BaseMemoTest, WarmRequestsRunNoMorsels) {
  const engine::Database fresh = Fresh();
  for (const char* kind :
       {"delay", "first-reports", "country-coreport", "quarterly",
        "top-sources"}) {
    Text(fresh, Parse(Line(kind, 10, false)));
    const auto before = Morsels();
    Text(fresh, Parse(Line(kind, 17, false)));
    EXPECT_EQ(Morsels() - before, 0u) << kind;
  }
  // The coreport/follow kernels are not memoized: a warm request runs
  // exactly the morsels of the first one.
  for (const char* kind : {"coreport", "follow"}) {
    const Request r = Parse(Line(kind, 10, false));
    const engine::Database cold = Fresh();
    auto before = Morsels();
    Text(cold, r);
    const auto first = Morsels() - before;
    before = Morsels();
    Text(cold, r);
    EXPECT_GT(first, 0u) << kind;
    EXPECT_EQ(Morsels() - before, first) << kind;
  }
}

// The first-reports and follow kernels read the event -> distinct-source
// index in every parallel body; they fetch it once per call, so a cold
// call builds it once rather than once per worker or OpenMP thread.
TEST_F(BaseMemoTest, KernelsOnAColdDatabaseBuildTheIndexOnce) {
  const int saved = MaxThreads();
  SetThreads(4);
  const auto subset = engine::TopSourcesByArticles(*warm_, 16);
  for (const auto backend :
       {parallel::Backend::kMorselPool, parallel::Backend::kOpenMp}) {
    const engine::Database first_reports = Fresh();
    analysis::ComputeFirstReports(first_reports, 18, backend);
    EXPECT_EQ(first_reports.memo_stats().builds, 1u);
    const engine::Database follow = Fresh();
    analysis::ComputeFollowReporting(follow, subset, backend);
    EXPECT_EQ(follow.memo_stats().builds, 1u);
  }
  SetThreads(saved);
}

TEST_F(BaseMemoTest, TopSourcesScansSourceColumnOncePerDatabase) {
  const engine::Database fresh = Fresh();
  auto scans = [&](std::size_t top) {
    trace::Collector collector;
    Text(fresh, Parse(Line("top-sources", top, false)));
    int n = 0;
    for (const auto& span : collector.spans()) {
      n += span.name == "engine.articles_per_source";
    }
    return n;
  };
  EXPECT_EQ(scans(5), 1);
  EXPECT_EQ(scans(50), 0);
}

TEST_F(BaseMemoTest, BuildIsTracedUnderTheAggregateName) {
  const engine::Database fresh = Fresh();
  trace::Collector collector;
  Text(fresh, Parse(Line("delay", 5, false)));
  std::vector<std::string> names;
  for (const auto& span : collector.spans()) names.push_back(span.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "memo.build.delay"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "memo.build.source_ranking"),
            names.end());
}

TEST_F(BaseMemoTest, ToneTextIsIndependentOfTeamSize) {
  const int saved = MaxThreads();
  const Request r = Parse(Line("tone", 20, false));
  std::vector<std::string> texts;
  for (const int threads : {1, 2, 3, 4}) {
    SetThreads(threads);
    const engine::Database fresh = Fresh();
    texts.push_back(Text(fresh, r));
  }
  SetThreads(saved);
  for (std::size_t i = 1; i < texts.size(); ++i) {
    EXPECT_EQ(texts[i], texts[0]) << "threads " << i + 1;
  }
}

}  // namespace
}  // namespace gdelt::serve
