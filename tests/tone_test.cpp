#include "analysis/tone.hpp"

#include <gtest/gtest.h>

#include "convert/converter.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "parallel/parallel.hpp"
#include "test_util.hpp"

namespace gdelt::analysis {
namespace {

using ::gdelt::testing::TempDir;

class ToneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dirs_ = new TempDir("tone");
    auto cfg = gen::GeneratorConfig::Tiny();
    cfg.defect_missing_archives = 0;
    dataset_ = new gen::RawDataset(gen::GenerateDataset(cfg));
    ASSERT_TRUE(
        gen::EmitDataset(*dataset_, cfg, dirs_->path() + "/raw").ok());
    convert::ConvertOptions options;
    options.input_dir = dirs_->path() + "/raw";
    options.output_dir = dirs_->path() + "/db";
    ASSERT_TRUE(convert::ConvertDataset(options).ok());
    auto db = engine::Database::Load(dirs_->path() + "/db");
    ASSERT_TRUE(db.ok());
    db_ = new engine::Database(std::move(*db));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete dataset_;
    delete dirs_;
  }

  static inline TempDir* dirs_ = nullptr;
  static inline gen::RawDataset* dataset_ = nullptr;
  static inline engine::Database* db_ = nullptr;
};

TEST_F(ToneTest, ConflictClassesAreNegative) {
  const QuadClassTone result = ToneByQuadClass(*db_);
  // Classes 1/2 = cooperation (positive), 3/4 = conflict (negative).
  for (const std::size_t q : {1u, 2u}) {
    EXPECT_GT(result.tone[q].Mean(), 0.0) << "quad " << q;
    EXPECT_GT(result.goldstein[q].Mean(), 0.0) << "quad " << q;
    EXPECT_GT(result.tone[q].count, 0u);
  }
  for (const std::size_t q : {3u, 4u}) {
    EXPECT_LT(result.tone[q].Mean(), 0.0) << "quad " << q;
    EXPECT_LT(result.goldstein[q].Mean(), 0.0) << "quad " << q;
  }
  // Every event is in exactly one class 1..4.
  std::uint64_t total = 0;
  for (std::size_t q = 1; q <= 4; ++q) total += result.tone[q].count;
  EXPECT_EQ(total, db_->num_events());
  EXPECT_EQ(result.tone[0].count, 0u);
}

TEST_F(ToneTest, ByCountryMatchesBruteForce) {
  const auto by_country = AverageToneByCountry(*db_);
  // Brute force for the USA (the event-richest country) from the events
  // table itself (tone values round-trip the wire format at 2 decimals).
  const auto country = db_->event_country();
  const auto tone = db_->events_tone();
  double sum = 0.0;
  std::uint64_t count = 0;
  for (std::size_t e = 0; e < db_->num_events(); ++e) {
    if (country[e] == country::kUSA) {
      sum += tone[e];
      ++count;
    }
  }
  ASSERT_GT(count, 0u);
  EXPECT_EQ(by_country[country::kUSA].count, count);
  EXPECT_NEAR(by_country[country::kUSA].Mean(), sum / count, 1e-9);
}

TEST_F(ToneTest, SumsAreIndependentOfTeamSize) {
  const int saved = MaxThreads();
  SetThreads(1);
  const auto by_country = AverageToneByCountry(*db_);
  const auto by_quad = ToneByQuadClass(*db_);
  for (const int threads : {2, 3, 4}) {
    SetThreads(threads);
    const auto country = AverageToneByCountry(*db_);
    const auto quad = ToneByQuadClass(*db_);
    ASSERT_EQ(country.size(), by_country.size());
    for (std::size_t c = 0; c < country.size(); ++c) {
      EXPECT_EQ(country[c].sum, by_country[c].sum)
          << "country " << c << ", " << threads << " threads";
      EXPECT_EQ(country[c].count, by_country[c].count);
    }
    for (std::size_t q = 0; q < 5; ++q) {
      EXPECT_EQ(quad.tone[q].sum, by_quad.tone[q].sum) << threads;
      EXPECT_EQ(quad.goldstein[q].sum, by_quad.goldstein[q].sum) << threads;
    }
  }
  SetThreads(saved);
}

TEST_F(ToneTest, QuarterlyToneCoversAllEvents) {
  const QuarterlyTone q = QuarterlyAverageTone(*db_);
  std::uint64_t total = 0;
  for (const auto& acc : q.values) {
    total += acc.count;
    if (acc.count > 0) {
      EXPECT_GT(acc.Mean(), -10.0);
      EXPECT_LT(acc.Mean(), 10.0);
    }
  }
  EXPECT_EQ(total, db_->num_events());
}

TEST(MeanAccumulatorTest, EmptyIsZero) {
  MeanAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.Mean(), 0.0);
}

}  // namespace
}  // namespace gdelt::analysis
