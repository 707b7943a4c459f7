#include "traffic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "gtime/timestamp.hpp"

namespace perfbench {

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::int64_t Rng::Between(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(Next() % span);
}

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng mix(seed * 0x100000001B3ull ^ (stream + 1) * 0x9E3779B97F4A7C15ull);
  return mix.Next();
}

std::uint32_t RequestTable::Intern(const std::string& line) {
  gdelt::sync::MutexLock lock(mu_);
  const auto [it, inserted] =
      index_.try_emplace(line, static_cast<std::uint32_t>(lines_.size()));
  if (inserted) lines_.push_back(line);
  return it->second;
}

std::string RequestTable::Line(std::uint32_t key) const {
  gdelt::sync::MutexLock lock(mu_);
  return lines_.at(key);
}

std::size_t RequestTable::size() const {
  gdelt::sync::MutexLock lock(mu_);
  return lines_.size();
}

bool IsInteractiveKind(const std::string& kind) {
  return kind == "top-sources" || kind == "top-events" ||
         kind == "cross-report" || kind == "stats" || kind == "tone";
}

const std::vector<std::string>& AllKinds() {
  static const std::vector<std::string> kinds = {
      "stats",    "top-sources",      "top-events",   "quarterly",
      "coreport", "follow",           "country-coreport", "cross-report",
      "delay",    "tone",             "first-reports"};
  return kinds;
}

namespace {
constexpr std::int64_t kIntervalsPerWeek = 672;
}  // namespace

std::string Timeline::WeekStart(int w) const {
  return gdelt::FormatGdeltTimestamp(gdelt::IntervalStartCivil(
      first_interval + static_cast<std::int64_t>(w) * kIntervalsPerWeek));
}

std::string QueryLine(const std::string& kind, std::size_t top,
                      const Timeline& t, int from_week, int weeks,
                      int min_confidence) {
  std::string line = "{\"query\":\"" + kind + "\",\"top\":" +
                     std::to_string(top);
  if (from_week >= 0) {
    line += ",\"from\":\"" + t.WeekStart(from_week) + "\",\"to\":\"" +
            t.WeekStart(from_week + weeks) + "\"";
  }
  if (min_confidence > 0) {
    line += ",\"min_confidence\":" + std::to_string(min_confidence);
  }
  line += "}";
  return line;
}

namespace {

/// Zipf(1) cumulative weights over `n` ranks.
std::vector<double> ZipfCdf(std::size_t n) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// Fixed (seed-independent) rank order, so every seed sees the same hot
/// set and seeds differ only in the draws.
void FixedShuffle(std::vector<std::uint32_t>& keys) {
  Rng rng(0x5EED);
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Next() % i]);
  }
}

}  // namespace

DashboardMix::DashboardMix(const Timeline& t, RequestTable* table) {
  const auto space = [&](const std::string& kind, double weight,
                         const std::vector<std::string>& lines) {
    KindSpace s;
    s.kind = kind;
    s.weight = weight;
    for (const std::string& line : lines) s.keys.push_back(table->Intern(line));
    FixedShuffle(s.keys);
    s.cdf = ZipfCdf(s.keys.size());
    return s;
  };
  // Windowed/confidence-restricted variants: every week start, three
  // window lengths, two confidence floors.
  const auto windowed = [&](const std::string& kind) {
    std::vector<std::string> lines;
    for (const int len : {1, 4, 13}) {
      for (int w = 0; w + len <= t.weeks; ++w) {
        for (const int conf : {0, 50}) {
          lines.push_back(QueryLine(kind, 10, t, w, len, conf));
        }
      }
    }
    for (const std::size_t top : {5, 10, 20, 50}) {
      lines.push_back(QueryLine(kind, top, t));
    }
    return lines;
  };
  std::vector<std::string> top_events;
  for (std::size_t top = 1; top <= 64; ++top) {
    top_events.push_back(QueryLine("top-events", top, t));
  }
  std::vector<std::string> tone;
  for (const std::size_t top : {5, 10, 15, 20}) {
    tone.push_back(QueryLine("tone", top, t));
  }
  std::vector<std::string> cross;
  for (const std::size_t top : {5, 10, 20, 50}) {
    cross.push_back(QueryLine("cross-report", top, t));
  }
  // Only top-sources takes windows: a windowed cross-report miss holds
  // every core for 5-17 ms (its country aggregation is an OpenMP pass),
  // and those stalls made the p99 of this mix swing 3-11 ms between runs.
  kinds_ = {space("top-sources", 0.35, windowed("top-sources")),
            space("cross-report", 0.20, cross),
            space("top-events", 0.25, top_events),
            space("stats", 0.10, {QueryLine("stats", 10, t)}),
            space("tone", 0.10, tone)};
  light_ = {kinds_[0], kinds_[1], kinds_[2]};
  light_[0].weight = 0.45;
  light_[1].weight = 0.25;
  light_[2].weight = 0.30;
}

Draw DashboardMix::Pick(const std::vector<KindSpace>& kinds, Rng& rng) const {
  double u = rng.Unit();
  const KindSpace* chosen = &kinds.back();
  for (const KindSpace& k : kinds) {
    if (u < k.weight) {
      chosen = &k;
      break;
    }
    u -= k.weight;
  }
  const double v = rng.Unit();
  const auto rank = static_cast<std::size_t>(
      std::upper_bound(chosen->cdf.begin(), chosen->cdf.end(), v) -
      chosen->cdf.begin());
  return {chosen->keys[std::min(rank, chosen->keys.size() - 1)], chosen->kind};
}

Draw DashboardMix::Next(Rng& rng) { return Pick(kinds_, rng); }
Draw DashboardMix::NextLight(Rng& rng) { return Pick(light_, rng); }

Draw NextHeavy(const Timeline& t, RequestTable* table,
               const std::vector<std::string>& kinds, std::uint64_t g,
               int top_lo, int top_hi) {
  g %= kHeavyCycle;
  const std::size_t n = kinds.size();
  const std::string& kind = kinds[g % n];
  // Golden-ratio sequences over the cycle: `top`, the window length and
  // the window start cover their ranges evenly in any stretch of the
  // cycle, so the work a run asks for barely depends on where it starts.
  const auto spread = [&](double step) {
    const double u = static_cast<double>(g) * step;
    return u - static_cast<double>(static_cast<std::uint64_t>(u));
  };
  const auto top = static_cast<std::size_t>(
      top_lo + spread(0.6180339887) * (top_hi - top_lo + 1));
  std::string line;
  if ((g / n) % 2 == 0) {  // every kind alternates windowed and whole
    const int lo = std::min(4, t.weeks);
    const int len = lo + static_cast<int>(spread(0.7548776662) *
                                          (std::min(52, t.weeks) - lo + 1));
    const int from = static_cast<int>(spread(0.5698402910) * (t.weeks - len + 1));
    line = QueryLine(kind, top, t, from, len);
  } else {
    line = QueryLine(kind, top, t);
  }
  return {table->Intern(line), kind};
}

Draw NextForeground(const Timeline& t, RequestTable* table, Rng& rng) {
  static constexpr int kConf[] = {0, 20, 50, 80};
  const int len = static_cast<int>(rng.Between(1, std::min(26, t.weeks)));
  const int from = static_cast<int>(rng.Between(0, t.weeks - len));
  const int conf = kConf[rng.Next() % 4];
  return {table->Intern(QueryLine("top-sources", 10, t, from, len, conf)),
          "top-sources"};
}

}  // namespace perfbench
