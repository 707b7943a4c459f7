// Request generation: the four workloads' traffic mixes.
//
// Every request the servers see is a protocol line generated here from
// the workload seed; the same seed yields the same request sequence per
// client. Parameter spaces (windows, `top`) are laid out on the loaded
// database's timeline in whole weeks, so they do not depend on the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/sync.hpp"

namespace perfbench {

/// Deterministic 64-bit generator (splitmix64); portable across standard
/// libraries, unlike the <random> distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  std::int64_t Between(std::int64_t lo, std::int64_t hi);

 private:
  std::uint64_t state_;
};

/// Mixes a base seed with a stream number into an independent seed.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

/// The distinct request lines of one run, interned to dense keys so the
/// checker renders each reference once. Thread-safe.
class RequestTable {
 public:
  std::uint32_t Intern(const std::string& line);
  std::string Line(std::uint32_t key) const;
  std::size_t size() const;

 private:
  mutable gdelt::sync::Mutex mu_;
  std::vector<std::string> lines_ GDELT_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::uint32_t> index_ GDELT_GUARDED_BY(mu_);
};

/// Query kinds a dashboard user sends; their requests count toward
/// `interactive_p99_ms` on every workload.
bool IsInteractiveKind(const std::string& kind);

/// The eleven query kinds, in a fixed order.
const std::vector<std::string>& AllKinds();

/// The database timeline in weeks (672 fifteen-minute intervals).
struct Timeline {
  std::int64_t first_interval = 0;
  int weeks = 1;
  /// GDELT timestamp (YYYYMMDDHHMMSS) of the start of week `w`.
  std::string WeekStart(int w) const;
};

/// Builds a request line. `from_week < 0` means no window.
std::string QueryLine(const std::string& kind, std::size_t top,
                      const Timeline& t, int from_week = -1, int weeks = 0,
                      int min_confidence = 0);

/// A generated request: its interned key and kind.
struct Draw {
  std::uint32_t key = 0;
  std::string kind;
};

/// One client's request stream: its `i`-th request, drawn with the
/// client's own Rng.
using Generator = std::function<Draw(Rng&, std::uint64_t i)>;

/// The dashboard mix: interactive kinds, Zipf-distributed parameters over
/// a fixed key space of a few thousand requests.
class DashboardMix {
 public:
  DashboardMix(const Timeline& t, RequestTable* table);
  Draw Next(Rng& rng);
  /// The light decomposable subset (top-sources, top-events,
  /// cross-report) the routed workload mixes with heavy kinds.
  Draw NextLight(Rng& rng);

 private:
  struct KindSpace {
    std::string kind;
    double weight = 0;
    std::vector<std::uint32_t> keys;  ///< Zipf rank order
    std::vector<double> cdf;
  };
  Draw Pick(const std::vector<KindSpace>& kinds, Rng& rng) const;

  std::vector<KindSpace> kinds_;
  std::vector<KindSpace> light_;
};

/// Length of the cycle of heavy requests. Every run walks a stretch of
/// it from a seed-derived start, so runs share their heavy requests and
/// the checker's stored references (see ReferenceStore) cover most of
/// them after a few runs. A key comes back only after kHeavyCycle heavy
/// requests, far more than the result cache holds.
inline constexpr std::uint64_t kHeavyCycle = 2400;

/// Heavy analysis `g` of the cycle: kinds[g % size] with `top` in
/// [top_lo, top_hi], every other rotation over a window, so keys do not
/// repeat within a cycle. The kind mix of any stretch is even.
Draw NextHeavy(const Timeline& t, RequestTable* table,
               const std::vector<std::string>& kinds, std::uint64_t g,
               int top_lo = 16, int top_hi = 400);

/// The analyst's foreground client: windowed top-sources.
Draw NextForeground(const Timeline& t, RequestTable* table, Rng& rng);

}  // namespace perfbench
