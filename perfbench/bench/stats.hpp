// Small shared helpers of the benchmark binary: clocks, order
// statistics, response-line inspection, process fingerprint, and the
// metric report printed at the end of a run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Arithmetic mean of `v` (0 when empty).
double Mean(const std::vector<double>& v);

/// A tail percentile the sample supports: the nearest-rank value at
/// quantile min(target, 1 - 10/n), i.e. the highest percentile at or
/// below `target` that still has at least ten samples beyond it.
struct Tail {
  double value = 0;
  double quantile = 0;  ///< the quantile actually reported
  std::size_t n = 0;
};
Tail TailPercentile(std::vector<double> v, double target);

/// Nearest-rank value at quantile q of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);

/// Mean of the values ranked within q +- max(0.02, 2.5/n), so about five
/// values at least. For server stage timings, which arrive rounded to
/// 1 us: a plain median of those repeats to the microsecond across runs.
double SmoothQuantile(std::vector<double> v, double q);

/// 64-bit FNV-1a.
std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t h = 1469598103934665603ull);

/// What the load generator needs from one response line without a full
/// JSON parse: whether it is an ok envelope, the hash of its `"text"`
/// member exactly as sent (escaped bytes), and the server's `wall_ms`.
struct ResponseView {
  bool ok = false;
  bool has_text = false;
  std::uint64_t text_hash = 0;
  double wall_ms = -1;
};
ResponseView InspectResponse(std::string_view line);

/// The hash InspectResponse reports for an ok response whose text is
/// exactly `text`.
std::uint64_t ExpectedTextHash(std::string_view text);

/// Peak resident set size of this process in MiB (VmHWM), and a reset of
/// that high-water mark (Linux clear_refs; false when unsupported).
double PeakRssMb();
bool ResetPeakRss();

/// User + system CPU time this process has used, in seconds.
double ProcessCpuSeconds();

/// Cumulative CPU time of all CPUs (/proc/stat, in ticks): the total and
/// the share stolen by the hypervisor. Zero when unreadable.
struct CpuTimes {
  std::uint64_t total = 0, steal = 0;
};
CpuTimes ReadCpuTimes();

/// Host and build fingerprint; runs with different fingerprints are not
/// compared.
std::string Fingerprint(const std::string& commit, const std::string& preset,
                        std::uint64_t seed, const std::string& workload,
                        std::size_t events, std::size_t mentions,
                        std::uint32_t sources);

/// One reported metric.
struct Metric {
  Metric(std::string name_, double value_, std::string unit_,
         std::string note_ = "", bool exact_ = false)
      : name(std::move(name_)), value(value_), unit(std::move(unit_)),
        note(std::move(note_)), exact(exact_) {}

  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< printed next to the value, not in the JSON line
  bool exact = false;  ///< a deterministic count, printed as an integer
};

/// Prints every metric as a `metric <name> = <value> <unit>` line, then
/// the final JSON result line.
void PrintReport(const std::vector<Metric>& metrics, bool correct,
                 std::uint64_t attempted, std::uint64_t failed);

}  // namespace perfbench
