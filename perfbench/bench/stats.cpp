#include "stats.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "parallel/parallel.hpp"
#include "serve/json.hpp"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = rank > 0 ? rank - 1 : 0;
  return v[std::min(rank, v.size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double SmoothQuantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto at = [&](double p) {
    return std::min(v.size() - 1,
                    static_cast<std::size_t>(std::max(0.0, std::ceil(p * n) - 1)));
  };
  const double band = std::max(0.02, 2.5 / n);  // five values at least
  const std::size_t lo = at(q - band), hi = at(q + band);
  double sum = 0;
  for (std::size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

Tail TailPercentile(std::vector<double> v, double target) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  const double supported = 1.0 - 10.0 / static_cast<double>(v.size());
  t.quantile = std::max(0.5, std::min(target, supported));
  t.value = Quantile(std::move(v), t.quantile);
  return t;
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {
constexpr std::string_view kTextKey = ",\"text\":";
}  // namespace

ResponseView InspectResponse(std::string_view line) {
  ResponseView view;
  // Ok envelopes open with {"id":<string>,"ok":true; the benchmark sends
  // no ids, so the flag sits right at the front.
  view.ok = line.substr(0, 32).find("\"ok\":true") != std::string_view::npos;
  if (!view.ok) return view;
  const std::size_t wall = line.find("\"wall_ms\":");
  if (wall != std::string_view::npos) {
    view.wall_ms = std::strtod(line.data() + wall + 10, nullptr);
  }
  // The text member is the last one of a query envelope; its escaped
  // payload cannot contain an unescaped `,"text":`.
  const std::size_t text = line.rfind(kTextKey);
  if (text != std::string_view::npos) {
    view.has_text = true;
    view.text_hash = Fnv1a(line.substr(text));
  }
  return view;
}

std::uint64_t ExpectedTextHash(std::string_view text) {
  std::string s(kTextKey);
  gdelt::serve::AppendJsonString(s, text);
  s += '}';
  return Fnv1a(s);
}

namespace {

double StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// CPUs this process may run on.
int CpusUsed() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return ::sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

}  // namespace

double PeakRssMb() { return StatusKb("VmHWM") / 1024.0; }

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double ProcessCpuSeconds() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(u.ru_utime) + seconds(u.ru_stime);
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuTimes{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::string Fingerprint(const std::string& commit, const std::string& preset,
                        std::uint64_t seed, const std::string& workload,
                        std::size_t events, std::size_t mentions,
                        std::uint32_t sources) {
  __builtin_cpu_init();
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "fingerprint nproc=%u cpus_used=%d threads=%d cpu=\"%s\" avx2=%s build=%s "
      "commit=%s preset=%s seed=%llu workload=%s events=%zu mentions=%zu sources=%u",
      std::thread::hardware_concurrency(), CpusUsed(), gdelt::MaxThreads(),
      CpuModel().c_str(),
      __builtin_cpu_supports("avx2") ? "yes" : "no", GDELT_PERFBENCH_BUILD_TYPE,
      commit.c_str(), preset.c_str(), static_cast<unsigned long long>(seed),
      workload.c_str(), events, mentions, sources);
  return buf;
}

void PrintReport(const std::vector<Metric>& metrics, bool correct,
                 std::uint64_t attempted, std::uint64_t failed) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  char buf[512];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %llu, \"failed\": %llu",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  json += buf;
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    // JSON has no NaN/inf; a metric without samples reads 0 and says so.
    const bool finite = std::isfinite(m.value);
    const double value = finite ? m.value : 0.0;
    if (m.exact) {
      std::snprintf(buf, sizeof(buf), "%.0f", value);
    } else {
      std::snprintf(buf, sizeof(buf), "%.9g", value);
    }
    if (!finite) std::printf("warning: %s had no samples\n", m.name.c_str());
    std::printf("metric %-36s = %s %s%s%s\n", m.name.c_str(), buf,
                m.unit.c_str(), m.note.empty() ? "" : "  ", m.note.c_str());
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
