// gdelt_perfbench: the repository benchmark (see ../README.md).
//
//   gdelt_perfbench --workload <dashboard|analyst|routed|live_ingest>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--preset medium|tiny] [--data-dir D] [--work-dir W]
//                   [--commit C] [--corrupt-one]
//
// One run: prepare the dataset (cached under --data-dir), convert the
// live_ingest base (timed), load and start the servers several times
// (timed; the last set serves), warm up, run the timed phase, check every
// reply against serve::RenderQuery on the same database, and print the
// metrics. With --trace 1 the phase alternates untraced and traced
// slices and the per-layer probes run after it.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "convert/converter.hpp"
#include "convert/master_list.hpp"
#include "engine/database.hpp"
#include "gen/config.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "io/file.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "parallel/morsel.hpp"
#include "router/router.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/render.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "stream/delta_store.hpp"
#include "traffic.hpp"
#include "util/logging.hpp"

namespace fs = std::filesystem;
using namespace perfbench;
namespace engine = gdelt::engine;
namespace serve = gdelt::serve;

namespace {

/// Dashboard arrival rate (req/s), fixed: half of the 18.9k req/s at which
/// the dashboard mix saturated 3 connections on two CPUs of the 4-vCPU
/// Xeon machine the benchmark was defined on.
constexpr double kDashboardRate = 9500;
/// Pause (ms) of the analyst's foreground `top-sources` user between a
/// reply and its next request.
constexpr double kForegroundThinkMs = 5.0;
constexpr double kReaderThinkMs = 1.0;
constexpr int kSetupReps = 5;
constexpr int kConvertReps = 2;
constexpr double kWarmupSeconds = 1.0;
/// Heavy-cycle stretch per client the warm-up may use (it sends far fewer).
constexpr std::uint64_t kWarmupHeavySpan = 400;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string preset = "medium";
  std::string data_dir = ".bench_build/data";
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
  bool corrupt_one = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-one") {
      a.corrupt_one = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--preset") a.preset = v;
    else if (flag == "--data-dir") a.data_dir = v;
    else if (flag == "--work-dir") a.work_dir = v;
    else if (flag == "--commit") a.commit = v;
    else Die("unknown flag " + flag);
  }
  static const std::set<std::string> kWorkloads = {"dashboard", "analyst",
                                                   "routed", "live_ingest"};
  if (!kWorkloads.count(a.workload)) Die("unknown workload '" + a.workload + "'");
  if (a.seconds <= 0) Die("--seconds must be positive");
  if (a.preset != "medium" && a.preset != "tiny") Die("unknown preset");
  return a;
}

// ---------------------------------------------------------------------
// Dataset preparation (untimed, cached under the data directory).

struct Dataset {
  std::string raw_dir;       ///< generated archives + master list
  std::string live_raw_dir;  ///< master list with the held-back weeks cut
  std::string full_db_dir;   ///< conversion of raw_dir (visibility reference)
  std::string root;          ///< the preset's data directory
  /// Held-back weekly chunk pairs (absolute paths), oldest first.
  std::vector<std::pair<std::string, std::string>> held_back;
};

/// Flushes the pending writes of the file system holding `dir`.
void SyncFs(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

/// Removes `out` and flushes the file system's pending writes, so a
/// timed conversion does not pay for an earlier run's write-back.
void ClearOutput(const std::string& out) {
  fs::remove_all(out);
  fs::create_directories(out);
  SyncFs(out);
}

void ConvertOrDie(const std::string& in, const std::string& out,
                  gdelt::convert::ConvertReport* report = nullptr) {
  gdelt::convert::ConvertOptions options;
  options.input_dir = in;
  options.output_dir = out;
  auto r = gdelt::convert::ConvertDataset(options);
  if (!r.ok()) Die("convert failed: " + r.status().ToString());
  if (report) *report = *r;
}

Dataset PrepareDataset(const Args& args) {
  Dataset d;
  const fs::path root = fs::absolute(fs::path(args.data_dir) / args.preset);
  d.raw_dir = (root / "raw").string();
  d.live_raw_dir = (root / "raw_live").string();
  d.full_db_dir = (root / "db_full").string();
  d.root = root.string();
  // The stamp names the commit that prepared the data, so a changed
  // converter does not serve a stale conversion.
  const std::string done = (root / "prepared").string();

  const gdelt::gen::GeneratorConfig config =
      args.preset == "tiny" ? gdelt::gen::GeneratorConfig::Tiny()
                            : gdelt::gen::GeneratorConfig::Medium();
  std::string stamp;
  std::getline(std::ifstream(done), stamp);
  const bool cached = stamp == args.commit;
  if (!cached) {
    fs::remove_all(root);
    fs::create_directories(root);
    const auto dataset = gdelt::gen::GenerateDataset(config);
    auto emitted = gdelt::gen::EmitDataset(dataset, config, d.raw_dir);
    if (!emitted.ok()) Die("generate failed: " + emitted.status().ToString());
    ClearOutput(d.full_db_dir);
    ConvertOrDie(d.raw_dir, d.full_db_dir);
  }

  // Chunk pairs whose two archives exist, by stamp.
  auto master_text = gdelt::ReadWholeFile(d.raw_dir + "/masterfilelist.txt");
  if (!master_text.ok()) Die("no master list in " + d.raw_dir);
  const auto master = gdelt::convert::ParseMasterList(*master_text);
  std::map<std::string, std::pair<std::string, std::string>> pairs;
  for (const auto& e : master.entries) {
    const std::string path = d.raw_dir + "/" + e.file_name;
    if (!fs::exists(path)) continue;
    const std::string stamp = e.file_name.substr(0, 14);
    if (e.kind == gdelt::convert::ArchiveKind::kExport) pairs[stamp].first = path;
    if (e.kind == gdelt::convert::ArchiveKind::kMentions) pairs[stamp].second = path;
  }
  std::vector<std::pair<std::string, std::string>> complete;
  for (const auto& [stamp, p] : pairs) {
    if (!p.first.empty() && !p.second.empty()) complete.push_back(p);
  }
  const std::size_t hold = args.preset == "tiny" ? 4 : 32;
  if (complete.size() < 2 * hold) Die("dataset too small to hold back weeks");
  d.held_back.assign(complete.end() - static_cast<std::ptrdiff_t>(hold),
                     complete.end());

  if (!cached) {
    std::set<std::string> cut;
    for (const auto& [events, mentions] : d.held_back) {
      cut.insert(fs::path(events).filename().string());
      cut.insert(fs::path(mentions).filename().string());
    }
    fs::create_directories(d.live_raw_dir);
    std::string live_master;
    std::size_t start = 0;
    const std::string& text = *master_text;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      const std::string line = text.substr(start, end - start);
      const std::size_t space = line.rfind(' ');
      const std::string name =
          space == std::string::npos ? line : line.substr(space + 1);
      if (!cut.count(name)) live_master += line + "\n";
      start = end + 1;
    }
    std::ofstream(d.live_raw_dir + "/masterfilelist.txt") << live_master;
    for (const auto& entry : fs::directory_iterator(d.raw_dir)) {
      const std::string name = entry.path().filename().string();
      if (name == "masterfilelist.txt" || cut.count(name)) continue;
      std::error_code ec;
      fs::create_hard_link(entry.path(), fs::path(d.live_raw_dir) / name, ec);
      if (ec) fs::copy_file(entry.path(), fs::path(d.live_raw_dir) / name);
    }
    std::ofstream(done) << args.commit << "\n";
  }
  return d;
}

/// Bytes of the archives a master list names (present on disk).
std::uint64_t ArchiveBytes(const std::string& raw_dir) {
  auto text = gdelt::ReadWholeFile(raw_dir + "/masterfilelist.txt");
  if (!text.ok()) return 0;
  std::uint64_t total = 0;
  for (const auto& e : gdelt::convert::ParseMasterList(*text).entries) {
    std::error_code ec;
    const auto size = fs::file_size(raw_dir + "/" + e.file_name, ec);
    if (!ec) total += size;
  }
  return total;
}

// ---------------------------------------------------------------------
// Serving state.

struct Serving {
  std::unique_ptr<engine::Database> db;
  std::vector<std::unique_ptr<gdelt::stream::DeltaStore>> deltas;
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::unique_ptr<gdelt::router::Router> router;

  int port() const { return router ? router->port() : servers[0]->port(); }
  std::vector<const serve::Server*> backends() const {
    std::vector<const serve::Server*> out;
    for (const auto& s : servers) out.push_back(s.get());
    return out;
  }
  void Stop() {
    if (router) router->Stop();
    for (auto& s : servers) s->Stop();
  }
};

std::unique_ptr<gdelt::router::Router> StartRouter(
    const std::vector<int>& shard_ports) {
  gdelt::router::RouterOptions options;
  for (const int port : shard_ports) {
    options.topology.shards.push_back(
        {gdelt::router::Endpoint{"127.0.0.1", port}});
  }
  auto r = std::make_unique<gdelt::router::Router>(options);
  if (!r->Start().ok()) Die("router start failed");
  return r;
}

struct SetupTimes {
  std::vector<double> total_s, load_s, index_s;
};

/// Load + lazy index build + server/router start, up to the first
/// request that can be timed.
void StartServing(const std::string& db_dir, const std::string& workload,
                  const std::string& trace_dir, Serving& s, SetupTimes& t) {
  const auto t0 = Clock::now();
  auto loaded = engine::Database::Load(db_dir);
  if (!loaded.ok()) Die("load failed: " + loaded.status().ToString());
  s.db = std::make_unique<engine::Database>(std::move(*loaded));
  const auto t1 = Clock::now();
  (void)s.db->event_distinct_sources();
  const auto t2 = Clock::now();
  const int backends = workload == "routed" ? 2 : 1;
  for (int b = 0; b < backends; ++b) {
    s.deltas.push_back(std::make_unique<gdelt::stream::DeltaStore>(s.db.get()));
    serve::ServerOptions options;  // defaults: 2 workers, 1,024 entries
    // Behind the router every request takes a worker on both backends.
    // One worker per client connection keeps a light request from queuing
    // behind another client's heavy partial, which made the light tail
    // depend on how the clients' heavy requests happened to overlap.
    if (workload == "routed") options.scheduler.workers = 3;
    if (b == 0) options.trace_dir = trace_dir;
    s.servers.push_back(std::make_unique<serve::Server>(
        *s.db, s.deltas.back().get(), options));
    if (!s.servers.back()->Start().ok()) Die("server start failed");
  }
  if (workload == "routed") {
    s.router = StartRouter({s.servers[0]->port(), s.servers[1]->port()});
  }
  const auto t3 = Clock::now();
  t.total_s.push_back(MsBetween(t0, t3) / 1e3);
  t.load_s.push_back(MsBetween(t0, t1) / 1e3);
  t.index_s.push_back(MsBetween(t1, t2) / 1e3);
}

// ---------------------------------------------------------------------
// Traffic plans.

class Workload {
 public:
  Workload(const Args& args, const Timeline& t, const Dataset& d,
           RequestTable* table)
      : args_(args), t_(t), data_(d), table_(table), mix_(t, table) {}

  /// Client plans for a phase of `seconds`; `stream` separates the
  /// warm-up's draws from the timed phase's.
  std::vector<ClientPlan> Build(int port, int ingest_port, double seconds,
                                std::uint64_t stream, bool warmup) {
    std::vector<ClientPlan> plans;
    const auto seed = [&](int c) { return StreamSeed(args_.seed, stream * 16 + c); };
    const std::string& w = args_.workload;
    if (w == "dashboard") {
      auto schedule = std::make_shared<OpenSchedule>();
      Rng rng(seed(15));
      schedule->due_ms = PoissonArrivals(kDashboardRate, seconds, rng);
      for (std::size_t i = 0; i < schedule->due_ms.size(); ++i) {
        schedule->draws.push_back(mix_.Next(rng));
      }
      for (int c = 0; c < 3; ++c) plans.push_back({port, {}, schedule, seed(c)});
    } else if (w == "analyst") {
      static const std::vector<std::string> kHeavy = {
          "coreport", "follow", "country-coreport", "first-reports", "delay",
          "quarterly"};
      // The two batch clients walk the heavy cycle half a cycle (and
      // half a kind rotation) apart.
      const std::uint64_t start = HeavyStart(warmup);
      for (std::uint64_t c = 0; c < 2; ++c) {
        const std::uint64_t from = start + c * (kHeavyCycle / 2 + 3);
        plans.push_back({port, [this, from](Rng&, std::uint64_t i) {
                           return NextHeavy(t_, table_, kHeavy, from + i);
                         }, nullptr, seed(static_cast<int>(c))});
      }
      // The foreground user pauses between requests, which keeps the CPU
      // its traffic takes small and nearly independent of how fast the
      // batch clients run.
      plans.push_back({port, [this](Rng& r, std::uint64_t) {
                         return NextForeground(t_, table_, r);
                       }, nullptr, seed(2), kForegroundThinkMs});
    } else if (w == "routed") {
      static const std::vector<std::string> kHeavy = {
          "coreport", "follow", "country-coreport", "first-reports", "delay"};
      // A fixed pattern per 50 requests: 10 heavy (every fifth, `top` in
      // [100, 300]), 2 relayed, 38 light; clients are offset so their
      // heavy requests interleave.
      const std::uint64_t start = HeavyStart(warmup);
      for (std::uint64_t c = 0; c < 3; ++c) {
        // A third of the heavy cycle apart, on different kinds.
        const std::uint64_t from = start + c * (kHeavyCycle / 3 + 1);
        plans.push_back({port, [this, c, from](Rng& r, std::uint64_t i) {
                           const std::uint64_t j = i + 2 * c;
                           if (j % 5 == 4) {
                             return NextHeavy(t_, table_, kHeavy, from + j / 5,
                                              100, 300);
                           }
                           if (j % 25 == 12) {
                             const std::string kind = j % 50 == 12 ? "stats" : "tone";
                             return Draw{table_->Intern(QueryLine(kind, 10, t_)),
                                         kind};
                           }
                           return mix_.NextLight(r);
                         }, nullptr, seed(static_cast<int>(c))});
      }
    } else {  // live_ingest: two readers and, when timed, one writer
      // Dashboard users pause between requests (1 ms think time).
      for (int c = 0; c < 2; ++c) {
        plans.push_back({port, [this](Rng& r, std::uint64_t) { return mix_.Next(r); },
                         nullptr, seed(c), kReaderThinkMs});
      }
      if (!warmup) {
        auto schedule = std::make_shared<OpenSchedule>();
        const double step = seconds * 1e3 / static_cast<double>(data_.held_back.size());
        for (std::size_t i = 0; i < data_.held_back.size(); ++i) {
          schedule->due_ms.push_back((static_cast<double>(i) + 0.5) * step);
          schedule->draws.push_back(
              {table_->Intern(IngestLine(data_.held_back[i])), "ingest"});
        }
        plans.push_back({ingest_port, {}, schedule, seed(2)});
      }
    }
    return plans;
  }

  /// Where the timed phase's heavy clients start in the heavy cycle (from
  /// the seed); the warm-up walks the stretch just before it, so the
  /// timed phase does not find the warm-up's heavy replies cached.
  std::uint64_t HeavyStart(bool warmup) const {
    const std::uint64_t start = Rng(StreamSeed(args_.seed, 40)).Next() % kHeavyCycle;
    return warmup ? start + kHeavyCycle - kWarmupHeavySpan : start;
  }

  static std::string IngestLine(const std::pair<std::string, std::string>& p) {
    std::string line = "{\"query\":\"ingest\",\"export\":";
    serve::AppendJsonString(line, p.first);
    line += ",\"mentions\":";
    serve::AppendJsonString(line, p.second);
    return line + "}";
  }

 private:
  const Args& args_;
  const Timeline& t_;
  const Dataset& data_;
  RequestTable* table_;
  DashboardMix mix_;
};

// ---------------------------------------------------------------------
// Checking.

struct CheckResult {
  std::uint64_t attempted = 0;
  std::uint64_t non_ok = 0;
  std::uint64_t wrong_bytes = 0;
  std::uint64_t refused = 0;
  std::map<std::string, std::uint64_t> wrong_by_kind;
  std::vector<bool> sample_ok;  ///< per sample
  std::uint64_t failed() const { return non_ok + wrong_bytes + refused; }
};

/// Reference text hashes kept across runs, one line per request:
/// "<hash in hex> <request line>". A reference depends only on the
/// database and the build, and the store lives in the data directory,
/// which is rebuilt whenever the commit (or source digest) changes; so a
/// stored hash is what serve::RenderQuery renders for that line now, and
/// a run renders only the requests no earlier run has sent.
class ReferenceStore {
 public:
  explicit ReferenceStore(std::string path) : path_(std::move(path)) {
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t space = line.find(' ');
      if (space == std::string::npos) continue;
      hashes_[line.substr(space + 1)] =
          std::strtoull(line.substr(0, space).c_str(), nullptr, 16);
    }
  }
  const std::uint64_t* Find(const std::string& line) const {
    const auto it = hashes_.find(line);
    return it == hashes_.end() ? nullptr : &it->second;
  }
  void Add(const std::string& line, std::uint64_t hash) { hashes_[line] = hash; }
  /// Replaces the file whole, so an interrupted run leaves the old one.
  void Save() const {
    const std::string tmp = path_ + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      char hex[24];
      for (const auto& [line, hash] : hashes_) {
        std::snprintf(hex, sizeof(hex), "%016llx ",
                      static_cast<unsigned long long>(hash));
        out << hex << line << '\n';
      }
      if (!out) return;
    }
    fs::rename(tmp, path_);
  }

 private:
  std::string path_;
  std::unordered_map<std::string, std::uint64_t> hashes_;
};

/// Renders the reference of each distinct request `store` lacks on `db`
/// (three threads), adds it to the store, and checks every sample.
CheckResult Check(const engine::Database& db, const RequestTable& table,
                  const std::vector<Sample>& samples, ReferenceStore& store) {
  std::map<std::uint32_t, std::uint64_t> expected;
  std::vector<std::uint32_t> keys;  // to render
  for (const Sample& s : samples) {
    if (s.is_ingest() || expected.count(s.key)) continue;
    const std::uint64_t* stored = store.Find(table.Line(s.key));
    expected[s.key] = stored ? *stored : 0;
    if (stored == nullptr) keys.push_back(s.key);
  }
  std::vector<std::uint64_t> hashes(keys.size(), 0);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < keys.size(); i = next++) {
        auto request = serve::ParseRequest(table.Line(keys[i]));
        if (!request.ok()) continue;
        auto rendered = serve::RenderQuery(db, *request);
        hashes[i] = rendered.ok() ? ExpectedTextHash(rendered->text) : 0;
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    expected[keys[i]] = hashes[i];
    if (hashes[i] != 0) store.Add(table.Line(keys[i]), hashes[i]);
  }
  store.Save();

  CheckResult r;
  r.sample_ok.resize(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    ++r.attempted;
    bool ok = false;
    if (s.transport_error) {
      ++r.refused;
    } else if (!s.view.ok) {
      ++r.non_ok;
    } else if (!s.is_ingest() &&
               (!s.view.has_text || s.view.text_hash != expected[s.key])) {
      ++r.wrong_bytes;
      ++r.wrong_by_kind[AllKinds()[static_cast<std::size_t>(s.kind)]];
    } else {
      ok = true;
    }
    r.sample_ok[i] = ok;
  }
  return r;
}

/// After the last ingest: every kind once, compared with RenderQuery over
/// the full dataset (base plus the ingested weeks). Returns the kinds
/// whose served reply differs.
std::vector<std::string> CheckVisibility(int port, const std::string& full_db_dir,
                                         const Timeline& t) {
  auto full = engine::Database::Load(full_db_dir);
  if (!full.ok()) Die("cannot load full dataset: " + full.status().ToString());
  auto client = serve::LineClient::Connect("127.0.0.1", port);
  if (!client.ok()) Die("cannot connect for the visibility check");
  std::vector<std::string> mismatched;
  for (const std::string& kind : AllKinds()) {
    const std::string line = QueryLine(kind, 10, t);
    auto reply = client->RoundTrip(line);
    auto request = serve::ParseRequest(line);
    auto reference = serve::RenderQuery(*full, *request);
    bool same = false;
    if (reply.ok() && reference.ok()) {
      auto v = serve::JsonValue::Parse(*reply);
      const auto* text = v.ok() ? v->Find("text") : nullptr;
      same = text != nullptr && text->AsString() == reference->text;
    }
    if (!same) mismatched.push_back(kind);
  }
  return mismatched;
}

// ---------------------------------------------------------------------
// Metrics.

struct Counters {
  std::uint64_t hits = 0, misses = 0, rejected = 0, evicted_stale = 0,
                backend_requests = 0, router_requests = 0, shard_failures = 0;
  gdelt::parallel::MorselPoolStats pool;
};

Counters ReadCounters(const Serving& s) {
  Counters c;
  for (const auto& server : s.servers) {
    const auto& m = server->metrics();
    c.hits += m.cache_hits.load();
    c.misses += m.cache_misses.load();
    c.rejected += m.rejected_overloaded.load();
    c.backend_requests += m.requests_total.load();
    c.evicted_stale += server->GaugesNow().cache_evicted_stale;
  }
  if (s.router) {
    c.router_requests = s.router->metrics().requests_total.load();
    c.shard_failures = s.router->metrics().shard_failures.load();
  }
  c.pool = gdelt::parallel::MorselPool::Shared().stats();
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Latencies of the samples `keep` selects.
template <typename Keep>
std::vector<double> Collect(const std::vector<Sample>& samples,
                            const CheckResult& check, Keep keep) {
  std::vector<double> v;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!keep(samples[i])) continue;
    // A failed request misses any latency limit.
    v.push_back(check.sample_ok[i] ? samples[i].latency_ms() : 1e300);
  }
  return v;
}

std::string TailNote(const Tail& t) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(p%.1f of n=%zu)", t.quantile * 100, t.n);
  return buf;
}


}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  gdelt::SetLogLevel(gdelt::LogLevel::kWarning);
  // Where the run's wall time goes, for stderr.
  std::string stages;
  auto stage_start = Clock::now();
  const auto stage = [&](const char* name) {
    const auto now = Clock::now();
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.1fs", name,
                  MsBetween(stage_start, now) / 1e3);
    stages += buf;
    stage_start = now;
  };
  const Dataset data = PrepareDataset(args);
  stage("prepare");
  const bool live = args.workload == "live_ingest";
  const bool routed = args.workload == "routed";
  const fs::path work = fs::absolute(fs::path(args.work_dir) / args.workload);
  fs::create_directories(work);
  const std::string db_dir = (work / "db").string();
  const std::string trace_dir = (work / "trace").string();
  fs::remove_all(trace_dir);
  if (args.trace) fs::create_directories(trace_dir);

  // Convert the live_ingest base (the master list without the held-back
  // weeks) several times; the median counts. live_ingest serves it, and
  // the other workloads time their ingests over it, so the held-back
  // weeks are new to the delta store everywhere. They serve the full
  // dataset. Nothing else runs in the process meanwhile, so its CPU time
  // is the converter's.
  gdelt::convert::ConvertReport report;
  std::vector<double> convert_wall_s, convert_cpu_s;
  for (int rep = 0; rep < kConvertReps; ++rep) {
    ClearOutput(db_dir);
    const double cpu0 = ProcessCpuSeconds();
    const auto c0 = Clock::now();
    ConvertOrDie(data.live_raw_dir, db_dir, &report);
    convert_wall_s.push_back(MsBetween(c0, Clock::now()) / 1e3);
    convert_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
  }
  SyncFs(db_dir);  // the last conversion's write-back, before any timing
  const std::string serve_dir = live ? db_dir : data.full_db_dir;
  stage("convert");

  // Set up several times; the last set serves, and the peak RSS counts
  // only that one.
  SetupTimes setup;
  Serving serving;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    if (last) {
      // Heap the conversions and earlier set-ups freed goes back to the
      // system first, so the high-water mark is the serving state's.
      ::malloc_trim(0);
      if (!ResetPeakRss()) std::printf("note: peak RSS not resettable\n");
    }
    Serving attempt;
    StartServing(serve_dir, args.workload, last && args.trace ? trace_dir : "",
                 attempt, setup);
    if (last) {
      serving = std::move(attempt);
    } else {
      attempt.Stop();
    }
  }
  // Peak RSS of the serving state: the last set-up (load, index build,
  // server start), before any traffic or reference output.
  const double peak_rss_mb = PeakRssMb();
  stage("setup");
  const engine::Database& db = *serving.db;

  // Workloads without a writer time the same weekly ingests in process:
  // IngestArchivePair on a delta store over the live_ingest base, which
  // lacks those weeks. One pass before the warm-up, one after the timed
  // phase and one after the check, so the median spans the run rather
  // than one moment of the host.
  std::unique_ptr<engine::Database> cut_base;
  if (!live) {
    auto loaded = engine::Database::Load(db_dir);
    if (!loaded.ok()) Die("cannot load the live base: " + loaded.status().ToString());
    cut_base = std::make_unique<engine::Database>(std::move(*loaded));
  }
  IngestTiming ingests;
  const auto time_ingest_pass = [&] {
    if (live || args.trace) return;
    const IngestTiming pass = TimeIngests(*cut_base, data.held_back, 1);
    ingests.ms.insert(ingests.ms.end(), pass.ms.begin(), pass.ms.end());
    ingests.failed += pass.failed;
  };
  time_ingest_pass();
  Timeline timeline;
  timeline.first_interval = db.first_interval();
  timeline.weeks = std::max<int>(
      1, static_cast<int>((db.last_interval() - db.first_interval() + 1) / 672));

  std::printf("%s\n", Fingerprint(args.commit, args.preset, args.seed,
                                   args.workload, db.num_events(),
                                   db.num_mentions(), db.num_sources())
                          .c_str());

  RequestTable table;
  Workload workload(args, timeline, data, &table);
  const int ingest_port = serving.servers[0]->port();
  PhaseOptions warm;
  warm.seconds = kWarmupSeconds;
  RunPhase(workload.Build(serving.port(), ingest_port, warm.seconds, 1, true),
           table, warm);
  stage("warmup");

  PhaseOptions phase;
  phase.seconds = args.seconds;
  phase.trace_slices = args.trace;
  const auto plans =
      workload.Build(serving.port(), ingest_port, phase.seconds, 2, false);
  const Counters before = ReadCounters(serving);
  const CpuTimes cpu_before = ReadCpuTimes();
  std::vector<Sample> samples = RunPhase(plans, table, phase);
  const CpuTimes cpu_after = ReadCpuTimes();
  const Counters after = ReadCounters(serving);
  // Time the hypervisor gave this machine's CPUs to other guests: high
  // steal makes a run's timings slower than the program is.
  std::printf("host cpu steal during the timed phase: %.1f %%\n",
              100.0 * Ratio(static_cast<double>(cpu_after.steal - cpu_before.steal),
                            static_cast<double>(cpu_after.total - cpu_before.total)));

  if (args.corrupt_one) {
    for (Sample& s : samples) {
      if (!s.is_ingest() && s.view.ok) {
        s.view.text_hash ^= 1;  // as if one byte of the reply had changed
        break;
      }
    }
  }
  stage("phase");
  time_ingest_pass();

  ReferenceStore references(data.root + (live ? "/references_live.txt"
                                              : "/references_full.txt"));
  const CheckResult check = Check(db, table, samples, references);
  std::vector<std::string> invisible;
  std::uint64_t ingest_failures = 0;
  if (live) {
    invisible = CheckVisibility(ingest_port, data.full_db_dir, timeline);
    // The writer's weeks are new to the base: none may read as malformed.
    const std::uint64_t malformed = serving.deltas[0]->malformed_rows();
    if (malformed != 0) {
      std::printf("check live ingests: %llu malformed rows\n",
                  static_cast<unsigned long long>(malformed));
      ++ingest_failures;
    }
  }
  stage("check");

  const engine::Database& ingest_base = live ? db : *cut_base;
  std::vector<double> ingest_ms;
  std::uint64_t ingest_attempted = 0;
  if (live) {
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (!samples[i].is_ingest()) continue;
      ++ingest_attempted;
      ingest_ms.push_back(check.sample_ok[i] ? samples[i].latency_ms() : 1e300);
    }
  } else if (!args.trace) {
    time_ingest_pass();
    ingest_ms = ingests.ms;
    ingest_attempted = ingests.ms.size();
    ingest_failures += ingests.failed;
  }
  stage("ingest");

  // ----- end-to-end metrics
  // Throughput and latency cover the workload's own traffic; the
  // analyst's foreground client only feeds interactive_p99_ms.
  const bool analyst = args.workload == "analyst";
  const auto is_primary = [analyst](const Sample& s) {
    return !s.is_ingest() && !(analyst && s.interactive);
  };
  const auto is_interactive = [](const Sample& s) {
    return !s.is_ingest() && s.interactive;
  };
  // Throughput: correct replies over the time to the last of them.
  std::uint64_t query_samples = 0, completed = 0;
  double last_reply_ms = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].is_ingest()) continue;
    ++query_samples;
    if (check.sample_ok[i] && is_primary(samples[i])) {
      ++completed;
      last_reply_ms = std::max(last_reply_ms, samples[i].recv_ms);
    }
  }
  const std::vector<double> primary = Collect(samples, check, is_primary);
  const Tail primary_tail = TailPercentile(primary, 0.99);
  const Tail interactive_tail =
      TailPercentile(Collect(samples, check, is_interactive), 0.99);

  std::printf("workload %s: %s loop, %zu client connections, %.1f s timed, "
              "%llu queries, %zu ingests, %zu distinct requests\n",
              args.workload.c_str(),
              args.workload == "dashboard" ? "open" : "closed", plans.size(),
              args.seconds, static_cast<unsigned long long>(query_samples),
              ingest_ms.size(), table.size());
  // In-process ingests (the workloads without a writer) count as
  // operations of their own; the writer's are samples already.
  const std::uint64_t attempted = check.attempted + (live ? 0 : ingest_attempted);
  std::uint64_t failed = check.failed() + ingest_failures;
  const std::uint64_t all_failures = failed + invisible.size();
  std::printf("check %llu attempted: %llu non-ok, %llu wrong bytes, %llu "
              "refused, %llu failed ingests\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(check.non_ok),
              static_cast<unsigned long long>(check.wrong_bytes),
              static_cast<unsigned long long>(check.refused),
              static_cast<unsigned long long>(ingest_failures));
  if (!check.wrong_by_kind.empty()) {
    std::printf("check wrong bytes by kind:");
    for (const auto& [kind, n] : check.wrong_by_kind) {
      std::printf(" %s=%llu", kind.c_str(), static_cast<unsigned long long>(n));
    }
    std::printf("\n");
  }
  if (live) {
    std::printf("check visibility after %zu ingests: %zu of %zu kinds differ "
                "from the full dataset%s",
                data.held_back.size(), invisible.size(), AllKinds().size(),
                invisible.empty() ? "\n" : ":");
    for (const std::string& k : invisible) std::printf(" %s", k.c_str());
    if (!invisible.empty()) {
      std::printf("\n  (reported here and in error_rate, not in the result's "
                  "`failed`; see README.md)\n");
    }
  }
  const std::uint64_t checked = attempted + (live ? AllKinds().size() : 0);
  std::printf("error_rate = %.6f ratio  (%llu failures of %llu attempted, "
              "visibility included)\n",
              Ratio(static_cast<double>(all_failures), static_cast<double>(checked)),
              static_cast<unsigned long long>(all_failures),
              static_cast<unsigned long long>(checked));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup.total_s), "s",
         "median of " + std::to_string(kSetupReps) + " set-ups"},
        {"convert_cpu_s", Median(convert_cpu_s), "s",
         std::to_string(report.archives_processed) + " archives, median of " +
             std::to_string(kConvertReps)},
        {"peak_rss_mb", peak_rss_mb, "MiB", "after set-up"},
        {"throughput_qps", Ratio(static_cast<double>(completed), last_reply_ms / 1e3),
         "req/s",
         "(" + std::to_string(completed) + " replies)"},
        {"latency_p50_ms", Median(primary), "ms",
         "(n=" + std::to_string(primary.size()) + ")"},
        {"latency_p99_ms", primary_tail.value, "ms", TailNote(primary_tail)},
        {"interactive_p99_ms", interactive_tail.value, "ms", TailNote(interactive_tail)},
        {"ingest_p50_ms", Median(ingest_ms), "ms",
         "(n=" + std::to_string(ingest_ms.size()) +
             (live ? ", round trip under reader load)"
                   : ", IngestArchivePair, passes before and after the phase)")},
    };
  } else {
    // ----- per-layer metrics
    metrics.push_back({"engine.load_s", Median(setup.load_s), "s"});
    metrics.push_back({"engine.index_build_s", Median(setup.index_s), "s"});
    ProbeStorage(serve_dir, metrics);
    metrics.push_back({"convert.wall_s", Median(convert_wall_s), "s",
                       "median of " + std::to_string(kConvertReps)});
    metrics.push_back({"convert.archives",
                       static_cast<double>(report.archives_processed), "count",
                       "", true});
    metrics.push_back({"convert.bytes_in",
                       static_cast<double>(ArchiveBytes(data.live_raw_dir)), "bytes",
                       "", true});

    std::vector<double> parse_us, queue_ms, exec_ms, net_ms;
    double unattributed = 0, traced_rt = 0;
    std::vector<double> lat_plain, lat_traced;
    double ok_plain = 0, ok_traced = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      if (s.is_ingest() || !check.sample_ok[i]) continue;
      const double rt = s.recv_ms - s.sent_ms;
      if (s.view.wall_ms >= 0) net_ms.push_back(rt - s.view.wall_ms);
      (s.traced ? lat_traced : lat_plain).push_back(s.latency_ms());
      (s.traced ? ok_traced : ok_plain) += 1;
      if (!s.traced) continue;
      if (s.parse_ms >= 0) parse_us.push_back(s.parse_ms * 1e3);
      if (s.queue_wait_ms >= 0) queue_ms.push_back(s.queue_wait_ms);
      if (s.execute_ms >= 0) exec_ms.push_back(s.execute_ms);
      unattributed += std::max(0.0, s.view.wall_ms - s.stage_sum_ms);
      traced_rt += rt;
    }
    // The router probe: the workload's own router, or one over the single
    // server listed as both shards.
    std::unique_ptr<gdelt::router::Router> probe_router;
    int router_port = 0;
    std::vector<int> shard_ports;
    if (routed) {
      router_port = serving.router->port();
      shard_ports = {serving.servers[0]->port(), serving.servers[1]->port()};
    } else {
      shard_ports = {ingest_port, ingest_port};
      probe_router = StartRouter(shard_ports);
      router_port = probe_router->port();
    }
    const RouterProbe rp =
        ProbeRouter(router_port, shard_ports, timeline, serving.backends());
    if (routed) {
      // Routed replies carry no stage breakdown (the router does not
      // forward "trace"); the probe's direct sub-requests stand in.
      parse_us.clear();
      for (const double ms : rp.parse_ms) parse_us.push_back(ms * 1e3);
      queue_ms = rp.queue_wait_ms;
      exec_ms = rp.execute_ms;
    }
    const Tail qw99 = TailPercentile(queue_ms, 0.99);
    metrics.push_back({"serve.parse_us", Mean(parse_us), "us", "mean"});
    metrics.push_back({"serve.cache_hit_ratio",
                       Ratio(static_cast<double>(after.hits - before.hits),
                             static_cast<double>(after.hits - before.hits +
                                                 after.misses - before.misses)),
                       "ratio"});
    metrics.push_back({"serve.cache_evicted_stale",
                       static_cast<double>(after.evicted_stale - before.evicted_stale),
                       "count"});
    metrics.push_back({"serve.queue_wait_p50_ms", SmoothQuantile(queue_ms, 0.5), "ms",
                       "(n=" + std::to_string(queue_ms.size()) + ")"});
    metrics.push_back({"serve.queue_wait_p99_ms", SmoothQuantile(queue_ms, qw99.quantile),
                       "ms", TailNote(qw99)});
    metrics.push_back({"serve.execute_p50_ms", SmoothQuantile(exec_ms, 0.5), "ms"});
    metrics.push_back({"serve.rejected_overloaded",
                       static_cast<double>(after.rejected - before.rejected),
                       "count"});
    const double morsels = static_cast<double>(after.pool.morsels - before.pool.morsels);
    const double skipped = static_cast<double>(after.pool.morsels_skipped -
                                               before.pool.morsels_skipped);
    metrics.push_back({"parallel.steal_ratio",
                       Ratio(static_cast<double>(after.pool.steals - before.pool.steals),
                             morsels),
                       "ratio"});
    metrics.push_back({"parallel.skipped_ratio", Ratio(skipped, morsels + skipped),
                       "ratio"});
    const Counters probed = ReadCounters(serving);
    metrics.push_back({"router.overhead_p50_ms", rp.overhead_p50_ms, "ms"});
    metrics.push_back(
        {"router.subrequests_per_query",
         routed ? Ratio(static_cast<double>(after.backend_requests - before.backend_requests),
                        static_cast<double>(after.router_requests - before.router_requests))
                : rp.subrequests_per_query,
         "count"});
    metrics.push_back(
        {"router.shard_failures",
         static_cast<double>(routed ? probed.shard_failures
                                    : probe_router->metrics().shard_failures.load()),
         "count"});
    if (probe_router) probe_router->Stop();
    metrics.push_back({"net.overhead_p50_ms", Median(net_ms), "ms"});
    // Tracing cost: closed loops compare completed requests per second of
    // untraced vs traced slices; the open loop compares their p50.
    const double overhead_pct =
        args.workload == "dashboard"
            ? 100.0 * Ratio(Median(lat_traced) - Median(lat_plain), Median(lat_plain))
            : 100.0 * Ratio(ok_plain - ok_traced, ok_plain);
    metrics.push_back({"trace.overhead_pct", overhead_pct, "%",
                       "(untraced n=" + std::to_string(lat_plain.size()) +
                           ", traced n=" + std::to_string(lat_traced.size()) + ")"});
    metrics.push_back({"trace.unattributed_pct", 100.0 * Ratio(unattributed, traced_rt),
                       "%"});
    std::vector<double> lags;
    for (const Sample& s : samples) lags.push_back(s.lag_ms);
    const Tail lag99 = TailPercentile(lags, 0.99);
    metrics.push_back({"loadgen.lag_p99_ms", lag99.value, "ms", TailNote(lag99)});
    ProbeBitmap(db, timeline, metrics);
    failed += ProbeStream(ingest_base, data.held_back, metrics);
    failed += static_cast<std::uint64_t>(ProbeKinds(db, timeline, metrics));
  }

  serving.Stop();
  stage("probes");
  std::fprintf(stderr, "perfbench wall time:%s\n", stages.c_str());
  if (args.trace) {
    const std::string path = trace_dir + "/serve_trace.json";
    std::error_code ec;
    std::printf("trace spans written to %s (%llu bytes)\n", path.c_str(),
                static_cast<unsigned long long>(fs::file_size(path, ec)));
  }
  PrintReport(metrics, failed == 0, attempted, failed);
  return 0;
}
