#include "loadgen.hpp"

#include <sys/prctl.h>

#include <cmath>
#include <optional>
#include <thread>

#include "serve/client.hpp"
#include "serve/json.hpp"
#include "trace/trace.hpp"

namespace perfbench {

std::int8_t KindIndex(const std::string& kind) {
  const auto& kinds = AllKinds();
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] == kind) return static_cast<std::int8_t>(i);
  }
  return -1;
}

std::vector<double> PoissonArrivals(double rate, double seconds, Rng& rng) {
  std::vector<double> due;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.Unit()) / rate;
    if (t >= seconds) break;
    due.push_back(t * 1e3);
  }
  return due;
}

namespace {

/// Fills the stage fields of a traced reply.
void ReadStages(const std::string& line, Sample& s) {
  auto parsed = gdelt::serve::JsonValue::Parse(line);
  if (!parsed.ok()) return;
  const auto* trace = parsed->Find("trace");
  const auto* stages = trace ? trace->Find("stages") : nullptr;
  if (stages == nullptr) return;
  for (const auto& stage : stages->elements()) {
    const auto* name = stage.Find("name");
    const auto* ms = stage.Find("ms");
    if (name == nullptr || ms == nullptr) continue;
    const double v = ms->AsNumber();
    s.stage_sum_ms += v;
    if (name->AsString() == "parse") s.parse_ms = v;
    if (name->AsString() == "queue_wait") s.queue_wait_ms = v;
    if (name->AsString() == "execute") s.execute_ms = v;
  }
}

class Connection {
 public:
  explicit Connection(int port) : port_(port) {}

  /// One round trip; false on transport failure (the connection is then
  /// re-dialled on the next call).
  bool RoundTrip(const std::string& line, std::string& reply) {
    if (!client_) {
      auto dialled = gdelt::serve::LineClient::Connect("127.0.0.1", port_);
      if (!dialled.ok()) return false;
      client_.emplace(std::move(*dialled));
    }
    auto got = client_->RoundTrip(line);
    if (!got.ok()) {
      client_.reset();
      return false;
    }
    reply = std::move(*got);
    return true;
  }

 private:
  int port_;
  std::optional<gdelt::serve::LineClient> client_;
};

}  // namespace

std::vector<Sample> RunPhase(const std::vector<ClientPlan>& plans,
                             const RequestTable& table,
                             const PhaseOptions& options) {
  const double phase_ms = options.seconds * 1e3;
  const double slice_ms = phase_ms / 4;
  // Every client dials before the clock starts.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [t0](double ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
  };
  const auto traced_at = [&](double ms) {
    if (!options.trace_slices) return false;
    const auto slice = static_cast<int>(ms / slice_ms);
    return slice % 2 == 1 && slice < 4;
  };

  std::vector<std::vector<Sample>> runs(plans.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < plans.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<Sample>& out = runs[c];
      // Growing the sample vector mid-phase would stall this client.
      out.reserve(1 << 17);
      const ClientPlan& plan = plans[c];
      Connection conn(plan.port);
      Rng rng(plan.seed);
      // Wake at the due time, not up to the default 50 us timer slack
      // later: the generator's own lateness would read as latency.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      std::string reply;
      // Warm the connection so dialling is not charged to the first
      // request.
      conn.RoundTrip("{\"query\":\"ping\"}", reply);
      std::this_thread::sleep_until(t0);
      double prev_recv = 0;
      for (std::uint64_t n = 0;; ++n) {
        Sample s;
        Draw draw;
        if (plan.closed) {
          if (n > 0 && plan.think_ms > 0) {
            std::this_thread::sleep_until(at(prev_recv + plan.think_ms));
          }
          if (MsBetween(t0, Clock::now()) >= phase_ms) break;
          draw = plan.closed(rng, n);
          s.due_ms = MsBetween(t0, Clock::now());
        } else {
          const std::size_t i = plan.open->next.fetch_add(1);
          if (i >= plan.open->due_ms.size()) break;
          const double grab = MsBetween(t0, Clock::now());
          draw = plan.open->draws[i];
          s.due_ms = plan.open->due_ms[i];
          std::this_thread::sleep_until(at(s.due_ms));
          s.lag_ms = MsBetween(t0, Clock::now()) - std::max(s.due_ms, grab);
        }
        s.key = draw.key;
        s.kind = KindIndex(draw.kind);
        s.interactive = IsInteractiveKind(draw.kind);
        std::string line = table.Line(draw.key);
        s.sent_ms = MsBetween(t0, Clock::now());
        if (plan.closed) {
          s.lag_ms = s.sent_ms - (n > 0 ? prev_recv + plan.think_ms : 0.0);
        }
        s.traced = traced_at(s.sent_ms) && !s.is_ingest();
        if (s.traced) line = "{\"trace\":true," + line.substr(1);
        const bool delivered = conn.RoundTrip(line, reply);
        s.recv_ms = MsBetween(t0, Clock::now());
        prev_recv = s.recv_ms;
        if (!delivered) {
          s.transport_error = true;
        } else {
          s.view = InspectResponse(reply);
          if (s.traced && s.view.ok) ReadStages(reply, s);
        }
        out.push_back(s);
      }
    });
  }
  if (options.trace_slices) {
    for (int slice = 0; slice < 4; ++slice) {
      std::this_thread::sleep_until(at(slice * slice_ms));
      gdelt::trace::SetEnabled(slice % 2 == 1);
    }
  }
  for (std::thread& t : threads) t.join();
  gdelt::trace::SetEnabled(false);

  std::vector<Sample> all;
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  return all;
}

}  // namespace perfbench
