// The load generator: one thread per client connection, closed or open
// loop, recording one Sample per request.
//
// A closed-loop client sends its next request when the previous reply
// arrives. Open-loop clients share one schedule of due times: whichever
// connection is free takes the next due request, and its latency is
// timed from when it was due, so a stall is charged to every request it
// delays. Replies are not parsed beyond InspectResponse during the phase;
// the checker compares text hashes against references afterwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stats.hpp"
#include "traffic.hpp"

namespace perfbench {

struct Sample {
  std::uint32_t key = 0;
  std::int8_t kind = -1;  ///< index into AllKinds(); -1 = ingest
  bool interactive = false;
  bool traced = false;
  bool transport_error = false;
  double due_ms = 0;   ///< since phase start
  double sent_ms = 0;
  double recv_ms = 0;
  double lag_ms = 0;   ///< how late the generator itself sent
  ResponseView view;
  // Server stage breakdown of a traced reply (-1 = stage absent).
  double parse_ms = -1;
  double queue_wait_ms = -1;
  double execute_ms = -1;
  double stage_sum_ms = 0;

  bool is_ingest() const { return kind < 0; }
  /// Client-observed latency: from due time (open loop) or send time.
  double latency_ms() const { return recv_ms - due_ms; }
};

/// A shared open-loop schedule (due times ascending).
struct OpenSchedule {
  std::vector<double> due_ms;
  std::vector<Draw> draws;
  std::atomic<std::size_t> next{0};
};

/// One client connection's plan.
struct ClientPlan {
  int port = 0;
  Generator closed;                       ///< closed loop when set
  std::shared_ptr<OpenSchedule> open;     ///< else open loop over this
  std::uint64_t seed = 0;
  double think_ms = 0;  ///< closed loop: pause between reply and next send
};

struct PhaseOptions {
  double seconds = 1;
  /// Traced run: the phase is cut into four slices; requests in the odd
  /// slices carry "trace":true and global span recording is armed for
  /// those slices.
  bool trace_slices = false;
};

/// Runs all clients for one phase and returns every sample.
std::vector<Sample> RunPhase(const std::vector<ClientPlan>& plans,
                             const RequestTable& table,
                             const PhaseOptions& options);

/// Poisson arrivals at `rate` per second over `seconds`.
std::vector<double> PoissonArrivals(double rate, double seconds, Rng& rng);

/// Index of `kind` in AllKinds() (-1 when not a query kind).
std::int8_t KindIndex(const std::string& kind);

}  // namespace perfbench
