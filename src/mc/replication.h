// Deterministic parallel Monte Carlo replication.
//
// A ReplicationPlan runs N independent replicas of a simulation body with
// task::parallel_for. Determinism is by construction: replica i always draws
// from Rng(seed).fork("<label>-<i>") and writes its result into slot i of a
// pre-sized vector, so per-replica results are bit-identical to serial
// execution regardless of thread count or scheduling order. Aggregation
// (aggregate.h) then folds the slots in replica order on the calling thread,
// making merged statistics equally schedule-independent.
//
// The body owns all per-replica state (its own sim::Engine, synthesizer,
// scratch buffers). Nothing is shared across replicas except the read-only
// plan inputs — which is what makes the parallelism safe and the results
// reproducible.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "task/task.h"

namespace acme::mc {

struct ReplicationOptions {
  std::size_t replicas = 8;
  // 0 picks hardware_concurrency; 1 runs inline on the calling thread.
  std::size_t threads = 0;
  std::uint64_t seed = 42;
  // Fork label prefix: replica i draws from fork("<stream_label>-<i>").
  std::string stream_label = "replica";
};

// CPU seconds consumed by the calling thread. Replica costs are measured
// with this clock, not wall time: on an oversubscribed machine a replica's
// wall time includes waiting for the CPU, which would overstate the serial
// baseline and fabricate speedup. Thread CPU time is immune to time-slicing.
inline double thread_cpu_seconds() {
#if defined(__linux__) || defined(_POSIX_THREAD_CPUTIME)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
#endif
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Timing accountancy for one plan execution. serial_seconds is the sum of
// per-replica thread-CPU times, i.e. what a one-thread run would cost;
// speedup is the measured parallel efficiency against that.
struct RunTiming {
  double wall_seconds = 0;
  double serial_seconds = 0;
  std::size_t threads_used = 1;
  double speedup() const {
    return wall_seconds > 0 ? serial_seconds / wall_seconds : 1.0;
  }
};

template <typename Result>
struct ReplicaRun {
  std::vector<Result> results;          // indexed by replica, always full size
  std::vector<double> replica_seconds;  // per-replica thread-CPU time
  RunTiming timing;
};

template <typename Result>
class ReplicationPlan {
 public:
  using Body = std::function<Result(common::Rng&, std::size_t replica)>;

  explicit ReplicationPlan(ReplicationOptions options, Body body)
      : options_(std::move(options)), body_(std::move(body)) {
    ACME_CHECK(body_ != nullptr);
    ACME_CHECK(options_.replicas > 0);
  }

  const ReplicationOptions& options() const { return options_; }

  // Runs every replica and returns results in replica order.
  ReplicaRun<Result> run() const {
    ReplicaRun<Result> out;
    out.results.resize(options_.replicas);
    out.replica_seconds.resize(options_.replicas, 0.0);
    const common::Rng root(options_.seed);

    const auto run_replica = [&](std::size_t i) {
      // Wall-clock worker timing goes to the tracer only; metrics stay a
      // deterministic function of the replica count so snapshots match
      // byte-for-byte across thread counts.
      ACME_OBS_SPAN_ARG("mc", "replica", "index", std::to_string(i));
      if (obs::enabled()) {
        static obs::Counter& replicas = obs::metrics().counter(
            "acme_mc_replicas_total", "Monte Carlo replicas executed");
        replicas.inc();
      }
      const double t0 = thread_cpu_seconds();
      common::Rng rng =
          root.fork(options_.stream_label + "-" + std::to_string(i));
      out.results[i] = body_(rng, i);
      out.replica_seconds[i] = thread_cpu_seconds() - t0;
    };

    const auto wall0 = std::chrono::steady_clock::now();
    if (options_.threads == 1) {
      for (std::size_t i = 0; i < options_.replicas; ++i) run_replica(i);
      out.timing.threads_used = 1;
    } else {
      task::parallel_for(options_.threads, options_.replicas, run_replica);
      out.timing.threads_used = task::resolve_threads(options_.threads);
    }
    out.timing.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();
    for (double s : out.replica_seconds) out.timing.serial_seconds += s;
    return out;
  }

 private:
  ReplicationOptions options_;
  Body body_;
};

// One-shot convenience wrapper.
template <typename Result>
ReplicaRun<Result> run_replicas(
    const ReplicationOptions& options,
    const std::function<Result(common::Rng&, std::size_t)>& body) {
  return ReplicationPlan<Result>(options, body).run();
}

// Folds a per-replica scalar metric into a streaming aggregator in replica
// order (the deterministic merge order).
template <typename Result, typename Extract, typename Aggregator>
void fold_metric(const ReplicaRun<Result>& run, Extract&& extract,
                 Aggregator& agg) {
  for (std::size_t i = 0; i < run.results.size(); ++i)
    agg.add(extract(run.results[i]));
}

}  // namespace acme::mc
