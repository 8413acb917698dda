// Continuous-batching inference fleet on the shared event spine
// (DESIGN.md §11).
//
// A ServeFleet is `replicas` independent tensor-parallel serving instances
// fed by one open-loop ArrivalProcess. Each replica runs continuous batching
// with distinct prefill and decode phases priced by ReplicaCostModel, and a
// KV-cache admission rule: a request is admitted only when its worst-case
// resident footprint (prompt + output tokens) fits the replica's remaining
// KV capacity, so nothing is ever evicted mid-flight.
//
// The decode loop is epoch-coalesced so the hot path costs O(1) events per
// request instead of O(output tokens): between admissions the batch
// composition is fixed, every decode step advances every active request by
// exactly one token, and a request therefore finishes when the replica's
// cumulative step counter reaches (steps at admission + output - 1). One
// engine event covers min(steps-to-next-completion, max_epoch_steps) steps;
// completions inside the epoch get exact timestamps by arithmetic, and the
// step cap bounds how long a queued request waits for the next admission
// scan. Each replica keeps its batch sorted by finish step (latest first),
// so an epoch pops its finishers off the back and reads the next completion
// from the back: it costs its completions, not its batch. Requests live in
// a pre-sized pool with a free list, queues are fixed rings, and callbacks
// capture at most {fleet pointer, replica index} — the steady-state request
// path performs zero heap allocations (pinned by bench_serve_spine's
// operator-new hook).
//
// Determinism: one engine thread, all randomness from the two forked streams
// inside ArrivalProcess, replicas selected by deterministic least-loaded
// scan (lowest index wins ties), and latency quantiles read from log-linear
// histograms (common::LatencyHistogram, within 2^-7 relative of the exact
// order statistic). A fleet run is a pure function of (config, seed);
// FleetReport::digest() pins that for test_determinism.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/collective.h"
#include "comm/topology.h"
#include "common/stats.h"
#include "parallel/model_math.h"
#include "serve/model.h"
#include "serve/traffic.h"
#include "sim/engine.h"

namespace acme::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace acme::snap

namespace acme::serve {

struct ServeConfig {
  int replicas = 4;
  ReplicaHardware hw{};
  parallel::TransformerConfig model = parallel::llm_7b();
  comm::FabricConfig fabric = comm::seren_fabric();
  TrafficProfile traffic{};
  // SLO targets: time-to-first-token and per-output-token latency. A request
  // attains its SLO when both hold; rejected and failed requests never do.
  double slo_ttft_seconds = 2.0;
  double slo_tpot_seconds = 0.1;
  // Arrivals stop at the horizon; in-flight requests drain afterwards.
  double horizon_seconds = 3600.0;
  int max_batch = 64;        // concurrent requests per replica
  int queue_cap = 256;       // waiting requests per replica before rejection
  int max_epoch_steps = 32;  // admission-scan cadence in decode steps

  int total_gpus() const { return replicas * hw.gpus; }
};

struct FleetReport {
  std::uint64_t offered = 0;    // arrivals sampled from the traffic process
  std::uint64_t completed = 0;  // full output generated
  std::uint64_t rejected = 0;   // no up replica with queue room (or pool full)
  std::uint64_t failed = 0;     // in flight or queued when a replica died
  std::uint64_t attained = 0;   // completed within both SLO targets
  std::uint64_t prefill_tokens = 0;
  std::uint64_t decode_tokens = 0;
  std::uint64_t decode_steps = 0;  // engine-level batching epochs are fewer
  std::uint64_t epochs = 0;
  int replica_kills = 0;
  int rewarms = 0;
  double horizon_seconds = 0;

  // Latency quantiles from the latency histograms (seconds; within 2^-7
  // relative of the exact order statistic).
  double ttft_p50 = 0, ttft_p99 = 0;
  double tpot_p50 = 0, tpot_p99 = 0;
  double e2e_p50 = 0, e2e_p99 = 0;
  double ttft_mean = 0, e2e_mean = 0;

  // Time-weighted means over the horizon.
  double mean_batch_occupancy = 0;
  double mean_queue_depth = 0;

  // Fraction of offered requests that completed within SLO; 1.0 with no
  // traffic (nothing was violated).
  double slo_attainment() const {
    return offered > 0 ? static_cast<double>(attained) /
                             static_cast<double>(offered)
                       : 1.0;
  }
  // SLO-attained completions per second of horizon — the serving analogue of
  // the training goodput the paper's §6.1 argues for.
  double goodput_rps() const {
    return horizon_seconds > 0
               ? static_cast<double>(attained) / horizon_seconds
               : 0.0;
  }
  double offered_rps() const {
    return horizon_seconds > 0 ? static_cast<double>(offered) / horizon_seconds
                               : 0.0;
  }

  // FNV-1a over every counter and a fixed-precision rendering of every
  // derived value: byte-identical across runs and mc thread counts.
  std::uint64_t digest() const;
  std::string summary() const;  // one-line human rendering for benches
};

class ServeFleet {
 public:
  // The fleet schedules on the caller's engine so serve events interleave
  // with whatever else (scheduler replay, failure chain) shares the spine.
  ServeFleet(sim::Engine& engine, ServeConfig config, std::uint64_t seed);

  // Arms the arrival chain (and pre-sizes the engine). Call once before the
  // engine runs.
  void start();

  // Failure injection: kills replica `index` — every queued and in-flight
  // request on it fails — and re-warms it after `rewarm_seconds` (NCCL
  // bring-up + weight reload, priced by the caller).
  void kill_replica(int index, double rewarm_seconds);

  int replicas() const { return static_cast<int>(reps_.size()); }
  int up_replicas() const { return up_; }
  bool replica_up(int index) const {
    return reps_[static_cast<std::size_t>(index)].up;
  }
  // Requests in replica `index`'s batch and in its queue right now.
  std::size_t replica_active(int index) const {
    return reps_[static_cast<std::size_t>(index)].active_slot.size();
  }
  std::size_t replica_queued(int index) const {
    return reps_[static_cast<std::size_t>(index)].ring_count;
  }
  const ServeConfig& config() const { return config_; }
  const ReplicaCostModel& cost_model() const { return cost_; }

  // Finalizes quantiles and time-weighted means. Call after the engine
  // drained; safe to call repeatedly.
  FleetReport report() const;

  // Snapshot support (acme::snap, DESIGN.md §12). save() is valid at any
  // quiescent point; restore() requires *this freshly constructed from the
  // same (config, seed) with start() never called, and an engine that already
  // holds the restored event spine — the fleet rebinds its pending arrival /
  // epoch / rewarm callbacks into that spine.
  void save(snap::SnapshotWriter& w) const;
  void restore(snap::SnapshotReader& r);

 private:
  struct Request {
    double arrival = 0;
    double first_token = 0;
    std::int32_t prompt = 0;
    std::int32_t output = 0;
    std::uint64_t span_id = 0;  // obs async-span key
  };

  struct Replica {
    bool up = true;
    bool stepping = false;  // an epoch event is pending
    std::uint64_t steps = 0;         // cumulative decode steps
    std::uint64_t resident_tokens = 0;  // reserved KV tokens
    // The batch as parallel arrays, sorted descending by finish step (the
    // replica step count at which the request completes); among equal
    // finish steps the older request sits nearer the back. Both reserve
    // max_batch.
    std::vector<std::uint32_t> active_slot;
    std::vector<std::uint64_t> active_finish;
    // Fixed-ring FIFO of waiting request slots.
    std::vector<std::uint32_t> ring;
    std::size_t ring_head = 0;
    std::size_t ring_count = 0;
    // Epoch bookkeeping for exact in-epoch completion timestamps. The epoch
    // and rewarm handles are cleared when their events fire or cancel, so
    // valid() <=> pending (the snapshot rebinds exactly the valid ones).
    sim::EventHandle epoch;
    sim::EventHandle rewarm;
    double epoch_start = 0;
    double epoch_prefill = 0;
    double epoch_step_seconds = 0;
    double epoch_end_time = 0;
    std::uint64_t epoch_base_steps = 0;
    std::uint64_t epoch_end_steps = 0;
  };

  void arrival_fire();
  void plan_epoch(int r);
  void epoch_fire(int r);
  void rewarm_fire(int r);
  int pick_replica() const;  // least loaded up replica, lowest index wins
  void complete_request(std::uint32_t slot, double completion_time);
  void fail_request(std::uint32_t slot);
  void touch_queue_integral();

  sim::Engine& engine_;
  ServeConfig config_;
  ReplicaCostModel cost_;
  ArrivalProcess arrivals_;
  std::vector<Replica> reps_;
  int up_ = 0;
  // Pending arrival-chain event; cleared at fire so valid() <=> pending.
  sim::EventHandle arrival_event_;

  std::vector<Request> pool_;
  std::vector<std::uint32_t> free_slots_;

  // Accounting (event-order deterministic).
  std::uint64_t offered_ = 0, completed_ = 0, rejected_ = 0, failed_ = 0,
                attained_ = 0;
  std::uint64_t prefill_tokens_ = 0, decode_tokens_ = 0, decode_steps_ = 0,
                epochs_ = 0;
  int kills_ = 0, rewarms_ = 0;
  std::uint64_t next_span_id_ = 1;
  double batch_integral_ = 0;  // ∑ batch_size × epoch seconds
  double queue_integral_ = 0;  // ∑ total queued × elapsed
  double queue_last_t_ = 0;
  std::uint64_t queued_now_ = 0;
  double last_event_t_ = 0;  // latest engine time a serve event fired
  common::LatencyHistogram ttft_, tpot_, e2e_;
};

}  // namespace acme::serve
