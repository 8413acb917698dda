// acme::serve unit tests: arrival-process statistics, the KV-cache memory
// anatomy against the parallel-side ground truth, prefill/decode accounting
// through the continuous-batching spine, and the SLO-goodput edge cases
// (no traffic, saturation, replica killed mid-batch).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "core/acme.h"
#include "snap/format.h"

namespace acme {
namespace {

serve::ServeConfig small_config() {
  serve::ServeConfig cfg;
  cfg.replicas = 2;
  cfg.traffic.mean_rps = 8.0;
  cfg.traffic.diurnal_amplitude = 0.25;
  cfg.traffic.diurnal_period_seconds = 600.0;
  cfg.traffic.burst_multiplier = 2.0;
  cfg.traffic.burst_fraction = 0.1;
  cfg.horizon_seconds = 300.0;
  return cfg;
}

serve::FleetReport run_fleet(const serve::ServeConfig& cfg,
                             std::uint64_t seed) {
  sim::Engine engine;
  serve::ServeFleet fleet(engine, cfg, seed);
  fleet.start();
  engine.run();
  return fleet.report();
}

TEST(Traffic, LongRunMeanMatchesProfile) {
  // The base-rate normalization must make the long-run mean equal mean_rps
  // no matter how much diurnal swing or MMPP burstiness shapes the process.
  serve::TrafficProfile profile;
  profile.mean_rps = 50.0;
  profile.diurnal_amplitude = 0.5;
  profile.diurnal_period_seconds = 3600.0;
  profile.burst_multiplier = 3.0;
  profile.burst_fraction = 0.1;
  serve::ArrivalProcess arrivals(profile, 7);
  const double horizon = 40000.0;  // many periods, many burst dwells
  double t = arrivals.next_interarrival(0.0);
  std::uint64_t count = 0;
  while (t <= horizon) {
    ++count;
    t += arrivals.next_interarrival(t);
  }
  const double observed = static_cast<double>(count) / horizon;
  EXPECT_NEAR(observed, profile.mean_rps, 0.05 * profile.mean_rps);
}

TEST(Traffic, FlatProfileIsPlainPoisson) {
  serve::TrafficProfile profile;
  profile.mean_rps = 20.0;
  profile.diurnal_amplitude = 0.0;
  profile.burst_multiplier = 1.0;
  profile.burst_fraction = 0.0;
  serve::ArrivalProcess arrivals(profile, 11);
  const double horizon = 20000.0;
  double t = arrivals.next_interarrival(0.0);
  std::uint64_t count = 0;
  double sum = 0, sum_sq = 0;
  double prev = 0;
  while (t <= horizon) {
    const double gap = t - prev;
    sum += gap;
    sum_sq += gap * gap;
    prev = t;
    ++count;
    t += arrivals.next_interarrival(t);
  }
  ASSERT_GT(count, 100000u);
  const double n = static_cast<double>(count);
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  // Exponential interarrivals: variance == mean^2 (CV == 1).
  EXPECT_NEAR(mean, 1.0 / profile.mean_rps, 0.05 * mean);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

TEST(Traffic, NoTrafficNeverArrives) {
  serve::TrafficProfile profile;
  profile.mean_rps = 0.0;
  serve::ArrivalProcess arrivals(profile, 3);
  EXPECT_TRUE(std::isinf(arrivals.next_interarrival(0.0)));
}

TEST(Traffic, RequestShapesRespectClamps) {
  serve::TrafficProfile profile;
  profile.prompt_tokens_mean = 4.0;  // tiny means stress the clamps
  profile.output_tokens_mean = 1.0;
  serve::ArrivalProcess arrivals(profile, 5);
  for (int i = 0; i < 2000; ++i) {
    const serve::RequestSample s = arrivals.sample_request();
    EXPECT_GE(s.prompt_tokens, 1);
    EXPECT_GE(s.output_tokens, 2);  // first token is prefill's; >= 1 decode
    EXPECT_LE(s.prompt_tokens, profile.max_tokens);
    EXPECT_LE(s.output_tokens, profile.max_tokens);
  }
}

// ArrivalProcess as it was before the thinning squeeze: every candidate
// evaluates the full rate (and its sin()). The fleet's request stream must
// match it bit for bit.
class PlainThinningArrivals {
 public:
  PlainThinningArrivals(serve::TrafficProfile p, std::uint64_t seed)
      : p_(p),
        rng_(common::Rng(seed).fork("serve-arrivals")),
        state_rng_(common::Rng(seed).fork("serve-mmpp")),
        norm_(p.rate_norm()),
        peak_(p.peak_rps()) {}

  double next_interarrival(double now) {
    if (p_.mean_rps <= 0 || peak_ <= 0)
      return std::numeric_limits<double>::infinity();
    double t = now;
    for (;;) {
      t += rng_.exponential(peak_);
      if (rng_.uniform() * peak_ <= rate_at(t)) return t - now;
    }
  }

  serve::RequestSample sample_request() {
    const auto clamp_tokens = [&](double mean, std::int32_t lo) {
      const double drawn = rng_.exponential(1.0 / std::max(mean, 1.0));
      const double v = std::min(drawn, static_cast<double>(p_.max_tokens));
      return std::max(lo, static_cast<std::int32_t>(v));
    };
    serve::RequestSample s;
    s.prompt_tokens = clamp_tokens(p_.prompt_tokens_mean, 1);
    s.output_tokens = clamp_tokens(p_.output_tokens_mean, 2);
    return s;
  }

 private:
  double rate_at(double t) {
    if (p_.burst_fraction > 0 && p_.burst_multiplier > 1) {
      const double burst_dwell = std::max(p_.burst_dwell_seconds, 1e-9);
      const double base_dwell =
          burst_dwell * (1.0 - p_.burst_fraction) / p_.burst_fraction;
      while (state_until_ <= t) {
        burst_ = !burst_;
        state_until_ += state_rng_.exponential(
            1.0 / (burst_ ? burst_dwell : base_dwell));
      }
    }
    const double diurnal =
        1.0 + p_.diurnal_amplitude *
                  std::sin(2.0 * M_PI * t / p_.diurnal_period_seconds);
    double rate = p_.mean_rps * norm_ * diurnal;
    if (burst_) rate *= p_.burst_multiplier;
    return rate;
  }

  serve::TrafficProfile p_;
  common::Rng rng_, state_rng_;
  bool burst_ = false;
  double state_until_ = 0;
  double norm_, peak_;
};

TEST(Traffic, SqueezedThinningMatchesPlainThinningBitForBit) {
  struct Case {
    const char* name;
    void (*edit)(serve::TrafficProfile&);
  };
  const Case cases[] = {
      {"default", [](serve::TrafficProfile&) {}},
      {"amplitude 0", [](serve::TrafficProfile& p) { p.diurnal_amplitude = 0; }},
      {"amplitude 1", [](serve::TrafficProfile& p) { p.diurnal_amplitude = 1; }},
      {"multiplier 1", [](serve::TrafficProfile& p) { p.burst_multiplier = 1; }},
      {"fraction 0", [](serve::TrafficProfile& p) { p.burst_fraction = 0; }},
      // Many diurnal periods, so candidates land on every part of the swing.
      {"period 60 s",
       [](serve::TrafficProfile& p) { p.diurnal_period_seconds = 60; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    serve::TrafficProfile profile;
    c.edit(profile);
    serve::ArrivalProcess squeezed(profile, 2024);
    PlainThinningArrivals plain(profile, 2024);
    double now = 0;
    int mismatches = 0;
    for (int i = 0; i < 100000 && mismatches == 0; ++i) {
      const double a = squeezed.next_interarrival(now);
      const double b = plain.next_interarrival(now);
      const serve::RequestSample sa = squeezed.sample_request();
      const serve::RequestSample sb = plain.sample_request();
      if (a != b || sa.prompt_tokens != sb.prompt_tokens ||
          sa.output_tokens != sb.output_tokens) {
        ++mismatches;
        ADD_FAILURE() << "arrival " << i << ": interarrival " << a << " vs "
                      << b << ", prompt " << sa.prompt_tokens << " vs "
                      << sb.prompt_tokens << ", output " << sa.output_tokens
                      << " vs " << sb.output_tokens;
      }
      now += a;
    }
  }
}

TEST(ReplicaModel, KvAnatomyMatchesParallelGroundTruth) {
  // The serving memory model must reuse the training-side anatomy: resident
  // weights are the fp16 2Psi term, and the KV capacity is exactly what HBM
  // remains after weights + workspace, divided by the per-token K/V state.
  const parallel::TransformerConfig model = parallel::llm_7b();
  serve::ReplicaHardware hw;
  const comm::CollectiveModel fabric(comm::seren_fabric());
  const serve::ReplicaCostModel cost(model, hw, fabric);

  EXPECT_DOUBLE_EQ(cost.weight_bytes(),
                   parallel::mixed_precision_anatomy(model.params()).param_bytes);
  EXPECT_DOUBLE_EQ(cost.kv_bytes_per_token(),
                   2.0 * 2.0 * model.layers * model.hidden);
  const double usable =
      hw.gpus * (hw.gpu_memory_bytes - hw.workspace_bytes_per_gpu) -
      cost.weight_bytes();
  EXPECT_EQ(cost.kv_capacity_tokens(),
            static_cast<std::uint64_t>(usable / cost.kv_bytes_per_token()));
  // A 7B on 8x80GB must hold hundreds of thousands of KV tokens.
  EXPECT_GT(cost.kv_capacity_tokens(), 100000u);
}

TEST(ReplicaModel, PhasePricingIsMonotone) {
  const serve::ReplicaCostModel cost(parallel::llm_7b(), {},
                                     comm::CollectiveModel(comm::seren_fabric()));
  EXPECT_GT(cost.prefill_seconds(1), 0.0);
  EXPECT_LT(cost.prefill_seconds(128), cost.prefill_seconds(4096));
  // More in-flight requests and more resident KV both slow a decode step.
  EXPECT_LE(cost.decode_step_seconds(1, 1000),
            cost.decode_step_seconds(64, 1000));
  EXPECT_LT(cost.decode_step_seconds(8, 1000),
            cost.decode_step_seconds(8, 400000));
}

TEST(ServeFleet, TokenAccountingBalances) {
  const serve::FleetReport r = run_fleet(small_config(), 99);
  ASSERT_GT(r.offered, 0u);
  // Every offered request is exactly one of completed / rejected / failed
  // once the engine drains.
  EXPECT_EQ(r.offered, r.completed + r.rejected + r.failed);
  EXPECT_EQ(r.failed, 0u);  // nothing kills replicas in this run
  ASSERT_GT(r.completed, 0u);
  // Each completed request contributed >= 1 prompt token and exactly
  // (output - 1) >= 1 decode tokens; decode work is epoch-coalesced so
  // steps >= epochs and tokens >= steps (every step advances >= 1 request).
  EXPECT_GE(r.prefill_tokens, r.completed);
  EXPECT_GE(r.decode_tokens, r.completed);
  EXPECT_GE(r.decode_steps, r.epochs);
  EXPECT_GE(r.decode_tokens, r.decode_steps);
  // Latency ordering: ttft <= e2e at matching quantiles, p50 <= p99.
  EXPECT_LE(r.ttft_p50, r.ttft_p99);
  EXPECT_LE(r.e2e_p50, r.e2e_p99);
  EXPECT_LE(r.ttft_p50, r.e2e_p50);
  EXPECT_GT(r.mean_batch_occupancy, 0.0);
}

TEST(ServeFleet, ZeroTrafficAttainsVacuously) {
  serve::ServeConfig cfg = small_config();
  cfg.traffic.mean_rps = 0.0;
  const serve::FleetReport r = run_fleet(cfg, 1);
  EXPECT_EQ(r.offered, 0u);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_DOUBLE_EQ(r.slo_attainment(), 1.0);  // nothing violated
  EXPECT_DOUBLE_EQ(r.goodput_rps(), 0.0);
}

TEST(ServeFleet, LightLoadAttainsSlo) {
  serve::ServeConfig cfg = small_config();
  cfg.traffic.mean_rps = 2.0;  // far below two replicas' capacity
  cfg.traffic.burst_multiplier = 1.0;
  cfg.traffic.burst_fraction = 0.0;
  const serve::FleetReport r = run_fleet(cfg, 21);
  ASSERT_GT(r.offered, 0u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_GE(r.slo_attainment(), 0.99);
  EXPECT_NEAR(r.goodput_rps(), r.offered_rps(), 0.05 * r.offered_rps());
}

TEST(ServeFleet, SaturationDegradesGoodputNotJustLatency) {
  serve::ServeConfig cfg = small_config();
  cfg.replicas = 1;
  cfg.traffic.mean_rps = 400.0;  // an order of magnitude past one replica
  const serve::FleetReport r = run_fleet(cfg, 33);
  EXPECT_GT(r.rejected, 0u);  // queue cap must engage
  EXPECT_LT(r.slo_attainment(), 0.5);
  EXPECT_LT(r.goodput_rps(), r.offered_rps() * 0.5);
}

TEST(ServeFleet, KillFailsInFlightAndRewarmRestores) {
  serve::ServeConfig cfg = small_config();
  cfg.traffic.mean_rps = 30.0;  // keeps both replicas busy
  sim::Engine engine;
  serve::ServeFleet fleet(engine, cfg, 77);
  fleet.start();
  engine.schedule_at(60.0, [&fleet] {
    EXPECT_TRUE(fleet.replica_up(0));
    fleet.kill_replica(0, 120.0);
    EXPECT_FALSE(fleet.replica_up(0));
    EXPECT_EQ(fleet.up_replicas(), 1);
  });
  engine.schedule_at(120.0, [&fleet] {
    EXPECT_FALSE(fleet.replica_up(0));  // still re-warming
  });
  engine.run();
  EXPECT_TRUE(fleet.replica_up(0));  // rewarm at t=180 restored it
  EXPECT_EQ(fleet.up_replicas(), 2);
  const serve::FleetReport r = fleet.report();
  EXPECT_EQ(r.replica_kills, 1);
  EXPECT_EQ(r.rewarms, 1);
  EXPECT_GT(r.failed, 0u);  // in-flight + queued work died with the replica
  EXPECT_EQ(r.offered, r.completed + r.rejected + r.failed);
  EXPECT_GT(r.completed, 0u);  // the surviving replica kept serving
}

TEST(ServeFleet, KillMidEpochFailsExactlyItsActiveAndQueuedRequests) {
  serve::ServeConfig cfg = small_config();
  cfg.traffic.mean_rps = 60.0;  // batches and queues both occupied
  cfg.max_batch = 8;
  sim::Engine engine;
  serve::ServeFleet fleet(engine, cfg, 77);
  fleet.start();
  std::size_t doomed = 0;
  engine.schedule_at(90.0, [&] {
    ASSERT_GT(fleet.replica_active(1), 0u);  // an epoch is in flight
    ASSERT_GT(fleet.replica_queued(1), 0u);
    doomed = fleet.replica_active(1) + fleet.replica_queued(1);
    const std::uint64_t failed_before = fleet.report().failed;
    fleet.kill_replica(1, 30.0);
    EXPECT_EQ(fleet.report().failed - failed_before, doomed);
    EXPECT_EQ(fleet.replica_active(1), 0u);
    EXPECT_EQ(fleet.replica_queued(1), 0u);
  });
  engine.run();
  const serve::FleetReport r = fleet.report();
  EXPECT_GT(doomed, 0u);
  EXPECT_EQ(r.failed, doomed);
  EXPECT_EQ(r.offered, r.completed + r.rejected + r.failed);
  EXPECT_EQ(r.rewarms, 1);
}

TEST(ServeFleet, OutageRejectsAllTrafficUntilRewarm) {
  serve::ServeConfig cfg = small_config();
  cfg.replicas = 1;
  sim::Engine engine;
  serve::ServeFleet fleet(engine, cfg, 5);
  fleet.start();
  // Down from t=10 past the whole arrival horizon: every arrival after the
  // kill finds no up replica and bounces. The engine still drains the rewarm
  // event after arrivals stop, so the fleet ends healthy.
  engine.schedule_at(10.0, [&fleet, &cfg] {
    fleet.kill_replica(0, 2.0 * cfg.horizon_seconds);
    EXPECT_EQ(fleet.up_replicas(), 0);
  });
  engine.run();
  EXPECT_TRUE(fleet.replica_up(0));
  const serve::FleetReport r = fleet.report();
  EXPECT_EQ(r.rewarms, 1);
  EXPECT_GT(r.rejected, 0u);  // no up replica -> every later arrival bounces
  EXPECT_EQ(r.offered, r.completed + r.rejected + r.failed);
}

// Offset of replica `rep`'s finish-step array inside a serve.fleet section:
// the tagged pod array of `n` u64 that directly follows the tagged pod
// array of `n` u32 slots. Returns npos when no replica batch matches.
std::size_t finish_array_at(const std::string& bytes, std::uint64_t n) {
  const auto u64_at = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  const std::size_t slots_len = 17 + 4 * n;
  for (std::size_t at = bytes.find("serve.fleet");
       at + slots_len + 17 + 8 * n <= bytes.size(); ++at) {
    if (bytes[at] == 7 && u64_at(at + 1) == 4 && u64_at(at + 9) == n &&
        bytes[at + slots_len] == 7 && u64_at(at + slots_len + 1) == 8 &&
        u64_at(at + slots_len + 9) == n)
      return at + slots_len + 17;
  }
  return std::string::npos;
}

// Re-seals the serve.fleet section's CRC after a hand edit.
void reseal_serve_section(std::string& bytes) {
  const std::string name = "serve.fleet";
  const std::size_t len_at = bytes.find(name) + name.size();
  std::uint64_t payload_len = 0;
  std::memcpy(&payload_len, bytes.data() + len_at, sizeof(payload_len));
  const std::size_t crc_at = len_at + sizeof(payload_len);
  const std::size_t payload = crc_at + sizeof(std::uint32_t);
  const std::uint32_t crc = snap::crc32(bytes.data() + payload, payload_len);
  std::memcpy(bytes.data() + crc_at, &crc, sizeof(crc));
}

// A restore trusts a batch only in descending finish order with nobody past
// its finish step: the epoch pops finishers off the back.
TEST(ServeFleet, RestoreRejectsBatchesOutOfFinishOrder) {
  const serve::ServeConfig cfg = small_config();
  sim::Engine engine;
  serve::ServeFleet fleet(engine, cfg, 61);
  fleet.start();
  engine.run_until(150.0);
  const std::uint64_t n = fleet.replica_active(0);
  ASSERT_GE(n, 2u);
  snap::SnapshotWriter w;
  engine.save(w);
  fleet.save(w);
  const std::string bytes = w.finish();

  const auto resume = [&](std::string snapshot) {
    snap::SnapshotReader r(std::move(snapshot));
    sim::Engine e;
    serve::ServeFleet f(e, cfg, 61);
    e.restore(r);
    f.restore(r);
    e.run();
    return f.report().digest();
  };
  engine.run();
  EXPECT_EQ(resume(bytes), fleet.report().digest());

  const std::size_t at = finish_array_at(bytes, n);
  ASSERT_NE(at, std::string::npos);
  std::uint64_t front = 0, back = 0;
  std::memcpy(&front, bytes.data() + at, sizeof(front));
  std::memcpy(&back, bytes.data() + at + 8 * (n - 1), sizeof(back));
  ASSERT_GT(front, back);  // the real save is descending

  std::string swapped = bytes;  // latest finisher moved to the back
  std::memcpy(swapped.data() + at, &back, sizeof(back));
  std::memcpy(swapped.data() + at + 8 * (n - 1), &front, sizeof(front));
  reseal_serve_section(swapped);
  EXPECT_THROW(resume(swapped), common::CheckError);

  std::string finished = bytes;  // still sorted, but already past its finish
  const std::uint64_t zero = 0;
  std::memcpy(finished.data() + at + 8 * (n - 1), &zero, sizeof(zero));
  reseal_serve_section(finished);
  EXPECT_THROW(resume(finished), common::CheckError);
}

TEST(ServeFleet, DigestIsSeedDeterministic) {
  const serve::ServeConfig cfg = small_config();
  const serve::FleetReport a = run_fleet(cfg, 1234);
  const serve::FleetReport b = run_fleet(cfg, 1234);
  const serve::FleetReport c = run_fleet(cfg, 4321);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_NE(a.digest(), c.digest());
}

}  // namespace
}  // namespace acme
