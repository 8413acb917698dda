// §6.1-1: asynchronous checkpointing — blocking time and overhead reduction
// for the 7B and 123B models at a 30-minute interval, plus a live run of the
// real threaded writer.
//
// Monte Carlo conversion: production storage bandwidth is not a constant, so
// the bench replicates the timing model under lognormal bandwidth jitter
// (PCIe D2H, storage NICs, remote FS aggregate) and reports 95% confidence
// intervals on the stall-reduction range.
// Flags: --replicas N --threads K --seed S --json out.json
#include <chrono>

#include "bench_util.h"

using namespace acme;

namespace {

struct CkptSample {
  double speedup_7b = 0;
  double speedup_123b = 0;
  double async_overhead_123b_pct = 0;  // of training time, 30 min interval
};

// One draw of the jittered operating point: each bandwidth gets an
// independent lognormal multiplier with ~15% dispersion (median 1), the
// shape the paper's Fig 16-left contention curves motivate.
CkptSample sample_ckpt(common::Rng& rng) {
  constexpr double kSigma = 0.15;
  ckpt::CheckpointTimingConfig config;
  config.pcie_bytes_per_sec *= rng.lognormal(0.0, kSigma);
  config.backend_bytes_per_sec *= rng.lognormal(0.0, kSigma);
  config.node_nic_bytes_per_sec *= rng.lognormal(0.0, kSigma);
  ckpt::CheckpointTimingModel timing(config);

  const double interval = 30 * common::kMinute;
  CkptSample out;
  {
    const double params = parallel::llm_7b().params();
    out.speedup_7b = timing.sync_blocking_seconds(params, 64) /
                     timing.async_blocking_seconds(params, 64);
  }
  {
    const double params = parallel::llm_123b().params();
    const double async_b = timing.async_blocking_seconds(params, 2048);
    out.speedup_123b = timing.sync_blocking_seconds(params, 2048) / async_b;
    out.async_overhead_123b_pct =
        100.0 * timing.overhead_fraction(async_b, interval);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  mc::ReplicationOptions defaults;
  defaults.replicas = 16;
  defaults.stream_label = "sec61-ckpt";
  const bench::BenchCli obs_cli =
      bench::parse_cli(argc, argv, "bench_sec61_checkpointing", defaults);
  const mc::McCli& cli = obs_cli.mc;
  bench::header("Sec 6.1", "Asynchronous checkpointing speedups");

  ckpt::CheckpointTimingModel timing;
  const double interval = 30 * common::kMinute;

  struct Case {
    const char* name;
    double params;
    int world;
  };
  const Case cases[] = {
      {"7B  (64 GPUs)", parallel::llm_7b().params(), 64},
      {"104B (1024 GPUs)", parallel::llm_104b().params(), 1024},
      {"123B (2048 GPUs)", parallel::llm_123b().params(), 2048},
  };

  common::Table table({"Model", "ckpt size", "sync stall", "async stall",
                       "speedup", "sync overhead", "async overhead"});
  double min_speedup = 1e9, max_speedup = 0;
  for (const auto& c : cases) {
    const double sync = timing.sync_blocking_seconds(c.params, c.world);
    const double async_b = timing.async_blocking_seconds(c.params, c.world);
    const double speedup = sync / async_b;
    min_speedup = std::min(min_speedup, speedup);
    max_speedup = std::max(max_speedup, speedup);
    table.add_row({c.name, common::format_bytes(timing.total_bytes(c.params)),
                   common::Table::num(sync, 2) + " s",
                   common::Table::num(async_b, 2) + " s",
                   common::Table::num(speedup, 1) + "x",
                   common::Table::pct(timing.overhead_fraction(sync, interval), 2),
                   common::Table::pct(timing.overhead_fraction(async_b, interval), 3)});
  }
  std::printf("%s", table.render().c_str());

  // Exercise the real threaded writer: stage 64 MB snapshots against a slow
  // sink and show the trainer-visible stall vs the persist time.
  ckpt::NullSink sink(400e6);  // 400 MB/s "remote storage"
  ckpt::AsyncCheckpointWriter writer(sink, 3);
  std::vector<std::byte> state(64 << 20);
  double total_stall = 0;
  const auto persist_start = std::chrono::steady_clock::now();
  for (std::uint64_t step = 1; step <= 4; ++step) {
    const auto t0 = std::chrono::steady_clock::now();
    writer.snapshot(step * 100, state);
    total_stall += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  }
  writer.flush();
  const double persist_total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - persist_start)
          .count();
  std::printf(
      "\nlive AsyncCheckpointWriter: 4 x 64 MB snapshots\n"
      "  trainer-visible stall: %.3f s total | background persist: %.3f s\n"
      "  persisted %llu, dropped %llu\n",
      total_stall, persist_total,
      static_cast<unsigned long long>(writer.stats().persisted),
      static_cast<unsigned long long>(writer.stats().dropped));

  // Multi-seed replication under storage bandwidth jitter.
  const auto run = mc::run_replicas<CkptSample>(
      cli.options,
      [](common::Rng& rng, std::size_t) { return sample_ckpt(rng); });

  mc::MetricAggregator s7b, s123b, overhead;
  mc::fold_metric(run, [](const CkptSample& s) { return s.speedup_7b; }, s7b);
  mc::fold_metric(run, [](const CkptSample& s) { return s.speedup_123b; }, s123b);
  mc::fold_metric(run, [](const CkptSample& s) { return s.async_overhead_123b_pct; },
                  overhead);

  mc::BenchReport report("sec61_checkpointing");
  report.set_timing(run.timing, cli.options.replicas);
  report.add_metric("ckpt_speedup_7b", s7b, "x");
  report.add_metric("ckpt_speedup_123b", s123b, "x");
  report.add_metric("async_overhead_123b_30min", overhead, "%");

  bench::recap("checkpoint stall reduction (7B..123B)", "3.6x ~ 58.7x",
               common::Table::num(min_speedup, 1) + "x ~ " +
                   common::Table::num(max_speedup, 1) + "x");
  bench::recap("7B stall reduction under bw jitter", "3.6x",
               common::Table::num(s7b.mean(), 1) + "x",
               mc::format_with_ci(s7b.mean(), s7b.ci95(), "x", 2));
  bench::recap("123B stall reduction under bw jitter", "58.7x",
               common::Table::num(s123b.mean(), 1) + "x",
               mc::format_with_ci(s123b.mean(), s123b.ci95(), "x", 2));
  bench::recap("live writer stall vs persist", "stall << persist",
               common::Table::num(total_stall, 2) + " s vs " +
                   common::Table::num(persist_total, 2) + " s");
  bench::mc_footer(report, cli);
  return bench::finish(obs_cli);
}
