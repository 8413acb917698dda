#include "recovery/runner.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/units.h"
#include "obs/obs.h"
#include "recovery/two_round_test.h"

namespace acme::recovery {

using common::kDay;
using common::kHour;
using common::kMinute;

FaultTolerantRunner::FaultTolerantRunner(RunnerConfig config)
    : config_(std::move(config)), injector_(config_.seed) {
  ACME_CHECK(config_.gpus > 0 && config_.step_seconds > 0);
  std::vector<const failure::FailureSpec*> specs;
  for (const auto& s : failure::failure_table()) specs.push_back(&s);
  agent_.seed_rules(specs);
}

bool FaultTolerantRunner::is_night(double t) {
  const double hour = std::fmod(t, kDay) / kHour;
  return hour < 8.0 || hour >= 22.0;
}

double FaultTolerantRunner::checkpoint_blocking() const {
  const double params = config_.model.params();
  return config_.async_ckpt
             ? timing_.async_blocking_seconds(params, config_.gpus)
             : timing_.sync_blocking_seconds(params, config_.gpus);
}

double FaultTolerantRunner::checkpoint_persist_lag() const {
  // Sync checkpoints are durable the moment the stall ends; async ones keep
  // persisting in the background.
  return config_.async_ckpt
             ? timing_.async_persist_seconds(config_.model.params(), config_.gpus)
             : 0.0;
}

double FaultTolerantRunner::recovery_stall(const failure::FailureSpec& spec,
                                           double now, RunnerReport& report,
                                           std::string* detail) {
  ACME_OBS_SPAN_ARG("recovery", "recovery_stall", "reason", spec.reason);
  if (obs::enabled()) {
    static obs::Counter& restarts = obs::metrics().counter(
        "acme_recovery_restarts_total", "Failure recoveries run by the runner");
    restarts.inc();
  }
  common::Rng rng = injector_.make_rng("recovery-" + std::to_string(now));
  // Checkpoint reload is paid either way.
  const double reload = timing_.async_persist_seconds(config_.model.params(),
                                                      config_.gpus);
  if (!config_.auto_recovery) {
    ++report.manual_interventions;
    double ttr = injector_.sample_ttr(spec, rng);
    if (is_night(now) && rng.bernoulli(0.7)) {
      // Nobody awake: the job sits until the on-call engineer wakes up
      // (Fig 14's flat overnight segments).
      ttr += rng.uniform(1 * kHour, 6 * kHour);
    }
    *detail = spec.reason + " (manual restart)";
    return ttr + reload;
  }

  // Automatic path: diagnose from the (synthesized) runtime log, then run
  // fault detection if the verdict calls for it.
  auto log = log_synth_.failed_run(spec, rng);
  const auto diagnosis = agent_.diagnose(log.lines);
  if (diagnosis.reason == spec.reason) ++report.diagnosis_correct;

  double stall = 45.0;  // log collection + agent latency
  if (diagnosis.needs_node_detection ||
      (diagnosis.reason.empty() && spec.needs_node_detection)) {
    // Probe the job's nodes, numbered [0, nodes).
    const int nodes = std::max(1, config_.gpus / 8);
    std::vector<cluster::NodeId> probe(static_cast<std::size_t>(nodes));
    for (int i = 0; i < nodes; ++i) probe[static_cast<std::size_t>(i)] = i;
    const int bad =
        static_cast<int>(rng.uniform_int(0, 1)) + 1;  // 1-2 faulty nodes
    auto faulty = [&](cluster::NodeId id) { return id < bad; };
    TwoRoundResult localization;
    {
      ACME_OBS_SPAN_ARG("recovery", "two_round_localize", "nodes",
                        std::to_string(nodes));
      localization = two_round_localize(probe, faulty, comm_);
    }
    if (obs::enabled()) {
      static obs::Counter& localizations = obs::metrics().counter(
          "acme_recovery_localizations_total",
          "Two-round fault localizations triggered by recoveries");
      static obs::Histogram& stall_hist = obs::metrics().histogram(
          "acme_recovery_localization_seconds",
          "Simulated duration of each two-round localization",
          obs::Histogram::exponential_buckets(1.0, 2.0, 12));
      localizations.inc();
      stall_hist.observe(localization.duration_seconds);
    }
    stall += localization.duration_seconds;
    report.nodes_cordoned += static_cast<int>(localization.faulty.size());
  }
  if (diagnosis.reason.empty()) {
    // Agent could not classify: a human gets paged, but armed with the
    // compressed log (still far cheaper than the manual baseline).
    ++report.manual_interventions;
    stall += injector_.sample_ttr(spec, rng) * 0.5;
  }
  // Scheduler resubmit + NCCL bring-up of the full training world (~90 s at
  // the 2048-GPU scale).
  comm::World job_world;
  job_world.gpus = config_.gpus;
  stall += comm_.bringup_seconds(job_world);
  *detail = spec.reason + " -> " +
            (diagnosis.reason.empty() ? std::string("undiagnosed")
                                      : diagnosis.reason + " [" + diagnosis.source + "]");
  return stall + reload;
}

RunnerReport FaultTolerantRunner::run() {
  ACME_OBS_SPAN_ARG("recovery", "run", "gpus", std::to_string(config_.gpus));
  RunnerReport report;
  common::Rng rng = injector_.make_rng("runner");

  ckpt::CheckpointLedger ledger;
  double t = 0;
  std::uint64_t step = 0;
  double since_ckpt = 0;
  report.progress.emplace_back(0.0, 0);

  double next_spike = rng.exponential(1.0 / config_.loss_spike_mean_interval);
  double next_pause = rng.exponential(1.0 / config_.user_pause_mean_interval);
  auto next_failure_event = injector_.sample_pretrain_failure(rng);
  double next_failure = next_failure_event.ttf_seconds *
                        config_.mean_failure_interval_scale;

  const double ckpt_block = checkpoint_blocking();
  const double persist_lag = checkpoint_persist_lag();

  while (t < config_.horizon_seconds) {
    // Next interruption of any kind (relative to accumulated training time
    // for failures; absolute for spikes and pauses is approximated the same
    // way for simplicity).
    const double until_interrupt =
        std::min({next_failure, next_spike, next_pause,
                  config_.horizon_seconds - t});

    // Train until the interruption, checkpointing on the interval.
    double remaining = until_interrupt;
    while (remaining > 0 && t < config_.horizon_seconds) {
      const double chunk = std::min(remaining, config_.ckpt_interval_seconds - since_ckpt);
      const std::uint64_t steps_in_chunk =
          static_cast<std::uint64_t>(chunk / config_.step_seconds);
      step += steps_in_chunk;
      t += chunk;
      report.time_training += chunk;
      since_ckpt += chunk;
      remaining -= chunk;
      if (since_ckpt >= config_.ckpt_interval_seconds - 1e-9) {
        t += ckpt_block;
        report.time_ckpt_stall += ckpt_block;
        ledger.record(step, t, t + persist_lag);
        since_ckpt = 0;
      }
    }
    report.progress.emplace_back(t, step);
    if (t >= config_.horizon_seconds) break;

    next_failure -= until_interrupt;
    next_spike -= until_interrupt;
    next_pause -= until_interrupt;

    RunnerEvent event;
    event.time = t;
    event.step = step;

    if (next_failure <= 1e-9) {
      const auto& spec = *next_failure_event.spec;
      ++report.failures;
      if (spec.category == failure::FailureCategory::kInfrastructure)
        ++report.infra_failures;
      if (config_.proactive_validation && config_.auto_recovery &&
          spec.needs_node_detection &&
          rng.bernoulli(config_.proactive_catch_prob)) {
        // Scheduled validation caught the degrading hardware before it took
        // the job down: graceful drain, cordon, resume — no rollback.
        ++report.proactive_catches;
        ++report.nodes_cordoned;
        event.kind = "proactive-maintenance";
        event.detail = spec.reason + " (caught by validation)";
        event.stall_seconds = config_.validation_stall_seconds +
                              timing_.async_persist_seconds(
                                  config_.model.params(), config_.gpus);
        t += event.stall_seconds;
        report.time_recovery += event.stall_seconds;
        since_ckpt = 0;
        // Training state is saved at the drain, so no steps are lost, but
        // the checkpoint cadence restarts from here.
        ledger.invalidate_after(step);
        if (ledger.records().empty() || ledger.records().back().step < step) {
          const double lag = checkpoint_persist_lag();
          ledger.record(step, t, t + lag);
        }
        report.events.push_back(event);
        report.progress.emplace_back(t, step);
        next_failure_event = injector_.sample_pretrain_failure(rng);
        next_failure =
            next_failure_event.ttf_seconds * config_.mean_failure_interval_scale;
        continue;
      }
      event.kind = "failure";
      const double stall = recovery_stall(spec, t, report, &event.detail);
      // Roll back to the latest durable checkpoint.
      const auto durable = ledger.latest_durable(t);
      const std::uint64_t resume = durable ? durable->step : 0;
      ledger.invalidate_after(resume);
      event.steps_lost = step - resume;
      report.steps_lost_to_rollback += event.steps_lost;
      step = resume;
      t += stall;
      report.time_recovery += stall;
      event.stall_seconds = stall;
      since_ckpt = 0;
      next_failure_event = injector_.sample_pretrain_failure(rng);
      next_failure =
          next_failure_event.ttf_seconds * config_.mean_failure_interval_scale;
    } else if (next_spike <= 1e-9) {
      event.kind = "loss-spike";
      // Roll back PAST the spike onset (~30 min of steps) and skip batches.
      const std::uint64_t onset_margin =
          static_cast<std::uint64_t>(30 * kMinute / config_.step_seconds);
      const std::uint64_t onset = step > onset_margin ? step - onset_margin : 0;
      const auto durable = ledger.durable_before_step(onset, t);
      const std::uint64_t resume = durable ? durable->step : 0;
      ledger.invalidate_after(resume);
      event.steps_lost = step - resume;
      report.steps_lost_to_rollback += event.steps_lost;
      step = resume;
      const double stall =
          (config_.auto_recovery ? 2 * kMinute : 40 * kMinute) +
          timing_.async_persist_seconds(config_.model.params(), config_.gpus);
      if (!config_.auto_recovery) ++report.manual_interventions;
      t += stall;
      report.time_recovery += stall;
      event.stall_seconds = stall;
      event.detail = "rollback past spike, skipping batches";
      since_ckpt = 0;
      next_spike = rng.exponential(1.0 / config_.loss_spike_mean_interval);
    } else {
      event.kind = "pause";
      if (config_.graceful_cancel) {
        // Save before terminating: no steps lost.
        ledger.record(step + 1, t, t + persist_lag);
        step += 1;
      } else {
        const auto durable = ledger.latest_durable(t);
        const std::uint64_t resume = durable ? durable->step : 0;
        event.steps_lost = step - resume;
        report.steps_lost_to_rollback += event.steps_lost;
        step = resume;
      }
      const double stall = rng.uniform(1 * kHour, 4 * kHour);  // user adjusts config
      ++report.manual_interventions;  // pauses are user-driven by definition
      t += stall;
      report.time_recovery += stall;
      event.stall_seconds = stall;
      event.detail = config_.graceful_cancel ? "graceful cancel + config change"
                                             : "hard cancel + config change";
      since_ckpt = 0;
      next_pause = rng.exponential(1.0 / config_.user_pause_mean_interval);
    }
    report.events.push_back(event);
    report.progress.emplace_back(t, step);
  }

  report.final_step = step;
  return report;
}

}  // namespace acme::recovery
