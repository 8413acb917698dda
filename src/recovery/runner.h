// Fault-tolerant pretraining runner: the integration of §6.1's three modules
// (asynchronous checkpointing, failure diagnosis, fast detection & recovery)
// driving a long pretraining campaign over the simulated cluster. Running it
// with manual on-call recovery reproduces Fig 14; flipping auto_recovery on
// quantifies the paper's "reduces manual intervention by ~90%".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/ledger.h"
#include "comm/collective.h"
#include "ckpt/timing.h"
#include "diagnosis/failure_agent.h"
#include "failure/injector.h"
#include "failure/log_synth.h"
#include "parallel/model_math.h"

namespace acme::recovery {

struct RunnerConfig {
  parallel::TransformerConfig model;
  int gpus = 2048;
  double step_seconds = 13.0;
  double ckpt_interval_seconds = 30 * 60;
  bool async_ckpt = true;
  // true: §6.1 pipeline (diagnose -> localize -> cordon -> auto-restart).
  // false: manual on-call restart with Table 3 TTRs, amplified at night.
  bool auto_recovery = true;
  // Gracefully save state when the user cancels/pauses (the 123B campaign's
  // improvement over the 104B one in Fig 14).
  bool graceful_cancel = true;
  // Proactive infrastructure validation (Anubis-style, cited by the paper's
  // §5.2 discussion of Microsoft's reliability work): periodic light-weight
  // node checks catch a fraction of brewing hardware faults at a scheduled
  // boundary — a short drain instead of a mid-run crash and rollback.
  bool proactive_validation = false;
  double proactive_catch_prob = 0.45;
  double validation_stall_seconds = 120.0;
  double horizon_seconds = 14 * 24 * 3600.0;
  double mean_failure_interval_scale = 1.0;  // stretch TTFs for ablations
  double loss_spike_mean_interval = 5 * 24 * 3600.0;
  double user_pause_mean_interval = 2 * 24 * 3600.0;
  std::uint64_t seed = 2024;
};

struct RunnerEvent {
  double time = 0;
  std::uint64_t step = 0;
  std::string kind;    // "failure", "loss-spike", "pause", "restart"
  std::string detail;  // failure reason / diagnosis outcome
  double stall_seconds = 0;
  std::uint64_t steps_lost = 0;
};

struct RunnerReport {
  std::vector<std::pair<double, std::uint64_t>> progress;  // (time, iteration)
  std::vector<RunnerEvent> events;
  std::uint64_t final_step = 0;
  double time_training = 0;
  double time_ckpt_stall = 0;
  double time_recovery = 0;
  std::uint64_t steps_lost_to_rollback = 0;
  int failures = 0;
  int infra_failures = 0;
  int manual_interventions = 0;  // times a human had to act
  int nodes_cordoned = 0;
  int proactive_catches = 0;     // faults defused by scheduled validation
  int diagnosis_correct = 0;     // agent verdict matched injected root cause
  double goodput() const {       // useful training time / wall clock
    const double wall = time_training + time_ckpt_stall + time_recovery;
    return wall > 0 ? time_training / wall : 0;
  }
};

class FaultTolerantRunner {
 public:
  explicit FaultTolerantRunner(RunnerConfig config);

  RunnerReport run();

 private:
  double checkpoint_blocking() const;
  double checkpoint_persist_lag() const;
  double recovery_stall(const failure::FailureSpec& spec, double now,
                        RunnerReport& report, std::string* detail);
  static bool is_night(double t);

  RunnerConfig config_;
  // Kalos fabric: prices fault-localization rounds and the post-restart NCCL
  // bring-up of the job's world.
  comm::CollectiveModel comm_{comm::kalos_fabric()};
  ckpt::CheckpointTimingModel timing_;
  failure::FailureInjector injector_;
  failure::LogSynthesizer log_synth_;
  diagnosis::FailureAgent agent_;
};

}  // namespace acme::recovery
