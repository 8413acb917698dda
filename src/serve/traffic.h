// Open-loop request arrival from a modeled user population (DESIGN.md §11).
//
// The arrival intensity is a diurnal sinusoid (a day-long period, users sleep)
// modulated by a two-state Markov-modulated Poisson process: a background
// state at the base rate and a burst state at `burst_multiplier` times it,
// with exponential dwell times. The base rate is normalized so the long-run
// mean equals `mean_rps` regardless of burstiness. Arrivals are sampled by
// thinning against the peak envelope, which keeps the process exact for any
// rate shape while costing O(1) amortized draws per request; a squeeze on
// the current state's rate bounds decides most candidates without sin().
//
// Determinism: arrivals and request shapes draw from one forked Rng stream
// ("serve-arrivals") and the MMPP state transitions from another
// ("serve-mmpp"), so the rate trajectory is independent of how many thinning
// candidates were rejected — the same (seed, profile) always yields the same
// request sequence.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/units.h"

namespace acme::serve {

struct TrafficProfile {
  double mean_rps = 100.0;  // long-run offered requests/second; 0 = no traffic
  // Sinusoid: rate swings ±amplitude around the mean over one period.
  double diurnal_amplitude = 0.5;  // in [0, 1]
  double diurnal_period_seconds = common::kDay;
  // MMPP burst state: rate multiplier, long-run fraction of time bursting,
  // and mean dwell per burst. burst_multiplier == 1 degenerates to an
  // inhomogeneous Poisson process.
  double burst_multiplier = 3.0;  // >= 1
  double burst_fraction = 0.1;    // in [0, 1)
  double burst_dwell_seconds = 60.0;
  // Request shape: exponentially distributed token counts around the means.
  // Outputs are clamped to >= 2 so every request takes at least one decode
  // step (the first output token comes out of prefill).
  double prompt_tokens_mean = 512.0;
  double output_tokens_mean = 256.0;
  int max_tokens = 8192;

  // Thinning envelope: peak diurnal rate in the burst state.
  double peak_rps() const;
  // Base-rate normalization so the burst-weighted long-run mean is mean_rps.
  double rate_norm() const;
};

struct RequestSample {
  std::int32_t prompt_tokens = 0;
  std::int32_t output_tokens = 0;
};

class ArrivalProcess {
 public:
  ArrivalProcess(TrafficProfile profile, std::uint64_t seed);

  const TrafficProfile& profile() const { return profile_; }

  // Deterministic intensity at time t under the current MMPP trajectory;
  // advances the hidden burst state up to t (t must be non-decreasing across
  // calls, which the thinning loop guarantees).
  double rate_at(double t);

  // Seconds until the next arrival after `now`. Returns +infinity when the
  // profile offers no traffic.
  double next_interarrival(double now);

  RequestSample sample_request();

  // Snapshot support (acme::snap): both rng streams plus the hidden MMPP
  // trajectory. norm_, peak_ and the rate bounds are pure functions of the
  // profile and are recomputed by the constructor, so a reconstructed
  // process with this state restored continues the arrival sequence
  // bit-identically.
  struct State {
    common::RngState rng;
    common::RngState state_rng;
    bool burst = false;
    double state_until = 0;
  };
  State state() const {
    return State{rng_.state(), state_rng_.state(), burst_, state_until_};
  }
  void set_state(const State& s) {
    rng_.set_state(s.rng);
    state_rng_.set_state(s.state_rng);
    burst_ = s.burst;
    state_until_ = s.state_until;
  }

 private:
  void advance_state(double t);

  TrafficProfile profile_;
  common::Rng rng_;        // thinning + request shapes
  common::Rng state_rng_;  // MMPP dwell times
  bool burst_ = false;
  double state_until_ = 0;
  double norm_ = 1.0;
  double peak_ = 0;
  // Bounds of rate_at over a diurnal period, indexed by the burst state.
  double lo_[2] = {0, 0};
  double hi_[2] = {0, 0};
};

}  // namespace acme::serve
