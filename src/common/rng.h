// Deterministic random number generation for AcmeSim.
//
// Every stochastic component in the simulator draws from an acme::common::Rng.
// Streams are derived from (seed, name) pairs so that adding a new consumer
// never perturbs the draws of existing ones — a requirement for reproducible
// experiments (DESIGN.md §5 "Determinism").
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace acme::common {

// Full generator state, exposed as a POD so snapshot code (acme::snap) can
// persist and reinstate a stream mid-sequence without this header depending
// on the snapshot format. `words` is the xoshiro256** state; `seed_material`
// is the original seed the fork() labels hash against.
struct RngState {
  std::uint64_t words[4] = {0, 0, 0, 0};
  std::uint64_t seed_material = 0;
};

// xoshiro256** by Blackman & Vigna. Small, fast, and high quality; we avoid
// std::mt19937_64 because its state is large and its seeding is awkward for
// derived streams.
class Rng {
 public:
  using result_type = std::uint64_t;

  // Seeds the generator via splitmix64 so that nearby seeds give independent
  // streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Derives an independent child stream from this generator's seed material
  // and a label. The parent's state is not advanced.
  [[nodiscard]] Rng fork(std::string_view label) const;

  // Snapshot support: the exact mid-stream state, restorable bit-for-bit.
  RngState state() const {
    return RngState{{state_[0], state_[1], state_[2], state_[3]},
                    seed_material_};
  }
  void set_state(const RngState& s) {
    for (int i = 0; i < 4; ++i) state_[i] = s.words[i];
    seed_material_ = s.seed_material;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Standard normal via Box-Muller (no cached spare: keeps state minimal).
  // Trace synthesis and the failure/schedule models draw through this one;
  // their streams are digest-pinned, so it must never change.
  double normal();
  double normal(double mean, double stddev);
  // Standard normal via a 128-layer ziggurat (Doornik's ZIGNOR layout) with
  // an exact Marsaglia tail: ~5x cheaper than normal(), but a different
  // stream. Used for monitor noise (cluster power/thermal models, fleet
  // telemetry), where hundreds of thousands of draws per world are made.
  double zig_normal();
  double zig_normal(double mean, double stddev);
  // Lognormal with the given underlying normal parameters.
  double lognormal(double mu, double sigma);
  // Exponential with the given rate (lambda > 0).
  double exponential(double rate);
  // Bernoulli trial.
  bool bernoulli(double p);
  // Samples an index according to non-negative weights (need not sum to 1).
  std::size_t categorical(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  std::uint64_t state_[4];
  std::uint64_t seed_material_;
};

}  // namespace acme::common
