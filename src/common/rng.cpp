#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/digest.h"

namespace acme::common {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Doornik (2005), "An Improved Ziggurat Method to Generate Normal Random
// Samples": 128 equal-area layers under the half-normal density. Layer 0 is
// the base strip together with the tail beyond R.
constexpr int kZigLayers = 128;
constexpr double kZigR = 3.442619855899;
constexpr double kZigV = 9.91256303526217e-3;

struct ZigTables {
  double x[kZigLayers + 1];  // layer right edges; x[0] = V / f(R) > R
  double ratio[kZigLayers];  // x[i + 1] / x[i]: the always-accept share
};

const ZigTables& zig_tables() {
  static const ZigTables tables = [] {
    ZigTables t{};
    double f = std::exp(-0.5 * kZigR * kZigR);
    t.x[0] = kZigV / f;
    t.x[1] = kZigR;
    t.x[kZigLayers] = 0.0;
    for (int i = 2; i < kZigLayers; ++i) {
      t.x[i] = std::sqrt(-2.0 * std::log(kZigV / t.x[i - 1] + f));
      f = std::exp(-0.5 * t.x[i] * t.x[i]);
    }
    for (int i = 0; i < kZigLayers; ++i) t.ratio[i] = t.x[i + 1] / t.x[i];
    return t;
  }();
  return tables;
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_material_(seed) {
  std::uint64_t x = seed;
  for (auto& word : state_) word = splitmix64(x);
}

Rng Rng::fork(std::string_view label) const {
  // FNV-1a over the label derives the child stream seed.
  return Rng(seed_material_ ^ fnv1a(label) ^ 0xa5a5a5a5a5a5a5a5ULL);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo >= hi) return lo;
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Rejection-free for our purposes: modulo bias is < 2^-40 for spans we use.
  return lo + static_cast<std::int64_t>(next() % span);
}

double Rng::normal() {
  // Box-Muller; guard against log(0).
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::zig_normal() {
  const ZigTables& t = zig_tables();
  for (;;) {
    // One draw feeds both the layer (low 7 bits) and a signed uniform in
    // [-1, 1) (high 53 bits); the two bit ranges do not overlap.
    const std::uint64_t bits = next();
    const int i = static_cast<int>(bits & (kZigLayers - 1));
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
    if (std::fabs(u) < t.ratio[i]) return u * t.x[i];
    if (i == 0) {
      // Marsaglia's exact tail beyond R; 1 - uniform() keeps log's argument
      // in (0, 1].
      double x = 0, y = 0;
      do {
        x = std::log(1.0 - uniform()) / kZigR;
        y = std::log(1.0 - uniform());
      } while (-2.0 * y < x * x);
      return u < 0 ? x - kZigR : kZigR - x;
    }
    // Wedge between layers i and i + 1: accept under the density.
    const double x = u * t.x[i];
    const double f0 = std::exp(-0.5 * (t.x[i] * t.x[i] - x * x));
    const double f1 = std::exp(-0.5 * (t.x[i + 1] * t.x[i + 1] - x * x));
    if (f1 + uniform() * (f0 - f1) < 1.0) return x;
  }
}

double Rng::zig_normal(double mean, double stddev) {
  return mean + stddev * zig_normal();
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double rate) {
  double u = uniform();
  if (u < 1e-300) u = 1e-300;
  return -std::log(u) / rate;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::categorical(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  if (total <= 0) return 0;
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace acme::common
