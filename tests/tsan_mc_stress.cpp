// ThreadSanitizer stress runner for acme::mc — a plain main (no gtest) so
// the TSan CI job exercises the replication plan on task::parallel_for and
// concurrent Rng::fork without any uninstrumented test-framework code in the
// picture. Exits non-zero on any determinism violation; TSan itself fails
// the job on a data race.
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "mc/aggregate.h"
#include "mc/replication.h"

using namespace acme;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void stress_replication() {
  const auto body = [](common::Rng& rng, std::size_t replica) {
    double acc = static_cast<double>(replica);
    for (int i = 0; i < 5000; ++i) acc += rng.uniform();
    return acc;
  };
  mc::ReplicationOptions serial;
  serial.replicas = 32;
  serial.threads = 1;
  serial.seed = 99;
  mc::ReplicationOptions parallel = serial;
  parallel.threads = 4;
  const auto a = mc::run_replicas<double>(serial, body);
  const auto b = mc::run_replicas<double>(parallel, body);
  for (std::size_t i = 0; i < a.results.size(); ++i)
    check(a.results[i] == b.results[i], "replica bit-identical across thread counts");

  mc::MetricAggregator ma, mb;
  mc::fold_metric(a, [](double v) { return v; }, ma);
  mc::fold_metric(b, [](double v) { return v; }, mb);
  check(ma.mean() == mb.mean() && ma.p99() == mb.p99(),
        "aggregates identical across thread counts");
}

void stress_rng_fork() {
  // Forking from distinct parent copies on many threads must be race-free
  // and must reproduce the serial fork exactly.
  const common::Rng parent(4242);
  std::vector<std::uint64_t> serial(8), threaded(8);
  for (std::size_t i = 0; i < serial.size(); ++i)
    serial[i] = parent.fork("t" + std::to_string(i)).next();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < threaded.size(); ++i) {
    threads.emplace_back([&threaded, i, copy = parent] {
      threaded[i] = copy.fork("t" + std::to_string(i)).next();
    });
  }
  for (auto& t : threads) t.join();
  check(serial == threaded, "threaded forks match serial forks");
}

}  // namespace

int main() {
  stress_replication();
  stress_rng_fork();
  if (failures == 0) std::printf("tsan_mc_stress: OK\n");
  return failures == 0 ? 0 : 1;
}
