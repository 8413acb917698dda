// parallel_for — the one execution substrate in AcmeSim. It runs independent
// Monte Carlo replicas (mc::ReplicationPlan, and through it
// world::run_world_mc) and the concurrent world copies of the fuzzer and the
// TSan stress runner: at most a few dozen coarse, independent tasks, never
// nested.
//
// Shape: min(threads, n) std::threads each claim the next index from one
// shared atomic counter until all n are taken, then the caller joins them.
// Claiming costs one fetch_add, so there is no queue and no chunking.
//
// Determinism contract: the claim order races; callers must derive outputs
// from per-index results combined in index order after parallel_for
// returns, never from completion order. mc::ReplicationPlan writes replica i
// into slot i and folds the slots in index order; test_determinism pins the
// resulting digests at every thread count.
//
// Exceptions: once any index throws, threads stop claiming new indices.
// Indices are claimed in increasing order, so every index below a failing
// one has already been claimed and runs to completion; parallel_for rethrows
// the exception of the lowest failing index — exactly the one the serial
// loop would have thrown.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace acme::task {

// threads == 0 picks std::thread::hardware_concurrency() (min 1).
inline std::size_t resolve_threads(std::size_t threads) {
  if (threads != 0) return threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// Runs fn(i) for every i in [0, n) on min(resolve_threads(threads), n)
// threads and returns once all have finished; rethrows the lowest failing
// index's exception (see above). The calling thread only waits.
template <typename F>
void parallel_for(std::size_t threads, std::size_t n, F&& fn) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::size_t error_index = n;  // guarded by error_mu
  std::exception_ptr error;     // guarded by error_mu
  const auto drain = [&] {
    while (!failed) {
      const std::size_t i = next++;
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> g(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        failed = true;
      }
    }
  };
  const std::size_t count = std::min(resolve_threads(threads), n);
  std::vector<std::thread> workers;
  workers.reserve(count);
  try {
    while (workers.size() < count) workers.emplace_back(drain);
  } catch (...) {  // thread creation failed: stop and join what started
    failed = true;
    for (std::thread& t : workers) t.join();
    throw;
  }
  for (std::thread& t : workers) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace acme::task
