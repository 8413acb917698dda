// Exact heap-allocation counting for the benchmark's traced drains.
//
// alloc_hook.cpp replaces the global operator new for the whole benchmark
// binary. A call bumps a per-thread counter only while an AllocCount on that
// thread is live, so the untimed runs pay one thread-local flag test per
// allocation and count nothing.
#pragma once

#include <cstdint>

namespace perfbench {

// Counts operator new calls made on the constructing thread until count() or
// destruction. Scopes do not nest.
class AllocCount {
 public:
  AllocCount();
  ~AllocCount();
  AllocCount(const AllocCount&) = delete;
  AllocCount& operator=(const AllocCount&) = delete;

  // Allocations seen since construction; stops counting.
  std::uint64_t count();
};

}  // namespace perfbench
