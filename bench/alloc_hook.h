// Allocation-counting hook shared by the benches that gate on a
// zero-allocation drain (bench_micro_engines, bench_serve_spine,
// bench_hyperscale, bench_snapshot).
//
// alloc_hook.cpp replaces the global operator new/delete for every binary
// that links it: each operator new bumps one process-wide atomic counter, so
// a bench brackets its measured region with two heap_allocs() reads and
// fails when the difference is not zero.
#pragma once

#include <cstdint>

namespace acme::bench {

// Global operator new calls made so far in this process, on any thread.
std::uint64_t heap_allocs();

}  // namespace acme::bench
