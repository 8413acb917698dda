// Spans and clocks for the benchmark's traced run.
//
// Every span is recorded from outside the program: the benchmark wraps one
// call into a layer's public function and logs its wall-clock interval. The
// spans stay in memory and are written once, at the end, as Chrome
// trace-event JSON, which Perfetto and chrome://tracing load directly.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the monotonic clock.
inline double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Which Perfetto track a span lands on: the replica's own timeline, or a
// standalone probe call made beside it (not part of the replica's wall time).
enum class Track { kReplica = 1, kProbe = 2 };

struct Span {
  const char* name;
  std::size_t replica;  // shared id of every span of one replica
  Track track;
  double start_s;  // relative to the log's origin
  double dur_s;
};

class SpanLog {
 public:
  SpanLog() : origin_s_(wall_seconds()) {}

  // Runs f(), records its span, and returns its wall seconds.
  template <typename F>
  double time(const char* name, std::size_t replica, Track track, F&& f) {
    const double t0 = wall_seconds();
    f();
    const double dt = wall_seconds() - t0;
    add(name, replica, track, t0, dt);
    return dt;
  }

  // Records a span measured by the caller; `start_s` is on wall_seconds().
  void add(const char* name, std::size_t replica, Track track, double start_s,
           double dur_s) {
    spans_.push_back({name, replica, track, start_s - origin_s_, dur_s});
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Writes {"traceEvents": [...]} with one complete ("X") event per span;
  // pid is the track, tid and args.replica the replica index. Returns false
  // when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  double origin_s_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
