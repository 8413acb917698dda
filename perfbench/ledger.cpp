#include "ledger.h"

#include <cstdio>

namespace perfbench {

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, "
               "\"args\": {\"name\": \"replica\"}},\n"
               "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 2, "
               "\"args\": {\"name\": \"standalone probes\"}}");
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"perfbench\", "
                 "\"pid\": %d, \"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"replica\": %zu}}",
                 s.name, static_cast<int>(s.track), s.replica, s.start_s * 1e6,
                 s.dur_s * 1e6, s.replica);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
