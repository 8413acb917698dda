// Versioned binary snapshot format for world state (DESIGN.md §12).
//
// A snapshot is a header (8-byte magic + u32 format version) followed by
// named, length-prefixed sections, each carrying a CRC32 over its payload.
// Inside a section every primitive is tagged with a 1-byte type code, so a
// reader that drifts out of sync with the writer (schema skew, truncation,
// corruption) fails loudly at the first mismatched tag instead of silently
// reinterpreting bytes. All failures go through ACME_CHECK_MSG and throw
// common::CheckError — which is what lets the fuzzer treat a bad snapshot
// as a catchable finding rather than a process abort.
//
// Scope and versioning policy: snapshots are same-machine, same-build
// artifacts (native endianness and IEEE-754 layout; both are asserted by
// the magic check only in the sense that a cross-architecture restore will
// CRC-fail or tag-fail, not silently succeed). Any change to a section's
// layout bumps kFormatVersion; there are no in-place upgraders — a version
// mismatch is a hard error telling the user to re-create the snapshot.
// That is the right trade for a simulator: snapshots are cheap to regrow
// from the spec, so compatibility machinery would be pure liability.
//
// The library sits between common and sim in the target graph: it links
// only acme_common, and the stateful layers (sim, cluster, sched, serve,
// world) link acme_snap and implement save(SnapshotWriter&) /
// restore(SnapshotReader&) member functions. Leaf classes that common
// itself owns (Rng, LatencyHistogram) expose state accessors instead of
// including this header, which keeps the dependency graph acyclic.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace acme::snap {

inline constexpr char kMagic[8] = {'A', 'C', 'M', 'E', 'S', 'N', 'A', 'P'};
// Version 6: the serve fleet writes each replica's batch as finish-sorted
// slot and finish-step arrays and its latencies as three log-linear
// histograms (count, sum, nonzero bucket span) instead of six P² sketches
// and two moment accumulators.
// Version 5: the embedded scenario JSON has no serve-shape keys (version 4
// carried each replica's GPU count, model, traffic shape and SLO targets).
// Version 4 made a running job's placement its first node and gave each
// cluster node its gang link.
inline constexpr std::uint32_t kFormatVersion = 6;

// CRC-32C (Castagnoli polynomial, reflected). Uses the SSE4.2 CRC32
// instruction when the CPU has it (snapshots CRC megabytes per section);
// falls back to a table-driven slice-by-8 loop that computes the identical
// value, so snapshots do not encode which path wrote them.
std::uint32_t crc32(const void* data, std::size_t size);

// 1-byte type tags preceding every value inside a section payload.
enum class Tag : std::uint8_t {
  kBool = 1,
  kU32 = 2,
  kU64 = 3,
  kI64 = 4,
  kF64 = 5,
  kString = 6,
  kPodArray = 7,
};

class SnapshotWriter {
 public:
  // Writes into `buffer` after clearing it, keeping its capacity: a caller
  // that saves repeatedly (and takes the bytes back from finish()) reuses
  // one allocation instead of growing a fresh multi-MB buffer per save.
  explicit SnapshotWriter(std::string buffer = {});

  // Sections must be strictly sequential (no nesting): begin, write values,
  // end. Section names are free-form but matched exactly by the reader.
  // Payloads are written straight into the output buffer; end_section
  // backpatches the length and CRC into the header it reserved, so a
  // multi-megabyte section costs one pass, not a build-then-copy.
  void begin_section(std::string_view name);
  void end_section();

  // Capacity hint: pre-grows the output buffer by `additional` bytes so a
  // caller about to stream large pod arrays avoids realloc-and-copy cycles.
  void reserve(std::size_t additional);

  void write_bool(bool v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f64(double v);
  void write_string(std::string_view s);

  // Bulk array of trivially copyable elements: one tag, element size (layout
  // check on read), count, then the raw bytes in a single append.
  template <typename T>
  void write_pod_span(const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "pod spans require trivially copyable elements");
    put_tag(Tag::kPodArray);
    put_raw_u64(sizeof(T));
    put_raw_u64(count);
    put_raw(data, count * sizeof(T));
  }
  template <typename T>
  void write_pod_vec(const std::vector<T>& v) {
    write_pod_span(v.data(), v.size());
  }

  // Seals the snapshot and returns the full byte string (header + sections),
  // in the adopted buffer if one was given. The writer is unusable
  // afterwards.
  std::string finish();
  // finish() + write the bytes to `path`; throws CheckError on I/O failure.
  void write_file(const std::string& path);

 private:
  void put_tag(Tag tag);
  void put_raw(const void* p, std::size_t n);
  void put_raw_u64(std::uint64_t v) { put_raw(&v, sizeof(v)); }

  std::string out_;             // header + sections (open section included)
  std::size_t payload_start_ = 0;  // offset of the open section's payload
  bool in_section_ = false;
  bool finished_ = false;
};

class SnapshotReader {
 public:
  // Validates magic + version up front; throws CheckError on mismatch.
  explicit SnapshotReader(std::string bytes);
  static SnapshotReader from_file(const std::string& path);

  std::uint32_t version() const { return version_; }

  // Opens the next section; its name must match `name` exactly and its
  // payload must pass the CRC check. leave_section() then requires the
  // payload to be fully consumed — partial reads are schema skew, not OK.
  void enter_section(std::string_view name);
  void leave_section();

  bool read_bool();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  double read_f64();
  std::string read_string();

  template <typename T>
  void read_pod_vec(std::vector<T>& out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "pod spans require trivially copyable elements");
    expect_tag(Tag::kPodArray);
    const std::uint64_t elem = take_raw_u64();
    ACME_CHECK_MSG(elem == sizeof(T),
                   "snapshot pod-array element size mismatch (layout skew)");
    const std::uint64_t count = take_raw_u64();
    out.resize(static_cast<std::size_t>(count));
    take_raw(out.data(), out.size() * sizeof(T));
  }

  // All sections consumed (cursor at end of the byte string).
  bool at_end() const { return !in_section_ && pos_ == bytes_.size(); }

 private:
  void expect_tag(Tag tag);
  void take_raw(void* out, std::size_t n);
  std::uint64_t take_raw_u64() {
    std::uint64_t v = 0;
    take_raw(&v, sizeof(v));
    return v;
  }

  std::string bytes_;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;
  std::uint32_t version_ = 0;
  bool in_section_ = false;
};

// The one codec for a random stream's POD state: four xoshiro words, then
// the seed material, each a tagged u64.
inline void write_rng_state(SnapshotWriter& w, const common::RngState& s) {
  for (int i = 0; i < 4; ++i) w.write_u64(s.words[i]);
  w.write_u64(s.seed_material);
}

inline common::RngState read_rng_state(SnapshotReader& r) {
  common::RngState s;
  for (int i = 0; i < 4; ++i) s.words[i] = r.read_u64();
  s.seed_material = r.read_u64();
  return s;
}

}  // namespace acme::snap
