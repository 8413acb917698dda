#include "snap/format.h"

#include <array>
#include <cstring>
#include <fstream>

namespace acme::snap {

namespace {

// Slice-by-8 tables for the software fallback: table[0] is the classic
// byte-at-a-time CRC-32C table, table[j] advances a byte j positions further
// through the polynomial, so eight bytes fold in parallel per iteration.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i)
    for (int j = 1; j < 8; ++j)
      tables[j][i] = tables[0][tables[j - 1][i] & 0xFF] ^ (tables[j - 1][i] >> 8);
  return tables;
}

#if defined(__x86_64__) || defined(__i386__)
// The SSE4.2 CRC32 instruction implements exactly this polynomial; one
// 8-byte fold per cycle-ish, an order of magnitude past any table scheme.
// Guarded by a runtime cpuid probe in crc32() below.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(const void* data,
                                                          std::size_t size) {
  std::uint64_t c = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  while (size >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    c = __builtin_ia32_crc32di(c, v);
    p += 8;
    size -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (std::size_t i = 0; i < size; ++i)
    c32 = __builtin_ia32_crc32qi(c32, p[i]);
  return c32 ^ 0xFFFFFFFFu;
}
#endif

const char* tag_name(Tag tag) {
  switch (tag) {
    case Tag::kBool: return "bool";
    case Tag::kU32: return "u32";
    case Tag::kU64: return "u64";
    case Tag::kI64: return "i64";
    case Tag::kF64: return "f64";
    case Tag::kString: return "string";
    case Tag::kPodArray: return "pod-array";
  }
  return "?";
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
#if defined(__x86_64__) || defined(__i386__)
  static const bool have_sse42 = __builtin_cpu_supports("sse4.2");
  if (have_sse42) return crc32c_hw(data, size);
#endif
  static const std::array<std::array<std::uint32_t, 256>, 8> tables =
      make_crc_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  while (size >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = tables[7][lo & 0xFF] ^ tables[6][(lo >> 8) & 0xFF] ^
        tables[5][(lo >> 16) & 0xFF] ^ tables[4][lo >> 24] ^
        tables[3][hi & 0xFF] ^ tables[2][(hi >> 8) & 0xFF] ^
        tables[1][(hi >> 16) & 0xFF] ^ tables[0][hi >> 24];
    p += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i)
    c = tables[0][(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

SnapshotWriter::SnapshotWriter(std::string buffer) : out_(std::move(buffer)) {
  out_.clear();
  out_.append(kMagic, sizeof(kMagic));
  const std::uint32_t version = kFormatVersion;
  out_.append(reinterpret_cast<const char*>(&version), sizeof(version));
}

void SnapshotWriter::begin_section(std::string_view name) {
  ACME_CHECK_MSG(!finished_, "SnapshotWriter already finished");
  ACME_CHECK_MSG(!in_section_, "nested snapshot sections are not supported");
  ACME_CHECK_MSG(!name.empty(), "snapshot section needs a name");
  const std::uint32_t name_len = static_cast<std::uint32_t>(name.size());
  out_.append(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  out_.append(name.data(), name.size());
  // Header placeholders; end_section backpatches both once the payload size
  // and CRC are known, so the payload streams into out_ exactly once.
  const std::uint64_t payload_len = 0;
  const std::uint32_t crc = 0;
  out_.append(reinterpret_cast<const char*>(&payload_len), sizeof(payload_len));
  out_.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  payload_start_ = out_.size();
  in_section_ = true;
}

void SnapshotWriter::end_section() {
  ACME_CHECK_MSG(in_section_, "end_section without begin_section");
  const std::uint64_t payload_len = out_.size() - payload_start_;
  const std::uint32_t crc = crc32(out_.data() + payload_start_,
                                  static_cast<std::size_t>(payload_len));
  std::memcpy(out_.data() + payload_start_ - sizeof(payload_len) - sizeof(crc),
              &payload_len, sizeof(payload_len));
  std::memcpy(out_.data() + payload_start_ - sizeof(crc), &crc, sizeof(crc));
  in_section_ = false;
}

void SnapshotWriter::reserve(std::size_t additional) {
  out_.reserve(out_.size() + additional);
}

void SnapshotWriter::put_tag(Tag tag) {
  ACME_CHECK_MSG(in_section_, "snapshot values must be written inside a section");
  out_.push_back(static_cast<char>(tag));
}

void SnapshotWriter::put_raw(const void* p, std::size_t n) {
  out_.append(static_cast<const char*>(p), n);
}

void SnapshotWriter::write_bool(bool v) {
  put_tag(Tag::kBool);
  const std::uint8_t b = v ? 1 : 0;
  put_raw(&b, sizeof(b));
}

void SnapshotWriter::write_u32(std::uint32_t v) {
  put_tag(Tag::kU32);
  put_raw(&v, sizeof(v));
}

void SnapshotWriter::write_u64(std::uint64_t v) {
  put_tag(Tag::kU64);
  put_raw(&v, sizeof(v));
}

void SnapshotWriter::write_i64(std::int64_t v) {
  put_tag(Tag::kI64);
  put_raw(&v, sizeof(v));
}

void SnapshotWriter::write_f64(double v) {
  put_tag(Tag::kF64);
  put_raw(&v, sizeof(v));
}

void SnapshotWriter::write_string(std::string_view s) {
  put_tag(Tag::kString);
  put_raw_u64(s.size());
  put_raw(s.data(), s.size());
}

std::string SnapshotWriter::finish() {
  ACME_CHECK_MSG(!in_section_, "finish() inside an open section");
  ACME_CHECK_MSG(!finished_, "SnapshotWriter already finished");
  finished_ = true;
  return std::move(out_);
}

void SnapshotWriter::write_file(const std::string& path) {
  const std::string bytes = finish();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ACME_CHECK_MSG(out.good(), "cannot open snapshot file for writing: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  ACME_CHECK_MSG(out.good(), "short write to snapshot file: " + path);
}

SnapshotReader::SnapshotReader(std::string bytes) : bytes_(std::move(bytes)) {
  ACME_CHECK_MSG(bytes_.size() >= sizeof(kMagic) + sizeof(std::uint32_t),
                 "snapshot truncated before the header");
  ACME_CHECK_MSG(std::memcmp(bytes_.data(), kMagic, sizeof(kMagic)) == 0,
                 "not a snapshot file (bad magic)");
  pos_ = sizeof(kMagic);
  take_raw(&version_, sizeof(version_));
  ACME_CHECK_MSG(version_ == kFormatVersion,
                 "snapshot format version " + std::to_string(version_) +
                     " != expected " + std::to_string(kFormatVersion) +
                     "; re-create the snapshot with this build");
}

SnapshotReader SnapshotReader::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ACME_CHECK_MSG(in.good(), "cannot open snapshot file: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ACME_CHECK_MSG(!in.bad(), "read error on snapshot file: " + path);
  return SnapshotReader(std::move(bytes));
}

void SnapshotReader::enter_section(std::string_view name) {
  ACME_CHECK_MSG(!in_section_, "enter_section inside an open section");
  std::uint32_t name_len = 0;
  take_raw(&name_len, sizeof(name_len));
  ACME_CHECK_MSG(pos_ + name_len <= bytes_.size(),
                 "snapshot truncated inside a section header");
  const std::string_view found(bytes_.data() + pos_, name_len);
  ACME_CHECK_MSG(found == name, "snapshot section order mismatch: expected \"" +
                                    std::string(name) + "\", found \"" +
                                    std::string(found) + "\"");
  pos_ += name_len;
  std::uint64_t payload_len = 0;
  std::uint32_t crc = 0;
  take_raw(&payload_len, sizeof(payload_len));
  take_raw(&crc, sizeof(crc));
  ACME_CHECK_MSG(pos_ + payload_len <= bytes_.size(),
                 "snapshot truncated inside section \"" + std::string(name) + "\"");
  ACME_CHECK_MSG(crc32(bytes_.data() + pos_, payload_len) == crc,
                 "CRC mismatch in snapshot section \"" + std::string(name) +
                     "\" (corrupted or hand-edited snapshot)");
  section_end_ = pos_ + payload_len;
  in_section_ = true;
}

void SnapshotReader::leave_section() {
  ACME_CHECK_MSG(in_section_, "leave_section without enter_section");
  ACME_CHECK_MSG(pos_ == section_end_,
                 "snapshot section not fully consumed (schema skew: reader "
                 "expects fewer values than the writer produced)");
  in_section_ = false;
}

void SnapshotReader::expect_tag(Tag tag) {
  ACME_CHECK_MSG(in_section_, "snapshot values must be read inside a section");
  ACME_CHECK_MSG(pos_ < section_end_,
                 "snapshot section exhausted (schema skew: reader expects "
                 "more values than the writer produced)");
  const Tag found = static_cast<Tag>(bytes_[pos_]);
  ACME_CHECK_MSG(found == tag, std::string("snapshot type-tag mismatch: "
                                           "expected ") +
                                   tag_name(tag) + ", found " + tag_name(found));
  ++pos_;
}

void SnapshotReader::take_raw(void* out, std::size_t n) {
  // An empty pod array reads into a vector whose data() may be null, and
  // memcpy's pointers must be non-null even for zero bytes.
  if (n == 0) return;
  const std::size_t limit = in_section_ ? section_end_ : bytes_.size();
  ACME_CHECK_MSG(pos_ + n <= limit, "snapshot truncated mid-value");
  std::memcpy(out, bytes_.data() + pos_, n);
  pos_ += n;
}

bool SnapshotReader::read_bool() {
  expect_tag(Tag::kBool);
  std::uint8_t b = 0;
  take_raw(&b, sizeof(b));
  ACME_CHECK_MSG(b <= 1, "snapshot bool out of range");
  return b != 0;
}

std::uint32_t SnapshotReader::read_u32() {
  expect_tag(Tag::kU32);
  std::uint32_t v = 0;
  take_raw(&v, sizeof(v));
  return v;
}

std::uint64_t SnapshotReader::read_u64() {
  expect_tag(Tag::kU64);
  std::uint64_t v = 0;
  take_raw(&v, sizeof(v));
  return v;
}

std::int64_t SnapshotReader::read_i64() {
  expect_tag(Tag::kI64);
  std::int64_t v = 0;
  take_raw(&v, sizeof(v));
  return v;
}

double SnapshotReader::read_f64() {
  expect_tag(Tag::kF64);
  double v = 0;
  take_raw(&v, sizeof(v));
  return v;
}

std::string SnapshotReader::read_string() {
  expect_tag(Tag::kString);
  const std::uint64_t n = take_raw_u64();
  std::string s(static_cast<std::size_t>(n), '\0');
  take_raw(s.data(), s.size());
  return s;
}

}  // namespace acme::snap
