#include "trace/trace_io.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <system_error>
#include <sstream>
#include <stdexcept>

#include "common/check.h"
#include "common/csv.h"

namespace acme::trace {
namespace {

WorkloadType type_from_string(const std::string& s) {
  for (WorkloadType t : kAllWorkloadTypes)
    if (s == to_string(t)) return t;
  throw std::invalid_argument("unknown workload type: " + s);
}

JobStatus status_from_string(const std::string& s) {
  if (s == "Completed") return JobStatus::kCompleted;
  if (s == "Failed") return JobStatus::kFailed;
  if (s == "Canceled") return JobStatus::kCanceled;
  throw std::invalid_argument("unknown job status: " + s);
}

// Parses all of `s` as a T. std::from_chars takes no leading '+' or
// whitespace, and no '-' for an unsigned T; a field it reads only part of
// ("12abc", or "12.5" as an integer) is rejected as well.
template <typename T>
std::errc parse_whole(const std::string& s, T* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr != end ? std::errc::invalid_argument : ec;
}

std::uint32_t id_from_string(const std::string& s) {
  std::uint32_t id = 0;
  const std::errc ec = parse_whole(s, &id);
  if (ec == std::errc::result_out_of_range)
    throw std::invalid_argument("id " + s + " does not fit in 32 bits");
  if (ec != std::errc())
    throw std::invalid_argument("id " + s + " is not an unsigned integer");
  return id;
}

int count_from_string(const std::string& s, const char* field) {
  int n = 0;
  if (parse_whole(s, &n) != std::errc())
    throw std::invalid_argument(std::string(field) + " " + s +
                                " is not an integer");
  if (n < 0) throw std::invalid_argument(std::string(field) + " " + s + " is negative");
  return n;
}

double seconds_from_string(const std::string& s, const char* field) {
  double t = 0;
  if (parse_whole(s, &t) != std::errc() || !std::isfinite(t) || t < 0)
    throw std::invalid_argument(std::string(field) + " " + s +
                                " is not a finite non-negative time");
  return t;
}

// Shortest decimal that reads back as the same double, so a written trace
// re-imports bit-identically (std::to_string keeps six decimals).
std::string seconds_to_string(double t) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), t);
  return std::string(buf, res.ptr);
}

JobRecord job_from_row(const std::vector<std::string>& row) {
  if (row.size() != 9) throw std::invalid_argument("bad trace row width");
  JobRecord j;
  j.id = id_from_string(row[0]);
  j.type = type_from_string(row[1]);
  j.status = status_from_string(row[2]);
  j.gpus = count_from_string(row[3], "gpus");
  j.cpus = count_from_string(row[4], "cpus");
  j.submit_time = seconds_from_string(row[5], "submit_time");
  j.duration = seconds_from_string(row[6], "duration");
  j.queue_delay = seconds_from_string(row[7], "queue_delay");
  j.set_model_tag(row[8]);
  return j;
}

}  // namespace

void write_csv(std::ostream& out, const Trace& trace) {
  common::CsvWriter writer(out);
  writer.write_row({"id", "type", "status", "gpus", "cpus", "submit_time",
                    "duration", "queue_delay", "model_tag"});
  for (const auto& j : trace) {
    writer.write_row({std::to_string(j.id), to_string(j.type), to_string(j.status),
                      std::to_string(j.gpus), std::to_string(j.cpus),
                      seconds_to_string(j.submit_time), seconds_to_string(j.duration),
                      seconds_to_string(j.queue_delay), j.model_tag()});
  }
}

Trace read_csv(std::istream& in) {
  common::CsvReader reader(in);
  std::vector<std::string> row;
  ACME_CHECK_MSG(reader.read_row(row) && row.size() == 9, "missing trace header");
  Trace trace;
  // Rows are numbered from 1 after the header; a bad field names its row.
  for (std::size_t row_no = 1; reader.read_row(row); ++row_no) {
    try {
      trace.push_back(job_from_row(row));
    } catch (const std::logic_error& e) {
      throw std::invalid_argument("trace row " + std::to_string(row_no) + ": " +
                                  e.what());
    }
  }
  return trace;
}

void write_csv_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  ACME_CHECK_MSG(out.good(), "cannot open for write: " + path);
  write_csv(out, trace);
}

Trace read_csv_file(const std::string& path) {
  std::ifstream in(path);
  ACME_CHECK_MSG(in.good(), "cannot open for read: " + path);
  return read_csv(in);
}

}  // namespace acme::trace
