#include "trace/trace_io.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
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

std::uint32_t id_from_string(const std::string& s) {
  const unsigned long long id = std::stoull(s);
  // stoull negates a leading '-', so "-1" lands here as 2^64 - 1 too.
  if (s.find('-') != std::string::npos ||
      id > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("id " + s + " does not fit in 32 bits");
  return static_cast<std::uint32_t>(id);
}

int count_from_string(const std::string& s, const char* field) {
  const int n = std::stoi(s);
  if (n < 0) throw std::invalid_argument(std::string(field) + " " + s + " is negative");
  return n;
}

double seconds_from_string(const std::string& s, const char* field) {
  const double t = std::stod(s);
  if (!std::isfinite(t) || t < 0)
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
    } catch (const std::logic_error& e) {  // stoi/stod errors and ours
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
