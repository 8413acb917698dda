// Job record model mirroring the Acme scheduler-log schema (paper §2.3):
// execution times (submission/start/end), final status, requested resources
// and workload type (derived in the paper from production division and job
// metadata, §3.2).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace acme::trace {

// Model tags ("llm-7b", "llm-104b", ...) are interned into a global symbol
// table: JobRecord carries a u16 id instead of a std::string, so traces copy
// and compare tags as integers and the replay hot path never touches string
// storage. The common tags are pre-interned with fixed ids (safe to switch
// on); ad-hoc tags from CSV imports get fresh ids on first sight, up to
// 65,536 tags in all. The table is append-only and mutex-guarded (trace
// synthesis runs in MC worker threads); returned name references stay valid
// for the process lifetime.
using ModelTagId = std::uint16_t;
inline constexpr ModelTagId kModelTagNone = 0;  // ""
inline constexpr ModelTagId kModelTag7B = 1;    // "llm-7b"
inline constexpr ModelTagId kModelTag104B = 2;  // "llm-104b"
inline constexpr ModelTagId kModelTag123B = 3;  // "llm-123b"

ModelTagId intern_model_tag(std::string_view tag);
const std::string& model_tag_name(ModelTagId id);

enum class WorkloadType : std::uint8_t {
  kPretrain,
  kSFT,        // supervised fine-tuning (alignment)
  kMLLM,       // multimodal LLM development (Seren only)
  kEvaluation,
  kDebug,
  kOther,
};

enum class JobStatus : std::uint8_t { kCompleted, kFailed, kCanceled };

const char* to_string(WorkloadType type);
const char* to_string(JobStatus status);

constexpr int kWorkloadTypeCount = 6;
constexpr WorkloadType kAllWorkloadTypes[kWorkloadTypeCount] = {
    WorkloadType::kPretrain, WorkloadType::kSFT,   WorkloadType::kMLLM,
    WorkloadType::kEvaluation, WorkloadType::kDebug, WorkloadType::kOther,
};

// One scheduler-log row. The layout is packed by hand, widest fields first,
// to 40 bytes with no padding: every replica's report keeps its whole trace,
// and the snapshot writes it as a raw record array, so each byte here is
// paid once per job per replica.
struct JobRecord {
  double submit_time = 0;  // seconds since trace start
  double duration = 0;     // runtime, excluding queuing delay
  double queue_delay = 0;  // filled by scheduler replay
  std::uint32_t id = 0;
  int gpus = 0;            // 0 => CPU-only job
  int cpus = 0;
  // Interned tag id, e.g. kModelTag123B for a "llm-123b" pretraining job.
  ModelTagId model_tag_id = kModelTagNone;
  WorkloadType type = WorkloadType::kOther;
  JobStatus status = JobStatus::kCompleted;

  const std::string& model_tag() const { return model_tag_name(model_tag_id); }
  void set_model_tag(std::string_view tag) { model_tag_id = intern_model_tag(tag); }

  bool is_gpu_job() const { return gpus > 0; }
  double gpu_time() const { return static_cast<double>(gpus) * duration; }
  double start_time() const { return submit_time + queue_delay; }
  double end_time() const { return start_time() + duration; }
};
static_assert(sizeof(JobRecord) == 40, "JobRecord must stay packed to 40 bytes");

using Trace = std::vector<JobRecord>;

}  // namespace acme::trace
