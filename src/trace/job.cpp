#include "trace/job.h"

#include <deque>
#include <limits>
#include <mutex>

#include "common/check.h"

namespace acme::trace {

namespace {

// Append-only symbol table. std::deque keeps name references stable across
// growth, so model_tag_name() can hand out references for the process
// lifetime. The table stays tiny (a handful of tags), so lookup is a linear
// scan under the lock; hot paths switch on the pre-interned constant ids and
// never enter here.
struct TagTable {
  std::mutex mu;
  std::deque<std::string> names{"", "llm-7b", "llm-104b", "llm-123b"};
};

TagTable& table() {
  static TagTable t;
  return t;
}

}  // namespace

ModelTagId intern_model_tag(std::string_view tag) {
  auto& t = table();
  const std::lock_guard<std::mutex> lock(t.mu);
  for (std::size_t i = 0; i < t.names.size(); ++i)
    if (t.names[i] == tag) return static_cast<ModelTagId>(i);
  ACME_CHECK_MSG(t.names.size() <= std::numeric_limits<ModelTagId>::max(),
                 "model-tag table full: JobRecord ids are 16-bit");
  t.names.emplace_back(tag);
  return static_cast<ModelTagId>(t.names.size() - 1);
}

const std::string& model_tag_name(ModelTagId id) {
  auto& t = table();
  const std::lock_guard<std::mutex> lock(t.mu);
  ACME_CHECK_MSG(id < t.names.size(), "unknown model-tag id");
  return t.names[id];
}

}  // namespace acme::trace
