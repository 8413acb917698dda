#include "diagnosis/embedding.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/digest.h"
#include "diagnosis/log_template.h"

namespace acme::diagnosis {
namespace {

void accumulate(const std::string& line, Embedding& acc) {
  // Template-normalize so volatile tokens (ranks, addresses) don't scatter
  // otherwise-identical errors across the feature space.
  for (const auto& token : tokenize(line_template(line))) {
    if (token == "<*>") continue;
    const std::uint64_t h = common::fnv1a(token);
    const std::size_t idx = h % kEmbeddingDim;
    const float sign = (h >> 63) ? 1.0f : -1.0f;
    acc[idx] += sign;
    // A second hash position reduces collisions (2-way feature hashing).
    const std::uint64_t h2 = common::fnv1a(token + "#2");
    acc[h2 % kEmbeddingDim] += (h2 >> 63) ? 1.0f : -1.0f;
  }
}

void l2_normalize(Embedding& e) {
  float norm = 0;
  for (float v : e) norm += v * v;
  norm = std::sqrt(norm);
  if (norm > 0)
    for (float& v : e) v /= norm;
}

}  // namespace

Embedding embed_lines(const std::vector<std::string>& lines) {
  Embedding e{};
  for (const auto& line : lines) accumulate(line, e);
  l2_normalize(e);
  return e;
}

Embedding embed_text(const std::string& text) {
  Embedding e{};
  accumulate(text, e);
  l2_normalize(e);
  return e;
}

float cosine(const Embedding& a, const Embedding& b) {
  float dot = 0;
  for (std::size_t i = 0; i < kEmbeddingDim; ++i) dot += a[i] * b[i];
  return dot;  // both inputs are L2-normalized
}

void VectorStore::add(Embedding embedding, std::string label) {
  entries_.push_back({embedding, std::move(label)});
}

std::vector<VectorStore::Hit> VectorStore::query(const Embedding& query,
                                                 std::size_t k) const {
  std::vector<Hit> hits;
  hits.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i)
    hits.push_back({i, cosine(query, entries_[i].embedding), &entries_[i].label});
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.index < b.index;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

std::string VectorStore::vote(const Embedding& q, std::size_t k,
                              float min_similarity) const {
  auto hits = query(q, k);
  std::erase_if(hits, [&](const Hit& h) { return h.similarity < min_similarity; });
  if (hits.empty()) return {};
  std::map<std::string, float> scores;
  for (const auto& hit : hits) scores[*hit.label] += hit.similarity;
  std::string best;
  float best_score = -1;
  for (const auto& [label, score] : scores) {
    if (score > best_score) {
      best_score = score;
      best = label;
    }
  }
  return best;
}

}  // namespace acme::diagnosis
