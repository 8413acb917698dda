#include "cluster/domain.h"

#include <algorithm>

#include "common/check.h"

namespace acme::cluster {

const char* to_string(DomainKind kind) {
  switch (kind) {
    case DomainKind::kRoot: return "root";
    case DomainKind::kDatacenter: return "datacenter";
    case DomainKind::kPod: return "pod";
    case DomainKind::kSwitch: return "switch";
  }
  return "?";
}

namespace {

// Split `count` nodes into `parts` contiguous spans as evenly as possible:
// the first (count % parts) spans get one extra node. Returns the first
// node of part `i` (part boundaries are monotone in i).
int part_first(int count, int parts, int i) {
  const int base = count / parts;
  const int extra = count % parts;
  return i * base + std::min(i, extra);
}

}  // namespace

DomainTree::DomainTree(int node_count, const DomainShape& shape) {
  ACME_CHECK(node_count >= 0);
  node_count_ = node_count;
  if (node_count == 0) return;

  const int dcs = std::max(1, shape.datacenters);
  const int pods_per_dc = std::max(1, shape.pods_per_datacenter);
  ACME_CHECK_MSG(dcs * pods_per_dc <= node_count,
                 "DomainShape has more pods than nodes");

  // Level layout: id 0 = root, then all datacenters, then all pods, then
  // all switch groups; ids within a level ascend with first_node.
  auto push = [&](DomainKind kind, DomainId parent, NodeId first, int span) {
    kind_.push_back(static_cast<std::uint8_t>(kind));
    parent_.push_back(parent);
    first_node_.push_back(first);
    span_.push_back(span);
    const DomainId id = static_cast<DomainId>(kind_.size() - 1);
    by_kind_[static_cast<int>(kind)].push_back(id);
    return id;
  };

  push(DomainKind::kRoot, kInvalidDomain, 0, node_count);
  for (int d = 0; d < dcs; ++d) {
    const int first = part_first(node_count, dcs, d);
    const int last = part_first(node_count, dcs, d + 1);
    push(DomainKind::kDatacenter, 0, first, last - first);
  }
  for (int d = 0; d < dcs; ++d) {
    const DomainId dc_id = by_kind_[1][static_cast<std::size_t>(d)];
    const int dc_first = first_node_[dc_id];
    const int dc_span = span_[dc_id];
    for (int p = 0; p < pods_per_dc; ++p) {
      const int first = dc_first + part_first(dc_span, pods_per_dc, p);
      const int last = dc_first + part_first(dc_span, pods_per_dc, p + 1);
      push(DomainKind::kPod, dc_id, first, last - first);
    }
  }
  for (DomainId pod_id : by_kind_[2]) {
    const int pod_first = first_node_[pod_id];
    const int pod_span = span_[pod_id];
    const int per_switch =
        shape.nodes_per_switch > 0 ? shape.nodes_per_switch : pod_span;
    for (int first = 0; first < pod_span; first += per_switch) {
      const int span = std::min(per_switch, pod_span - first);
      push(DomainKind::kSwitch, pod_id, pod_first + first, span);
    }
  }

  node_dc_.resize(static_cast<std::size_t>(node_count));
  node_pod_.resize(static_cast<std::size_t>(node_count));
  node_switch_.resize(static_cast<std::size_t>(node_count));
  for (int level = 1; level <= 3; ++level) {
    auto& per_node = level == 1 ? node_dc_ : level == 2 ? node_pod_
                                                        : node_switch_;
    for (DomainId id : by_kind_[level]) {
      std::fill_n(per_node.begin() + first_node_[id], span_[id], id);
    }
  }

  trivial_ = by_kind_[1].size() == 1 && by_kind_[2].size() == 1 &&
             by_kind_[3].size() == 1;
}

DomainKind DomainTree::kind(DomainId d) const {
  ACME_CHECK(d < kind_.size());
  return static_cast<DomainKind>(kind_[d]);
}

DomainId DomainTree::parent(DomainId d) const {
  ACME_CHECK(d < parent_.size());
  return parent_[d];
}

NodeId DomainTree::first_node(DomainId d) const {
  ACME_CHECK(d < first_node_.size());
  return first_node_[d];
}

int DomainTree::domain_nodes(DomainId d) const {
  ACME_CHECK(d < span_.size());
  return span_[d];
}

DomainId DomainTree::level_of(NodeId node, DomainKind kind) const {
  ACME_CHECK(node >= 0 && node < node_count_);
  switch (kind) {
    case DomainKind::kRoot: return 0;
    case DomainKind::kDatacenter: return node_dc_[static_cast<std::size_t>(node)];
    case DomainKind::kPod: return node_pod_[static_cast<std::size_t>(node)];
    case DomainKind::kSwitch: return node_switch_[static_cast<std::size_t>(node)];
  }
  return kInvalidDomain;
}

DomainId DomainTree::ancestor(NodeId node, DomainKind kind) const {
  return level_of(node, kind);
}

DomainId DomainTree::datacenter_of(NodeId node) const {
  return level_of(node, DomainKind::kDatacenter);
}

DomainId DomainTree::pod_of(NodeId node) const {
  return level_of(node, DomainKind::kPod);
}

DomainId DomainTree::switch_of(NodeId node) const {
  return level_of(node, DomainKind::kSwitch);
}

const std::vector<DomainId>& DomainTree::domains(DomainKind kind) const {
  return by_kind_[static_cast<int>(kind)];
}

int DomainTree::pods_spanned(NodeId first, int count) const {
  if (count <= 0 || node_count_ == 0) return 1;
  ACME_CHECK(first >= 0 && first + count <= node_count_);
  // Pod spans are contiguous and pod ids ascend with first_node, so a
  // contiguous node span covers a contiguous id range.
  return static_cast<int>(node_pod_[static_cast<std::size_t>(first + count - 1)] -
                          node_pod_[static_cast<std::size_t>(first)]) +
         1;
}

int DomainTree::datacenters_spanned(NodeId first, int count) const {
  if (count <= 0 || node_count_ == 0) return 1;
  ACME_CHECK(first >= 0 && first + count <= node_count_);
  return static_cast<int>(node_dc_[static_cast<std::size_t>(first + count - 1)] -
                          node_dc_[static_cast<std::size_t>(first)]) +
         1;
}

}  // namespace acme::cluster
