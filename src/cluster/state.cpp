#include "cluster/state.h"

#include <algorithm>

#include "common/check.h"
#include "snap/format.h"

namespace acme::cluster {

ClusterState::ClusterState(const ClusterSpec& spec) : spec_(spec) {
  buckets_.assign(static_cast<std::size_t>(spec.node.gpus) + 1,
                  common::IndexBitSet(static_cast<std::size_t>(spec.node_count)));
  nodes_.reserve(static_cast<std::size_t>(spec.node_count));
  for (int i = 0; i < spec.node_count; ++i) {
    NodeState n;
    n.id = i;
    n.gpus_total = n.gpus_free = spec.node.gpus;
    nodes_.push_back(n);
    bucket_insert(n);
    total_gpus_ += n.gpus_total;
    free_gpus_healthy_ += n.gpus_free;
    free_gpus_all_ += n.gpus_free;
  }
  gang_next_.assign(nodes_.size(), -1);
}

void ClusterState::bucket_insert(const NodeState& n) {
  if (!n.cordoned)
    buckets_[static_cast<std::size_t>(n.gpus_free)].insert(
        static_cast<std::size_t>(n.id));
}

void ClusterState::bucket_erase(const NodeState& n) {
  if (!n.cordoned)
    buckets_[static_cast<std::size_t>(n.gpus_free)].erase(
        static_cast<std::size_t>(n.id));
}

bool ClusterState::can_allocate(int gpus) const {
  const int per_node = spec_.node.gpus;
  if (gpus >= per_node) {
    const int nodes_needed = (gpus + per_node - 1) / per_node;
    return empty_healthy_nodes() >= nodes_needed;
  }
  for (int k = gpus; k <= per_node; ++k)
    if (!buckets_[static_cast<std::size_t>(k)].empty()) return true;
  return false;
}

void ClusterState::take(NodeId id, int gpus) {
  auto& n = nodes_[static_cast<std::size_t>(id)];
  bucket_erase(n);
  n.gpus_free -= gpus;
  bucket_insert(n);
  if (!n.cordoned) free_gpus_healthy_ -= gpus;
  free_gpus_all_ -= gpus;
}

std::optional<Allocation> ClusterState::try_allocate(int gpus) {
  ACME_CHECK(gpus > 0);
  if (!can_allocate(gpus)) return std::nullopt;
  const int per_node = spec_.node.gpus;
  Allocation alloc;
  alloc.gpus = gpus;

  if (gpus >= per_node) {
    // Ascending empty node ids, the remainder node last, each linked to the
    // one after it.
    const auto& empties = buckets_[static_cast<std::size_t>(per_node)];
    std::size_t id = empties.first();
    alloc.first = static_cast<NodeId>(id);
    NodeId prev = -1;
    for (int left = gpus; left > 0; left -= per_node) {
      const std::size_t next = empties.next(id);
      const auto node = static_cast<NodeId>(id);
      take(node, std::min(left, per_node));
      if (prev >= 0) gang_next_[static_cast<std::size_t>(prev)] = node;
      prev = node;
      id = next;
    }
  } else {
    // Best fit: the fullest node (smallest free count >= gpus).
    for (int k = gpus; k <= per_node; ++k) {
      const auto& bucket = buckets_[static_cast<std::size_t>(k)];
      if (!bucket.empty()) {
        alloc.first = static_cast<NodeId>(bucket.first());
        take(alloc.first, gpus);
        break;
      }
    }
  }
  return alloc;
}

void ClusterState::release(const Allocation& alloc) {
  ACME_CHECK(alloc.first >= 0 && alloc.first < node_count());
  for_each_slice(alloc, [this](NodeId id, int gpus) {
    const NodeState& n = nodes_[static_cast<std::size_t>(id)];
    ACME_CHECK_MSG(n.gpus_free + gpus <= n.gpus_total, "double release of GPUs");
    take(id, -gpus);
    gang_next_[static_cast<std::size_t>(id)] = -1;
  });
}

bool ClusterState::chain_matches(const Allocation& alloc) const {
  if (alloc.first < 0 || alloc.first >= node_count() || alloc.gpus <= 0)
    return false;
  const int per_node = spec_.node.gpus;
  const int nodes = (alloc.gpus + per_node - 1) / per_node;
  NodeId node = alloc.first;
  for (int i = 1; i < nodes; ++i) {
    node = gang_next_[static_cast<std::size_t>(node)];
    if (node < 0) return false;
  }
  return gang_next_[static_cast<std::size_t>(node)] < 0;
}

void ClusterState::cordon(NodeId id) {
  auto& n = nodes_.at(static_cast<std::size_t>(id));
  if (n.cordoned) return;
  bucket_erase(n);
  n.cordoned = true;
  ++cordoned_count_;
  free_gpus_healthy_ -= n.gpus_free;
}

void ClusterState::uncordon(NodeId id) {
  auto& n = nodes_.at(static_cast<std::size_t>(id));
  if (!n.cordoned) return;
  n.cordoned = false;
  --cordoned_count_;
  bucket_insert(n);
  free_gpus_healthy_ += n.gpus_free;
}

std::vector<NodeId> ClusterState::cordoned_nodes() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_)
    if (n.cordoned) out.push_back(n.id);
  return out;
}

std::vector<NodeId> ClusterState::healthy_idle_nodes() const {
  std::vector<NodeId> out;
  buckets_[static_cast<std::size_t>(spec_.node.gpus)].append_to(out);
  return out;
}

void ClusterState::save(snap::SnapshotWriter& w) const {
  w.begin_section("cluster.state");
  w.write_u64(static_cast<std::uint64_t>(nodes_.size()));
  for (const NodeState& n : nodes_) {
    w.write_i64(n.gpus_free);
    w.write_bool(n.cordoned);
    w.write_i64(gang_next_[static_cast<std::size_t>(n.id)]);
  }
  w.end_section();
}

void ClusterState::restore(snap::SnapshotReader& r) {
  r.enter_section("cluster.state");
  const std::uint64_t count = r.read_u64();
  ACME_CHECK_MSG(count == nodes_.size(),
                 "cluster snapshot node count does not match the spec this "
                 "state was constructed from");
  for (auto& bucket : buckets_) bucket.clear();
  free_gpus_healthy_ = 0;
  free_gpus_all_ = 0;
  cordoned_count_ = 0;
  for (NodeState& n : nodes_) {
    const std::int64_t free = r.read_i64();
    n.cordoned = r.read_bool();
    const std::int64_t link = r.read_i64();
    ACME_CHECK_MSG(free >= 0 && free <= n.gpus_total,
                   "cluster snapshot free-GPU count out of range");
    ACME_CHECK_MSG(link >= -1 && link < static_cast<std::int64_t>(nodes_.size()),
                   "cluster snapshot gang link out of range");
    n.gpus_free = static_cast<int>(free);
    gang_next_[static_cast<std::size_t>(n.id)] = static_cast<NodeId>(link);
    bucket_insert(n);  // skips cordoned nodes, like the constructor
    if (!n.cordoned) free_gpus_healthy_ += n.gpus_free;
    free_gpus_all_ += n.gpus_free;
    if (n.cordoned) ++cordoned_count_;
  }
  r.leave_section();
}

}  // namespace acme::cluster
