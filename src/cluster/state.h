// Runtime resource ledger for a cluster: per-node GPU occupancy and health
// (cordoned nodes are excluded from placement). The scheduler and the
// recovery toolkit both operate on this state.
//
// Placement queries are hot (the six-month replay performs millions of
// dispatch attempts), so nodes are indexed by free-GPU count: capacity checks
// are O(1) and best-fit/empty-node selection walks a word-packed bitmap
// (common::IndexBitSet) — no allocation per bucket move, unlike the
// std::set<NodeId> buckets this replaces, while keeping the exact
// ascending-node-id selection order the deterministic replays pin.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/spec.h"
#include "common/index_bitset.h"

namespace acme::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace acme::snap

namespace acme::cluster {

using NodeId = int;

struct NodeState {
  NodeId id = 0;
  int gpus_total = 8;
  int gpus_free = 8;
  bool cordoned = false;
};

// A placement: the gang's first node and its GPU count. A gang takes only
// empty nodes, so no node belongs to two running gangs, and the ledger
// threads a gang's further nodes through one per-node link. A placement
// therefore owns no memory; ClusterState::for_each_slice walks it.
struct Allocation {
  NodeId first = -1;
  int gpus = 0;
  bool empty() const { return first < 0; }
};

class ClusterState {
 public:
  explicit ClusterState(const ClusterSpec& spec);

  const ClusterSpec& spec() const { return spec_; }
  int node_count() const { return static_cast<int>(nodes_.size()); }
  const NodeState& node(NodeId id) const {
    return nodes_.at(static_cast<std::size_t>(id));
  }

  int total_gpus() const { return total_gpus_; }
  int free_gpus() const { return free_gpus_healthy_; }  // healthy nodes only
  int free_gpus_including_cordoned() const { return free_gpus_all_; }
  int empty_healthy_nodes() const {
    return static_cast<int>(buckets_[static_cast<std::size_t>(spec_.node.gpus)].size());
  }

  // O(1) feasibility check for try_allocate.
  bool can_allocate(int gpus) const;

  // Tries to place `gpus` GPUs. Multi-node jobs are placed in whole-node
  // units (gang scheduling, as pretraining requires) on the lowest-id empty
  // nodes, the remainder on the next empty node; sub-node jobs best-fit onto
  // the fullest node that still has room, keeping whole nodes free for gangs.
  // Returns nullopt on failure.
  std::optional<Allocation> try_allocate(int gpus);

  // Releases a previous allocation. Checks double-free.
  void release(const Allocation& alloc);

  // Calls fn(node, gpus) for each node of the placement, first to last: whole
  // nodes in ascending id, then a gang's remainder node.
  template <typename Fn>
  void for_each_slice(const Allocation& alloc, Fn&& fn) const {
    NodeId node = alloc.first;
    for (int left = alloc.gpus; left > 0;) {
      const int gpus = left < spec_.node.gpus ? left : spec_.node.gpus;
      const NodeId next = gang_next_[static_cast<std::size_t>(node)];
      fn(node, gpus);  // may reset node's link (release does)
      left -= gpus;
      node = next;
    }
  }
  // True when `alloc` names an in-range first node whose link chain has
  // exactly the nodes its GPU count needs (snapshot restore checks it).
  bool chain_matches(const Allocation& alloc) const;

  void cordon(NodeId id);
  void uncordon(NodeId id);
  bool is_cordoned(NodeId id) const { return node(id).cordoned; }
  int cordoned_count() const { return cordoned_count_; }
  std::vector<NodeId> cordoned_nodes() const;
  std::vector<NodeId> healthy_idle_nodes() const;

  // Snapshot support (acme::snap): serializes only the mutable per-node
  // state (free counts, cordon flags, gang links). restore() requires *this
  // to be freshly constructed from the same ClusterSpec — totals are
  // spec-derived — and rebuilds the free-GPU buckets and aggregate counters
  // from the restored node states.
  void save(snap::SnapshotWriter& w) const;
  void restore(snap::SnapshotReader& r);

 private:
  void bucket_insert(const NodeState& n);
  void bucket_erase(const NodeState& n);
  // Moves `gpus` GPUs of node `id` from free to used (negative: back).
  void take(NodeId id, int gpus);

  ClusterSpec spec_;
  std::vector<NodeState> nodes_;
  // buckets_[k] = healthy nodes with exactly k free GPUs, ascending node id.
  std::vector<common::IndexBitSet> buckets_;
  // gang_next_[n] = the node after n in its gang, or -1 (last node, sub-node
  // placements, idle nodes).
  std::vector<NodeId> gang_next_;
  int total_gpus_ = 0;
  int free_gpus_healthy_ = 0;
  int free_gpus_all_ = 0;
  int cordoned_count_ = 0;
};

}  // namespace acme::cluster
