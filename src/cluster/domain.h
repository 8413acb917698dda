// Hierarchical failure/fabric domains: datacenter -> pod (PDU / spine
// block) -> rail-switch group -> node. One DomainTree is shared by the
// fabric (tier-crossing collective pricing), the failure injector
// (correlated domain outages), and the scheduler (subtree cordons), so
// every layer agrees on which nodes share a blast radius.
//
// Representation: dense interned u32 domain ids laid out level by level
// (root, then datacenters, then pods, then switch groups), SoA arrays per
// domain, and per-node ancestor arrays so node -> datacenter/pod/switch is
// a single indexed load. Nodes are split as evenly as possible at each
// level; every domain owns a contiguous [first_node, first_node + count)
// span and ids within a level ascend with first_node.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/spec.h"
#include "cluster/state.h"

namespace acme::cluster {

enum class DomainKind : std::uint8_t {
  kRoot = 0,
  kDatacenter = 1,
  kPod = 2,
  kSwitch = 3,
};
const char* to_string(DomainKind kind);

using DomainId = std::uint32_t;
inline constexpr DomainId kInvalidDomain = 0xffffffffu;

class DomainTree {
 public:
  DomainTree() = default;  // empty tree over zero nodes
  DomainTree(int node_count, const DomainShape& shape);
  explicit DomainTree(const ClusterSpec& spec)
      : DomainTree(spec.node_count, spec.topology) {}

  int node_count() const { return node_count_; }
  // One datacenter, one pod, one switch group: the flat layout every
  // pre-hierarchy caller assumed. Tier-aware code paths reduce to the
  // flat formulas when this holds.
  bool trivial() const { return trivial_; }
  std::size_t domain_count() const { return kind_.size(); }

  DomainKind kind(DomainId d) const;
  DomainId parent(DomainId d) const;  // kInvalidDomain for the root
  NodeId first_node(DomainId d) const;
  int domain_nodes(DomainId d) const;

  // O(1) node -> enclosing domain of a kind (kRoot returns id 0).
  DomainId ancestor(NodeId node, DomainKind kind) const;
  DomainId datacenter_of(NodeId node) const;
  DomainId pod_of(NodeId node) const;
  DomainId switch_of(NodeId node) const;

  // All domains of one kind, ascending first_node.
  const std::vector<DomainId>& domains(DomainKind kind) const;

  // Tiers spanned by a contiguous node span [first, first + count). O(1):
  // domain spans are contiguous and level ids ascend with first_node.
  int pods_spanned(NodeId first, int count) const;
  int datacenters_spanned(NodeId first, int count) const;

 private:
  DomainId level_of(NodeId node, DomainKind kind) const;

  // SoA per-domain state, indexed by DomainId.
  std::vector<std::uint8_t> kind_;
  std::vector<DomainId> parent_;
  std::vector<NodeId> first_node_;
  std::vector<int> span_;
  // Per-node ancestors (dense, node-indexed).
  std::vector<DomainId> node_dc_;
  std::vector<DomainId> node_pod_;
  std::vector<DomainId> node_switch_;
  std::vector<DomainId> by_kind_[4];
  int node_count_ = 0;
  bool trivial_ = true;
};

}  // namespace acme::cluster
