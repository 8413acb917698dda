// Two-round all-gather fault localization (paper §6.1-3).
//
// Round 1: split all nodes into two-node worlds (one three-node world if the
// count is odd) and run an all-gather in each. A world fails iff it contains
// a faulty node, so every member of a failing world becomes a suspect.
// Round 2: pair each suspect with a node from a world that PASSED round 1;
// the all-gather now fails iff the suspect itself is faulty. Identified
// nodes are cordoned off.
//
// The predicate abstracts the fabric: in production it is a real NCCL
// all-gather; here it is evaluated against the simulated cluster's fault
// set. The protocol's correctness is independent of the transport.
#pragma once

#include <functional>
#include <vector>

#include "cluster/state.h"
#include "comm/collective.h"

namespace acme::recovery {

struct TwoRoundResult {
  std::vector<cluster::NodeId> faulty;       // confirmed faulty nodes
  std::vector<cluster::NodeId> suspects;     // round-1 suspects
  int round1_worlds = 0;
  int round2_worlds = 0;
  // Wall-clock estimate: each world runs its test in parallel, two rounds.
  double duration_seconds = 0;
};

// `is_faulty` answers whether a node is faulty; `nodes` is the probe set.
// `per_round_seconds` is the flat cost of one all-gather round (default:
// NCCL bring-up + test on a full-scale world, ~90 s).
TwoRoundResult two_round_localize(const std::vector<cluster::NodeId>& nodes,
                                  const std::function<bool(cluster::NodeId)>& is_faulty,
                                  double per_round_seconds = 90.0);

// Fabric-derived variant: each round's cost comes from
// `comm::CollectiveModel::probe_round_seconds` sized to the nodes actually
// participating in that round (all probed nodes in round 1; suspects plus
// their clean witnesses in round 2), so localization over a small probe set
// is proportionally cheaper than over the whole cluster.
TwoRoundResult two_round_localize(const std::vector<cluster::NodeId>& nodes,
                                  const std::function<bool(cluster::NodeId)>& is_faulty,
                                  const comm::CollectiveModel& model);

}  // namespace acme::recovery
