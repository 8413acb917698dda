#include "recovery/two_round_test.h"

#include <algorithm>

#include "common/check.h"
#include "obs/obs.h"

namespace acme::recovery {

namespace {

// Cost of one localization round as a function of how many nodes take part.
using RoundCost = std::function<double(int)>;

TwoRoundResult localize_impl(const std::vector<cluster::NodeId>& nodes,
                             const std::function<bool(cluster::NodeId)>& is_faulty,
                             const RoundCost& round_cost) {
  TwoRoundResult result;
  if (nodes.empty()) return result;

  // Round 1: pair nodes into worlds; a trailing odd node joins the last
  // world, making it a three-node world (paper: "If the total number of
  // servers is odd, we leave one world size as three").
  std::vector<std::vector<cluster::NodeId>> worlds;
  for (std::size_t i = 0; i + 1 < nodes.size(); i += 2)
    worlds.push_back({nodes[i], nodes[i + 1]});
  if (nodes.size() % 2 == 1) {
    if (worlds.empty()) {
      worlds.push_back({nodes.back()});
    } else {
      worlds.back().push_back(nodes.back());
    }
  }
  result.round1_worlds = static_cast<int>(worlds.size());

  std::vector<cluster::NodeId> clean;
  for (const auto& world : worlds) {
    const bool failed =
        std::any_of(world.begin(), world.end(), [&](cluster::NodeId n) {
          return is_faulty(n);
        });
    for (cluster::NodeId n : world)
      (failed ? result.suspects : clean).push_back(n);
  }
  result.duration_seconds = round_cost(static_cast<int>(nodes.size()));
  if (result.suspects.empty()) {  // fabric-wide pass, one round
    if (obs::enabled()) {
      static obs::Counter& rounds = obs::metrics().counter(
          "acme_recovery_probe_rounds_total",
          "All-gather probe rounds run during two-round localization");
      rounds.inc(1);
    }
    return result;
  }

  // Round 2: each suspect pairs with a known-clean node; the all-gather then
  // fails iff the suspect itself is faulty. If NO clean world survived round
  // 1 there is no healthy witness to pair with, so each suspect instead runs
  // an intra-node self-test (single-node NCCL world exercising its own GPUs
  // and NVLinks) — still one parallel round.
  result.round2_worlds = static_cast<int>(result.suspects.size());
  const int round2_nodes = clean.empty()
                               ? result.round2_worlds
                               : 2 * result.round2_worlds;
  result.duration_seconds += round_cost(round2_nodes);
  for (cluster::NodeId suspect : result.suspects)
    if (is_faulty(suspect)) result.faulty.push_back(suspect);
  std::sort(result.faulty.begin(), result.faulty.end());
  if (obs::enabled()) {
    static obs::Counter& rounds = obs::metrics().counter(
        "acme_recovery_probe_rounds_total",
        "All-gather probe rounds run during two-round localization");
    static obs::Counter& suspects = obs::metrics().counter(
        "acme_recovery_suspect_nodes_total",
        "Round-1 suspect nodes escalated to round 2");
    rounds.inc(2);  // round 1 ran above; round 2 just ran
    suspects.inc(result.suspects.size());
  }
  return result;
}

}  // namespace

TwoRoundResult two_round_localize(
    const std::vector<cluster::NodeId>& nodes,
    const std::function<bool(cluster::NodeId)>& is_faulty,
    double per_round_seconds) {
  return localize_impl(nodes, is_faulty,
                       [per_round_seconds](int) { return per_round_seconds; });
}

TwoRoundResult two_round_localize(
    const std::vector<cluster::NodeId>& nodes,
    const std::function<bool(cluster::NodeId)>& is_faulty,
    const comm::CollectiveModel& model) {
  return localize_impl(nodes, is_faulty, [&model](int node_count) {
    return model.probe_round_seconds(node_count);
  });
}

}  // namespace acme::recovery
