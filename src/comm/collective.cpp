#include "comm/collective.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/obs.h"

namespace acme::comm {

namespace {

// Scheduler resubmit + NCCL bootstrap base cost, plus a per-node rendezvous
// term. 30 + (60/256) * nodes puts a 2048-GPU (256-node) world at the 90 s
// the recovery path historically hard-coded (paper §6.1-3's restart cost).
constexpr double kBringupBaseSeconds = 30.0;
constexpr double kBringupPerNodeSeconds = 60.0 / 256.0;
// Each datacenter past the first adds a serialized cross-WAN bootstrap
// exchange to communicator bring-up (rendezvous rides the long-haul RTT and
// its retry budget, not the intra-DC fabric).
constexpr double kCrossDcBringupSeconds = 20.0;

// Trees pipeline imperfectly: interior ranks serve two children over one
// link and chunk turnaround stalls the pipe, so the sustained bandwidth is a
// fraction of the link rate. This is what makes rings win for large payloads
// even though the per-link traffic factors (2S vs 2S(p-1)/p) nearly match.
constexpr double kTreeBandwidthEfficiency = 0.7;

int ceil_log2(int n) {
  int bits = 0;
  for (int v = n - 1; v > 0; v >>= 1) ++bits;
  return bits;
}

void validate(const World& w, double bytes) {
  ACME_CHECK(w.gpus > 0);
  ACME_CHECK(w.ranks_per_node >= 0);
  ACME_CHECK(w.nic_share >= 1);
  ACME_CHECK(bytes >= 0);
}

// Records one cost-model query. Counted at each public entry point, so a
// delegating op (reduce_scatter -> all_gather) shows up under both labels.
// Only called behind obs::enabled(); the registry lookup is idempotent.
void observe_collective(const char* op, const CollectiveCost& c) {
  const obs::Labels labels{{"op", op}};
  obs::metrics()
      .counter("acme_comm_queries_total", "Collective cost-model queries", labels)
      .inc();
  obs::metrics()
      .histogram("acme_comm_collective_seconds",
                 "Modelled duration of each collective query",
                 obs::Histogram::exponential_buckets(1e-6, 10.0, 10), labels)
      .observe(c.seconds());
}

}  // namespace

int CollectiveModel::nodes(const World& w) const {
  return topo_.nodes_for(w.gpus, w.ranks_per_node);
}

FabricTopology::TierSpan CollectiveModel::tiers(const World& w) const {
  return topo_.tier_span(nodes(w));
}

CollectiveModel::LinkTerms CollectiveModel::nvlink_terms() const {
  return {topo_.nvlink_alpha(), 1.0 / topo_.nvlink_bytes_per_sec()};
}

CollectiveModel::LinkTerms CollectiveModel::inter_node_terms(const World& w) const {
  const double bw =
      topo_.node_nic_bytes_per_sec() / static_cast<double>(w.nic_share);
  return {topo_.nic_alpha(), 1.0 / bw};
}

CollectiveModel::LinkTerms CollectiveModel::spine_terms(const World& w) const {
  // No configured spine (flat fabric): an inter-pod crossing prices at the
  // node-NIC rate, so callers never divide by zero.
  if (topo_.spine_bytes_per_sec() <= 0) return inter_node_terms(w);
  return {topo_.spine_alpha(),
          static_cast<double>(w.nic_share) / topo_.spine_bytes_per_sec()};
}

CollectiveModel::LinkTerms CollectiveModel::longhaul_terms(const World& w) const {
  if (topo_.longhaul_bytes_per_sec() <= 0) return spine_terms(w);
  return {topo_.longhaul_alpha(),
          static_cast<double>(w.nic_share) / topo_.longhaul_bytes_per_sec()};
}

CollectiveModel::LinkTerms CollectiveModel::flat_link(const World& w) const {
  return nodes(w) == 1 ? nvlink_terms() : inter_node_terms(w);
}

CollectiveCost CollectiveModel::all_gather(const World& w, double bytes,
                                           Algorithm algorithm) const {
  const CollectiveCost cost = [&]() -> CollectiveCost {
    validate(w, bytes);
    const int p = w.gpus;
    CollectiveCost c;
    if (p == 1) return c;
    const int n = nodes(w);

    if (algorithm == Algorithm::kHierarchical && n > 1) {
      // Stage 1: intra-node all-gather of the per-rank shard s over NVLink;
      // stage 2: inter-node all-gather of the per-node slab g*s over IB.
      const int g = (p + n - 1) / n;
      const double s = bytes / p;
      const auto nv = nvlink_terms();
      const auto ib = inter_node_terms(w);
      const auto ts = tiers(w);
      if (ts.pods > 1 || ts.datacenters > 1) {
        // Tiered stages: nodes gather inside each pod over the rail NICs,
        // pods gather their slabs over the spine, datacenters exchange DC
        // slabs over the long haul. With one pod and one DC this collapses
        // to the flat two-stage form below (n_pod == n, zero extra hops).
        const int d = ts.datacenters;
        const int pods = ts.pods;
        const int n_pod = (n + pods - 1) / pods;
        const int p_dc = (pods + d - 1) / d;
        const auto sp = spine_terms(w);
        const auto lh = longhaul_terms(w);
        c.hops = (g - 1) + (n_pod - 1) + (p_dc - 1) + (d - 1);
        c.latency_seconds = (g - 1) * nv.alpha + (n_pod - 1) * ib.alpha +
                            (p_dc - 1) * sp.alpha + (d - 1) * lh.alpha;
        c.bandwidth_seconds = (g - 1) * s * nv.beta +
                              (n_pod - 1) * g * s * ib.beta +
                              (p_dc - 1) * n_pod * g * s * sp.beta +
                              (d - 1) * p_dc * n_pod * g * s * lh.beta;
        return c;
      }
      c.hops = (g - 1) + (n - 1);
      c.latency_seconds = (g - 1) * nv.alpha + (n - 1) * ib.alpha;
      c.bandwidth_seconds = (g - 1) * s * nv.beta + (n - 1) * g * s * ib.beta;
      return c;
    }
    const auto link = flat_link(w);
    if (algorithm == Algorithm::kTree) {
      // Gather-then-broadcast trees; latency-friendly, bandwidth-poor (the
      // full result crosses the root twice). Rings win past tiny payloads.
      c.hops = 2 * ceil_log2(p);
      c.latency_seconds = c.hops * link.alpha;
      c.bandwidth_seconds = 2.0 * bytes * link.beta / kTreeBandwidthEfficiency;
      return c;
    }
    c.hops = p - 1;
    c.latency_seconds = c.hops * link.alpha;
    c.bandwidth_seconds = (p - 1) * bytes / p * link.beta;
    return c;
  }();
  if (obs::enabled()) observe_collective("all_gather", cost);
  return cost;
}

CollectiveCost CollectiveModel::reduce_scatter(const World& w, double bytes,
                                               Algorithm algorithm) const {
  // Mirror image of all-gather: same traffic, opposite direction.
  const CollectiveCost cost = all_gather(w, bytes, algorithm);
  if (obs::enabled()) observe_collective("reduce_scatter", cost);
  return cost;
}

CollectiveCost CollectiveModel::all_reduce(const World& w, double bytes,
                                           Algorithm algorithm) const {
  const CollectiveCost cost = [&]() -> CollectiveCost {
    validate(w, bytes);
    const int p = w.gpus;
    CollectiveCost c;
    if (p == 1) return c;
    const int n = nodes(w);

    if (algorithm == Algorithm::kHierarchical && n > 1) {
      // Intra-node reduce-scatter, inter-node all-reduce of the node shards
      // (each node moves the whole payload through its NIC aggregate, the g
      // local shards in parallel), intra-node all-gather.
      const int g = (p + n - 1) / n;
      const auto nv = nvlink_terms();
      const auto ib = inter_node_terms(w);
      const auto ts = tiers(w);
      if (ts.pods > 1 || ts.datacenters > 1) {
        // Tier-recursive ring: ring all-reduce inside the pod, then across
        // pods over the spine, then across datacenters over the long haul.
        // Each tier pays the standard 2(k-1)/k traffic factor over its own
        // link; with one pod and one DC the extra terms vanish and n_pod==n
        // reproduces the flat formula.
        const int d = ts.datacenters;
        const int pods = ts.pods;
        const int n_pod = (n + pods - 1) / pods;
        const int p_dc = (pods + d - 1) / d;
        const auto sp = spine_terms(w);
        const auto lh = longhaul_terms(w);
        c.hops = 2 * (g - 1) + 2 * (n_pod - 1) + 2 * (p_dc - 1) + 2 * (d - 1);
        c.latency_seconds = 2 * (g - 1) * nv.alpha + 2 * (n_pod - 1) * ib.alpha +
                            2 * (p_dc - 1) * sp.alpha + 2 * (d - 1) * lh.alpha;
        c.bandwidth_seconds = 2.0 * (g - 1) / g * bytes * nv.beta +
                              2.0 * (n_pod - 1) / n_pod * bytes * ib.beta +
                              2.0 * (p_dc - 1) / p_dc * bytes * sp.beta +
                              2.0 * (d - 1) / d * bytes * lh.beta;
        return c;
      }
      c.hops = 2 * (g - 1) + 2 * (n - 1);
      c.latency_seconds = 2 * (g - 1) * nv.alpha + 2 * (n - 1) * ib.alpha;
      c.bandwidth_seconds = 2.0 * (g - 1) / g * bytes * nv.beta +
                            2.0 * (n - 1) / n * bytes * ib.beta;
      return c;
    }
    const auto link = flat_link(w);
    if (algorithm == Algorithm::kTree) {
      // Pipelined reduce + broadcast trees: log-depth latency, but the payload
      // crosses the bottleneck twice with no (p-1)/p discount.
      c.hops = 2 * ceil_log2(p);
      c.latency_seconds = c.hops * link.alpha;
      c.bandwidth_seconds = 2.0 * bytes * link.beta / kTreeBandwidthEfficiency;
      return c;
    }
    c.hops = 2 * (p - 1);
    c.latency_seconds = c.hops * link.alpha;
    c.bandwidth_seconds = 2.0 * (p - 1) * bytes / p * link.beta;
    return c;
  }();
  if (obs::enabled()) observe_collective("all_reduce", cost);
  return cost;
}

double CollectiveModel::bringup_seconds(const World& w) const {
  ACME_CHECK(w.gpus > 0);
  double t = kBringupBaseSeconds + kBringupPerNodeSeconds * nodes(w);
  const auto ts = tiers(w);
  if (ts.datacenters > 1) t += (ts.datacenters - 1) * kCrossDcBringupSeconds;
  return t;
}

double CollectiveModel::probe_round_seconds(int node_count,
                                            double probe_bytes) const {
  ACME_CHECK(node_count > 0);
  ACME_CHECK(probe_bytes > 0);
  // All worlds of the round rendezvous through one launcher, so bring-up
  // scales with the probe set; the data phase is the slowest (three-node)
  // world's all-gather, run hierarchically like the production test does.
  const int world_nodes = std::min(node_count, 3);
  World probe_world;
  probe_world.gpus = world_nodes * topo_.gpus_per_node();
  const double gather =
      all_gather(probe_world, probe_bytes,
                 world_nodes > 1 ? Algorithm::kHierarchical : Algorithm::kRing)
          .seconds();
  return kBringupBaseSeconds + kBringupPerNodeSeconds * node_count + gather;
}

double bus_bandwidth_allreduce(int gpus, double bytes, double seconds) {
  ACME_CHECK(gpus > 0 && seconds > 0);
  if (gpus == 1) return 0;
  return 2.0 * (gpus - 1) / gpus * bytes / seconds;
}

double bus_bandwidth_allgather(int gpus, double bytes, double seconds) {
  ACME_CHECK(gpus > 0 && seconds > 0);
  if (gpus == 1) return 0;
  return static_cast<double>(gpus - 1) / gpus * bytes / seconds;
}

}  // namespace acme::comm
