// Collective-communication sweep: runs the acme::comm alpha-beta models over
// communicator size x message size for both clusters and prints NCCL-style
// bus-bandwidth tables (the busbw column nccl-tests reports), so the fabric
// model can be eyeballed against hardware line rates: single-node rings
// should saturate the NVLink bus rate, multi-node hierarchical worlds the
// per-node NIC aggregate, and Seren's shared HDR NIC should sit far below
// Kalos' 4x200 Gb/s compute rail.
#include "bench_util.h"

using namespace acme;

namespace {

const double kSweepBytes[] = {1 * common::kMiB, 16 * common::kMiB,
                              128 * common::kMiB, 1 * common::kGiB,
                              4 * common::kGiB};
const int kSweepWorlds[] = {8, 16, 64, 256, 1024, 2048};

std::string gbs(double bytes_per_sec) {
  return common::Table::num(bytes_per_sec / common::kGB, 1);
}

// Ring inside one node, hierarchical across nodes — NCCL's default choice.
comm::Algorithm pick(const comm::CollectiveModel& model, const comm::World& w) {
  return model.nodes(w) > 1 ? comm::Algorithm::kHierarchical
                            : comm::Algorithm::kRing;
}

double allreduce_busbw(const comm::CollectiveModel& model, int gpus,
                       double bytes) {
  comm::World w;
  w.gpus = gpus;
  const double t = model.all_reduce(w, bytes, pick(model, w)).seconds();
  return comm::bus_bandwidth_allreduce(gpus, bytes, t);
}

void sweep_cluster(const char* name, const comm::FabricConfig& fabric) {
  const comm::CollectiveModel model(fabric);
  std::printf("\n-- %s: all-reduce bus bandwidth (GB/s) --\n", name);
  std::vector<std::string> head{"Message"};
  for (int gpus : kSweepWorlds) head.push_back(std::to_string(gpus) + " GPUs");
  common::Table table(head);
  for (double bytes : kSweepBytes) {
    std::vector<std::string> row{common::format_bytes(bytes)};
    for (int gpus : kSweepWorlds)
      row.push_back(gbs(allreduce_busbw(model, gpus, bytes)));
    table.add_row(row);
  }
  std::printf("%s", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli obs_cli = bench::parse_cli(argc, argv, "bench_comm_collectives");
  bench::header("comm", "Collective sweep vs NCCL-style bus bandwidth");

  sweep_cluster("Kalos (4x200 Gb/s compute NICs)", comm::kalos_fabric());
  sweep_cluster("Seren (1x200 Gb/s NIC shared with storage)",
                comm::seren_fabric());

  // Algorithm crossover at a fixed multi-node world: trees win the latency
  // regime, rings the bandwidth regime, hierarchical splits the difference
  // by keeping the (p-1) ring hops on NVLink.
  const comm::CollectiveModel kalos(comm::kalos_fabric());
  comm::World w64;
  w64.gpus = 64;
  std::printf("\n-- Kalos, 64 GPUs: all-reduce time by algorithm --\n");
  common::Table algo({"Message", "ring", "tree", "hierarchical", "winner"});
  for (double bytes : {8 * common::kKiB, 1 * common::kMiB, 64 * common::kMiB,
                       1 * common::kGiB}) {
    const double ring = kalos.all_reduce(w64, bytes, comm::Algorithm::kRing).seconds();
    const double tree = kalos.all_reduce(w64, bytes, comm::Algorithm::kTree).seconds();
    const double hier =
        kalos.all_reduce(w64, bytes, comm::Algorithm::kHierarchical).seconds();
    const double best = std::min({ring, tree, hier});
    algo.add_row({common::format_bytes(bytes), common::Table::num(ring * 1e3, 3),
                  common::Table::num(tree * 1e3, 3),
                  common::Table::num(hier * 1e3, 3),
                  best == hier ? "hierarchical" : (best == tree ? "tree" : "ring")});
  }
  std::printf("%s  (times in ms)\n", algo.render().c_str());

  const double nvlink_bus = kalos.topology().nvlink_bytes_per_sec();
  const double kalos_nic = kalos.topology().node_nic_bytes_per_sec();
  const comm::CollectiveModel seren(comm::seren_fabric());
  const double seren_nic = seren.topology().node_nic_bytes_per_sec();

  const double intra = allreduce_busbw(kalos, 8, 4 * common::kGiB);
  const double inter = allreduce_busbw(kalos, 2048, 4 * common::kGiB);
  // Pure inter-node regime (one rank per node, flat IB ring) isolates the
  // NIC provisioning gap without the shared NVLink stage diluting it.
  comm::World one_per_node;
  one_per_node.gpus = 8;
  one_per_node.ranks_per_node = 1;
  const double ib_ratio =
      seren.all_reduce(one_per_node, 4 * common::kGiB, comm::Algorithm::kRing)
          .seconds() /
      kalos.all_reduce(one_per_node, 4 * common::kGiB, comm::Algorithm::kRing)
          .seconds();

  bench::recap("Kalos single-node busbw @4 GiB", "-> NVLink bus rate (" +
               gbs(nvlink_bus) + " GB/s)", gbs(intra) + " GB/s");
  bench::recap("Kalos 2048-GPU busbw @4 GiB", "< NIC aggregate (" +
               gbs(kalos_nic) + " GB/s)", gbs(inter) + " GB/s");
  bench::recap("Seren/Kalos inter-node slowdown", ">4x (" + gbs(seren_nic) +
               " vs " + gbs(kalos_nic) + " GB/s NIC)",
               common::Table::num(ib_ratio, 1) + "x");
  return bench::finish(obs_cli);
}
