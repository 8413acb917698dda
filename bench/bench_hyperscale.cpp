// Hyperscale sweep: goodput, recovery TTR and outage localization as the
// fleet grows from one Seren-sized room to a 50k+-GPU multi-datacenter
// estate (DESIGN.md §14, ROADMAP item 2).
//
// Each point runs world::hyperscale_scenario(n_gpus, n_dcs) end-to-end on
// one event spine: trace volume proportional to the fleet, tiered fabric
// (rail / spine / long-haul), per-job Table 3 failures plus correlated
// domain outages (switch / PDU / cooling, Table 2) that cordon a whole
// subtree and kill every resident job in one injection. The sweep shows the
// scale trend the paper's §5/§6.1 story predicts: bigger fleets see more
// frequent kills and bigger blast radii, so goodput erodes and mean TTR
// grows unless recovery stays localized.
//
// Two gates, enforced by the binary itself:
//   * allocation freedom: the shared operator-new hook brackets each
//     measured drain (prepare() and finish() are outside); any heap
//     allocation inside the drain — scheduler, failure chains, domain
//     cordons and kills included — exits 1.
//   * memory O(live entities): peak RSS per entity (jobs + GPUs) must stay
//     under 1 KiB (measured: a few hundred bytes); a per-job structure that
//     grows several-fold, or an accidental O(n^2) one at 50k GPUs, fails
//     loudly instead of quietly swapping.
//
// Flags: --full (scale=1: the full six-month trace, 10M+ jobs at 50k GPUs;
//         minutes of wall clock and GBs of RSS — not the CI default)
//        --json out.json (trajectory rows for tools/bench_compare.py)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "perfbench/alloc_hook.h"
#include "bench_util.h"

using namespace acme;

namespace {

// Peak RSS so far, from /proc/self/status VmHWM (kB). 0 when unavailable
// (non-Linux); the memory gate is skipped there.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
  }
  return 0;
}

// Peak-RSS budget per entity (jobs + GPUs) for the memory gate.
constexpr std::uint64_t kMaxRssPerEntity = 1024;

struct SweepPoint {
  const char* label;
  int gpus;
  int dcs;
};

struct SweepRow {
  std::string name;
  int gpus = 0;
  int dcs = 0;
  std::size_t jobs = 0;
  std::size_t events = 0;
  double drain_wall = 0;
  std::uint64_t drain_allocs = 0;
  world::WorldReport report;
  std::uint64_t rss_per_entity = 0;  // peak-so-far / (jobs + gpus)
};

SweepRow run_point(const SweepPoint& point, bool full) {
  world::ScenarioSpec spec = world::hyperscale_scenario(point.gpus, point.dcs);
  if (full) spec.scale = 1.0;  // the whole six-month window, 10M+ jobs at 50k
  // Gated config: the occupancy timeline grows with the (unknowable ahead of
  // time) makespan, so sampling is off for the allocation-freedom bracket;
  // goodput/TTR/outage accounting never touch it.
  spec.sample_interval_seconds = 0;
  spec.fleet_samples = 0;
  SweepRow row;
  row.name = spec.name;
  row.gpus = point.gpus;
  row.dcs = point.dcs;

  world::World w(spec);
  w.prepare();  // trace synthesis + table sizing, outside the bracket

  perfbench::AllocCount allocs;
  const auto t0 = std::chrono::steady_clock::now();
  row.events =
      w.run_until(std::numeric_limits<double>::infinity());  // measured drain
  const auto t1 = std::chrono::steady_clock::now();
  row.drain_allocs = allocs.count();
  row.drain_wall = std::chrono::duration<double>(t1 - t0).count();

  row.report = w.finish();
  row.jobs = row.report.replay.jobs.size();
  const std::uint64_t entities =
      static_cast<std::uint64_t>(row.jobs) +
      static_cast<std::uint64_t>(point.gpus);
  const std::uint64_t rss = peak_rss_bytes();
  row.rss_per_entity = entities > 0 ? rss / entities : 0;
  return row;
}

double mean_ttr(const world::WorldReport& r) {
  const int kills = r.failures_injected + r.domain_jobs_killed;
  return kills > 0 ? r.recovery_stall_seconds / kills : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t full = 0;
  std::string json_path;
  common::FlagSet flags("bench_hyperscale");
  flags.add("--full", &full,
            "1 = run the full six-month trace per point (10M+ jobs at 50k "
            "GPUs; minutes of wall clock)");
  flags.add("--json", &json_path, "write trajectory rows as JSON");
  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    std::fprintf(stderr, "bench_hyperscale: %s\n%s", error.c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }

  bench::header("Hyperscale",
                "Goodput / TTR / recovery localization vs fleet scale");

  const SweepPoint points[] = {
      {"seren-sized", 4704, 1},
      {"mid", 16384, 1},
      {"hyperscale", 50048, 3},
  };
  std::vector<SweepRow> rows;
  for (const SweepPoint& point : points)
    rows.push_back(run_point(point, full != 0));

  common::Table table({"fleet", "dcs", "jobs", "events/s", "goodput",
                       "mean TTR", "domain outages", "jobs killed",
                       "nodes cordoned", "drain allocs", "RSS/entity"});
  for (const SweepRow& row : rows) {
    const world::WorldReport& r = row.report;
    table.add_row(
        {row.name, std::to_string(row.dcs), std::to_string(row.jobs),
         common::Table::num(
             row.drain_wall > 0 ? row.events / row.drain_wall : 0, 0),
         common::Table::pct(r.goodput),
         common::format_duration(mean_ttr(r)),
         std::to_string(r.domain_failures_injected),
         std::to_string(r.failures_injected + r.domain_jobs_killed),
         std::to_string(r.domain_nodes_cordoned),
         std::to_string(row.drain_allocs),
         std::to_string(row.rss_per_entity) + " B"});
  }
  std::printf("%s\n", table.render().c_str());

  bench::recap("goodput at 50k+/3dc",
               "§6.1: waste stays bounded when recovery is localized",
               common::Table::pct(rows.back().report.goodput));
  bench::recap(
      "mean TTR trend",
      "TTR grows with blast radius (Table 2 outages cordon whole subtrees)",
      common::format_duration(mean_ttr(rows.front().report)) + " -> " +
          common::format_duration(mean_ttr(rows.back().report)));
  bench::recap(
      "correlated outages at 50k",
      "switch/PDU/cooling events kill all residents in one injection",
      std::to_string(rows.back().report.domain_failures_injected) +
          " outages, " +
          std::to_string(rows.back().report.domain_jobs_killed) +
          " resident kills");

  // Gates: any measured-drain allocation, or super-linear memory, fails the
  // bench regardless of throughput.
  bool ok = true;
  for (const SweepRow& row : rows) {
    if (row.drain_allocs != 0) {
      std::fprintf(stderr,
                   "FAIL: %s measured drain made %llu heap allocations "
                   "(expected 0)\n",
                   row.name.c_str(),
                   static_cast<unsigned long long>(row.drain_allocs));
      ok = false;
    }
    if (row.rss_per_entity > kMaxRssPerEntity) {
      std::fprintf(stderr,
                   "FAIL: %s peak RSS %llu B/entity exceeds the 1 KiB "
                   "O(live entities) bound\n",
                   row.name.c_str(),
                   static_cast<unsigned long long>(row.rss_per_entity));
      ok = false;
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"results\": {\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& row = rows[i];
      const world::WorldReport& r = row.report;
      out << "    \"bench_hyperscale/" << row.name
          << "/events\": { \"items_per_second\": "
          << (row.drain_wall > 0 ? row.events / row.drain_wall : 0)
          << ", \"run_allocs\": " << row.drain_allocs << " },\n";
      out << "    \"bench_hyperscale/" << row.name
          << "/goodput\": { \"items_per_second\": " << r.goodput << " },\n";
      out << "    \"bench_hyperscale/" << row.name
          << "/mean_ttr\": { \"seconds\": " << mean_ttr(r)
          << ", \"rss_per_entity\": " << row.rss_per_entity << " }"
          << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "  }\n}\n";
    std::printf("[json] results written to %s\n", json_path.c_str());
  }

  return ok ? 0 : 1;
}
