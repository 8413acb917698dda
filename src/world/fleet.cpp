#include "world/fleet.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/check.h"
#include "common/digest.h"
#include "common/rng.h"

namespace acme::world {

namespace {

void fold_u64(common::Fnv1a& h, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(buf));
  h.update(std::string_view(buf, sizeof(buf)));
}

}  // namespace

std::uint64_t FleetRunReport::digest() const {
  common::Fnv1a h;
  for (const WorldReport& g : groups) fold_u64(h, g.digest());
  fold_u64(h, commit_digest);
  return h.digest();
}

int FleetRunReport::failures_injected() const {
  int n = 0;
  for (const WorldReport& g : groups) n += g.failures_injected;
  return n;
}

double FleetRunReport::mean_goodput() const {
  if (groups.empty()) return 1.0;
  double sum = 0;
  for (const WorldReport& g : groups) sum += g.goodput;
  return sum / static_cast<double>(groups.size());
}

double FleetRunReport::max_makespan_days() const {
  double m = 0;
  for (const WorldReport& g : groups) m = std::max(m, g.makespan_days);
  return m;
}

FleetRunReport run_world_fleet(const ScenarioSpec& spec,
                               const FleetOptions& fleet) {
  ACME_CHECK_MSG(fleet.groups >= 1, "fleet needs at least one group");
  const int groups = fleet.groups;
  const common::Rng seeder(spec.seed);

  std::vector<std::unique_ptr<World>> worlds;
  worlds.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    ScenarioSpec group_spec = spec;
    if (groups > 1) {
      group_spec.seed =
          seeder.fork("fleet-group-" + std::to_string(g)).next();
    }
    worlds.push_back(std::make_unique<World>(std::move(group_spec)));
  }
  for (auto& w : worlds) w->prepare();

  sim::WindowRunner runner;
  for (int g = 0; g < groups; ++g) {
    runner.add_partition(worlds[static_cast<std::size_t>(g)]->engine(),
                         static_cast<std::uint32_t>(g));
  }

  std::optional<task::Pool> pool;
  if (fleet.workers != 1) pool.emplace(fleet.workers);

  const double lookahead = fleet.window_seconds > 0
                               ? fleet.window_seconds
                               : std::numeric_limits<double>::infinity();
  FleetRunReport report;
  report.windows = runner.run(pool ? &*pool : nullptr, lookahead);
  report.commit_digest = runner.commit_digest();
  report.groups.reserve(worlds.size());
  for (auto& w : worlds) report.groups.push_back(w->finish());
  return report;
}

}  // namespace acme::world
