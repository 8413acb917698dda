// Micro-benchmarks (google-benchmark) for the performance-critical engines:
// the event queue, the storage fair-share solver, log template mining, the
// vector store, and the trace synthesizer.
#include <benchmark/benchmark.h>

#include "perfbench/alloc_hook.h"
#include "core/acme.h"

using namespace acme;

namespace {

void BM_EventEngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    common::Rng rng(1);
    for (std::size_t i = 0; i < n; ++i)
      engine.schedule_at(rng.uniform(0, 1e6), [] {});
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventEngineScheduleRun)->Arg(1000)->Arg(100000);

void BM_StorageFairShare(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    storage::StorageNetwork net(engine, storage::seren_storage_config());
    for (int i = 0; i < flows; ++i) net.start_flow(i / 8, 1e9, [] {});
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows) * state.iterations());
}
BENCHMARK(BM_StorageFairShare)->Arg(8)->Arg(64)->Arg(256);

void BM_LogTemplateMining(benchmark::State& state) {
  failure::LogSynthesizer synth({.steps = 1000});
  common::Rng rng(2);
  const auto log = synth.healthy_run(rng);
  for (auto _ : state) {
    diagnosis::FilterRules rules;
    diagnosis::LogAgent agent;
    benchmark::DoNotOptimize(agent.update_rules(log.lines, rules));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(log.lines.size()) *
                          state.iterations());
}
BENCHMARK(BM_LogTemplateMining);

void BM_LogCompression(benchmark::State& state) {
  failure::LogSynthesizer synth({.steps = 1000});
  common::Rng rng(3);
  const auto log = synth.healthy_run(rng);
  diagnosis::FilterRules rules;
  diagnosis::LogAgent agent;
  agent.update_rules(log.lines, rules);
  for (auto _ : state) benchmark::DoNotOptimize(rules.compress(log.lines));
  state.SetItemsProcessed(static_cast<std::int64_t>(log.lines.size()) *
                          state.iterations());
}
BENCHMARK(BM_LogCompression);

void BM_VectorStoreQuery(benchmark::State& state) {
  diagnosis::VectorStore store;
  common::Rng rng(4);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    std::string doc;
    for (int w = 0; w < 20; ++w)
      doc += "tok" + std::to_string(rng.uniform_int(0, 500)) + " ";
    store.add(diagnosis::embed_text(doc), "label" + std::to_string(i % 29));
  }
  const auto query = diagnosis::embed_text("tok1 tok2 tok3 error cuda");
  for (auto _ : state) benchmark::DoNotOptimize(store.query(query, 5));
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_VectorStoreQuery)->Arg(100)->Arg(2000);

trace::Trace seren_div64_trace() {
  auto profile = trace::scaled(trace::seren_profile(), 64.0);
  profile.cpu_jobs = 0;
  return trace::TraceSynthesizer(profile).generate();
}

// The 456,500-job hyperscale-50k trace: the size at which ordering the
// generated records costs the most.
trace::Trace hyperscale_50k_trace() {
  return world::synthesize_trace(world::hyperscale_scenario(50048, 3));
}

void BM_TraceSynthesis(benchmark::State& state, trace::Trace (*synthesize)()) {
  std::size_t jobs = 0;
  for (auto _ : state) {
    const trace::Trace trace = synthesize();
    jobs = trace.size();
    benchmark::DoNotOptimize(trace.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs) * state.iterations());
}
BENCHMARK_CAPTURE(BM_TraceSynthesis, seren_div64, seren_div64_trace);
BENCHMARK_CAPTURE(BM_TraceSynthesis, hyperscale_50k, hyperscale_50k_trace)
    ->Unit(benchmark::kMillisecond);

void BM_SixMonthReplay(benchmark::State& state) {
  world::ScenarioSpec scenario = world::seren_scenario();
  scenario.scale = 64.0;
  const auto jobs = world::synthesize_trace(scenario);
  std::uint64_t run_allocs = 0, run_events = 0;
  for (auto _ : state) {
    sched::SchedulerReplay replay(cluster::seren_spec(),
                                  sched::seren_scheduler_config());
    // Split the one-call replay into its phases so the allocation counter
    // brackets the pure event loop: setup (trace copy, table sizing) and
    // teardown allocate, the schedule→pop→dispatch loop must not.
    replay.begin_replay(jobs);
    perfbench::AllocCount allocs;
    replay.engine().run();
    run_allocs += allocs.count();
    run_events += replay.engine().events_fired();
    benchmark::DoNotOptimize(replay.finish_replay());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs.size()) *
                          state.iterations());
  state.counters["run_allocs"] = static_cast<double>(run_allocs);
  state.counters["allocs_per_event"] =
      run_events > 0 ? static_cast<double>(run_allocs) /
                           static_cast<double>(run_events)
                     : 0.0;
}
BENCHMARK(BM_SixMonthReplay);

}  // namespace
