// T15 — substrate micro-benchmarks (google-benchmark): interaction
// throughput of the agent engine, the count engine (direct vs skip-ahead),
// the kernel oscillator on counts, and the clock hierarchy. These underpin
// the feasible n-ranges of every other experiment.
//
// Besides the console table, results are exported to BENCH_engine.json
// (override with POPPROTO_BENCH_OUT; see EXPERIMENTS.md for the schema) so
// perf can be tracked across commits.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "clocks/hierarchy.hpp"
#include "clocks/oscillator.hpp"
#include "clocks/phase_clock.hpp"
#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/engine.hpp"
#include "observe/telemetry.hpp"
#include "protocols/baselines.hpp"
#include "support/bench_io.hpp"

namespace popproto {
namespace {

void BM_AgentEngineEpidemic(benchmark::State& state) {
  auto vars = make_var_space();
  const VarId i = vars->intern("I");
  Protocol p("epi", vars);
  p.add_thread("T", {make_rule(BoolExpr::var(i), BoolExpr::any(),
                               BoolExpr::any(), BoolExpr::var(i))});
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<State> init(n, 0);
  init[0] = var_bit(i);
  Engine eng(p, std::move(init), 1);
  for (auto _ : state) eng.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AgentEngineEpidemic)->Arg(1 << 12)->Arg(1 << 18);

void BM_CountEngineDirect(benchmark::State& state) {
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  const VarId a = *vars->find("BA");
  const VarId b = *vars->find("BB");
  CountEngine eng(p, {{var_bit(a), 1 << 19}, {var_bit(b), 1 << 19}}, 1,
                  CountEngineMode::kDirect);
  for (auto _ : state) eng.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CountEngineDirect);

void BM_CountEngineSkipAhead(benchmark::State& state) {
  // Sparse dynamics: 32 X agents among 2^20; direct simulation would spend
  // ~10^9 no-ops per effective event.
  auto vars = make_var_space();
  const VarId x = vars->intern("X");
  Protocol p("elim", vars);
  p.add_thread("T", {make_rule(BoolExpr::var(x), BoolExpr::var(x),
                               !BoolExpr::var(x), BoolExpr::any())});
  for (auto _ : state) {
    state.PauseTiming();
    CountEngine eng(p, {{var_bit(x), 32}, {0, (1 << 20) - 32}}, 1,
                    CountEngineMode::kSkip);
    state.ResumeTiming();
    // Run until only one X remains (31 effective interactions).
    while (eng.count_state(var_bit(x)) > 1) eng.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 31);
}
BENCHMARK(BM_CountEngineSkipAhead);

void BM_BatchEngineRound(benchmark::State& state) {
  // One sharded random-matching round of the phase clock at n = 2^18; the
  // Arg is the thread count. Items = interactions (= matched pairs).
  auto vars = make_var_space();
  const Protocol p = make_phase_clock_protocol(vars);
  const std::size_t n = 1 << 18;
  BatchEngine::Params params;
  params.threads = static_cast<unsigned>(state.range(0));
  BatchEngine eng(p, phase_clock_initial_states(n, 1 << 8, *vars), 1, params);
  eng.run_rounds(4.0);  // populate the per-shard caches
  const std::uint64_t before = eng.interactions();
  for (auto _ : state) eng.step();
  state.SetItemsProcessed(
      static_cast<std::int64_t>(eng.interactions() - before));
  state.counters["shards"] = static_cast<double>(eng.shards());
}
BENCHMARK(BM_BatchEngineRound)->Arg(1)->Arg(2)->Arg(4);

void BM_OscillatorKernelCount(benchmark::State& state) {
  // The validated P_o (pair kernel) on species counts at n = 2^20 with 2^6
  // X agents — T3's sequential backend. Items = interactions.
  auto vars = make_var_space();
  const Protocol p = make_oscillator_kernel_protocol(vars);
  CountEngine eng(p, oscillator_uniform_counts(1 << 20, 1 << 6, *vars), 1);
  const std::uint64_t before = eng.interactions();
  for (auto _ : state) eng.step();
  state.SetItemsProcessed(
      static_cast<std::int64_t>(eng.interactions() - before));
}
BENCHMARK(BM_OscillatorKernelCount);

void BM_ClockHierarchyStep(benchmark::State& state) {
  HierarchyParams hp;
  hp.levels = static_cast<int>(state.range(0));
  const Protocol fixed_x = make_fixed_x_protocol(make_var_space());
  ClockHierarchy h(1 << 14, hp, fixed_x, x_counts(1 << 14, 16, *fixed_x.vars()),
                   1);
  for (auto _ : state) h.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClockHierarchyStep)->Arg(1)->Arg(2)->Arg(3);

void BM_GuardCompilation(benchmark::State& state) {
  auto vars = make_var_space();
  std::vector<BoolExpr> exprs;
  for (int i = 0; i < 6; ++i)
    exprs.push_back(BoolExpr::var(vars->intern("V" + std::to_string(i))));
  const BoolExpr formula =
      (exprs[0] && !exprs[1]) || (exprs[2] && exprs[3] && !exprs[4]) ||
      !exprs[5];
  for (auto _ : state) {
    Guard g(formula);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GuardCompilation);

// Console output plus a BenchRecord per run for the JSON export. The
// items_per_second counter (set via SetItemsProcessed; every benchmark above
// counts one interaction per item) arrives already finalized as a rate.
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      BenchRecord rec;
      rec.name = run.benchmark_name();
      rec.wall_seconds = run.real_accumulated_time;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        rec.interactions_per_sec = static_cast<double>(it->second);
        rec.effective_interactions_per_sec = rec.interactions_per_sec;
      }
      rec.extra.emplace_back("iterations",
                             static_cast<double>(run.iterations));
      records.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<BenchRecord> records;
};

// Companion TELEMETRY export: the google-benchmark rates as flat counters
// plus an engine counter snapshot from one short instrumented run (approx
// majority to consensus — exercises the cache, convergence detection, and
// the event trace without perturbing the timed loops above).
void export_telemetry(const std::vector<BenchRecord>& records) {
  Telemetry telemetry("bench_t15_engine");
  for (const BenchRecord& rec : records)
    telemetry.add_counter(rec.name + ".ips", rec.interactions_per_sec);

  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  const State a = var_bit(*vars->find("BA"));
  const State b = var_bit(*vars->find("BB"));
  std::vector<State> init(1 << 12);
  for (std::size_t i = 0; i < init.size(); ++i)
    init[i] = i < init.size() * 5 / 8 ? a : b;
  Engine eng(p, std::move(init), /*seed=*/0x715);
  EventTrace trace;
  eng.set_event_trace(&trace);
  eng.run_until(
      [&](const SimBackend&) {
        return eng.count_matching(BoolExpr::var(*vars->find("BA"))) == 0 ||
               eng.count_matching(BoolExpr::var(*vars->find("BB"))) == 0;
      },
      /*max_rounds=*/400.0);
  telemetry.add_counters(eng.counters(), "probe.");
  telemetry.add_events(trace);
  telemetry.capture_profile();

  const std::string path =
      telemetry_json_path("TELEMETRY_t15_engine.json");
  if (telemetry.write_json(path))
    std::printf("wrote %s (%zu counters)\n", path.c_str(),
                telemetry.counters().size());
}

}  // namespace
}  // namespace popproto

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  popproto::JsonExportReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  popproto::write_bench_json(popproto::bench_json_path("BENCH_engine.json"),
                             "bench_t15_engine", reporter.records);
  popproto::export_telemetry(reporter.records);
  return 0;
}
