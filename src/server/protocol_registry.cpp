#include "server/protocol_registry.hpp"

#include <algorithm>

#include "clocks/phase_clock.hpp"
#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/count_shard_engine.hpp"
#include "core/engine.hpp"
#include "protocols/baselines.hpp"
#include "support/check.hpp"

namespace popproto {
namespace {

std::unique_ptr<ProtocolInstance> build_phase_clock(std::uint64_t n) {
  auto inst = std::make_unique<ProtocolInstance>();
  inst->vars = make_var_space();
  inst->protocol =
      std::make_unique<Protocol>(make_phase_clock_protocol(inst->vars));
  // phase_clock_initial_states as counts, in its first-seen order: the x X
  // agents lead, then agent i >= x holds oscillator species i mod 3.
  const std::uint64_t x = n >> 6 ? n >> 6 : 1;
  inst->initial_counts = {{var_bit(*inst->vars->find(kOscX)), x}};
  for (std::uint64_t i = x; i < x + 3 && i < n; ++i)
    inst->initial_counts.emplace_back(
        oscillator_state(static_cast<int>(i % 3), 0, *inst->vars),
        (n - i + 2) / 3);
  return inst;
}

std::unique_ptr<ProtocolInstance> build_approx_majority(std::uint64_t n) {
  auto inst = std::make_unique<ProtocolInstance>();
  inst->vars = make_var_space();
  inst->protocol = std::make_unique<Protocol>(
      make_approximate_majority_protocol(inst->vars));
  const State a = var_bit(*inst->vars->find("BA"));
  const State b = var_bit(*inst->vars->find("BB"));
  // A leads with a Θ(n) gap so convergence (all-BA) is the expected outcome.
  const std::uint64_t na = n - n * 7 / 16;
  inst->initial_counts = {{a, na}, {b, n - na}};
  return inst;
}

std::unique_ptr<ProtocolInstance> build_dv12_majority(std::uint64_t n) {
  auto inst = std::make_unique<ProtocolInstance>();
  inst->vars = make_var_space();
  inst->protocol =
      std::make_unique<Protocol>(make_dv12_majority_protocol(inst->vars));
  const State strong = var_bit(*inst->vars->find("STRONG"));
  const State a = var_bit(*inst->vars->find("MA")) | strong;
  const State b = var_bit(*inst->vars->find("MB")) | strong;
  const std::uint64_t na = n - n * 7 / 16;
  inst->initial_counts = {{a, na}, {b, n - na}};
  return inst;
}

std::unique_ptr<ProtocolInstance> build_fratricide(std::uint64_t n) {
  auto inst = std::make_unique<ProtocolInstance>();
  inst->vars = make_var_space();
  inst->protocol =
      std::make_unique<Protocol>(make_fratricide_protocol(inst->vars));
  const State leader = var_bit(*inst->vars->find("L"));
  inst->initial_counts = {{leader, n}};
  return inst;
}

std::unique_ptr<ProtocolInstance> build_synthetic_coin(std::uint64_t n) {
  auto inst = std::make_unique<ProtocolInstance>();
  inst->vars = make_var_space();
  inst->protocol =
      std::make_unique<Protocol>(make_synthetic_coin_protocol(inst->vars));
  const State coin = var_bit(*inst->vars->find("COIN"));
  const std::uint64_t set = n / 2 ? n / 2 : 1;
  inst->initial_counts = {{coin, set}, {State{0}, n - set}};
  return inst;
}

using Builder = std::unique_ptr<ProtocolInstance> (*)(std::uint64_t);
struct NamedBuilder {
  const char* name;
  Builder build;
};

// Sorted by name (registered_protocol_names returns this order).
constexpr NamedBuilder kProtocols[] = {
    {"approx_majority", build_approx_majority},
    {"dv12_majority", build_dv12_majority},
    {"fratricide", build_fratricide},
    {"phase_clock", build_phase_clock},
    {"synthetic_coin", build_synthetic_coin},
};

std::vector<State> counts_to_states(
    const std::vector<std::pair<State, std::uint64_t>>& counts) {
  std::vector<State> states;
  std::uint64_t n = 0;
  for (const auto& [s, c] : counts) n += c;
  states.reserve(static_cast<std::size_t>(n));
  for (const auto& [s, c] : counts)
    states.insert(states.end(), static_cast<std::size_t>(c), s);
  return states;
}

}  // namespace

std::vector<std::string> registered_protocol_names() {
  std::vector<std::string> names;
  for (const auto& p : kProtocols) names.emplace_back(p.name);
  return names;
}

std::unique_ptr<ProtocolInstance> make_protocol_instance(
    const std::string& name, std::uint64_t n) {
  POPPROTO_CHECK(n >= 2);
  for (const auto& p : kProtocols) {
    if (name == p.name) {
      auto inst = p.build(n);
      inst->name = name;
      std::uint64_t total = 0;
      for (const auto& [s, c] : inst->initial_counts) total += c;
      POPPROTO_CHECK(total == n);
      return inst;
    }
  }
  return nullptr;
}

std::vector<std::string> registered_backend_names() {
  return {"agent", "batch", "count", "count_shard"};
}

std::unique_ptr<SimBackend> make_backend_instance(
    const std::string& backend, const ProtocolInstance& inst,
    std::uint64_t seed, unsigned parallelism) {
  if (backend == "agent")
    return std::make_unique<Engine>(*inst.protocol,
                                    counts_to_states(inst.initial_counts),
                                    seed);
  if (backend == "batch") {
    BatchEngine::Params params;  // shards picked by the engine when 0
    params.threads = parallelism;
    return std::make_unique<BatchEngine>(*inst.protocol, inst.initial_counts,
                                         seed, params);
  }
  if (backend == "count")
    return std::make_unique<CountEngine>(*inst.protocol, inst.initial_counts,
                                         seed);
  if (backend == "count_shard") {
    CountShardEngine::Params params;
    // Structural shard count; lowered automatically until min_shard holds.
    // Execution threads stay auto-probed (thread count is not part of the
    // count_shard trajectory identity, DESIGN.md §11).
    params.shards = parallelism == 0 ? 4 : parallelism;
    return std::make_unique<CountShardEngine>(*inst.protocol,
                                              inst.initial_counts, seed,
                                              params);
  }
  return nullptr;
}

}  // namespace popproto
