// Semi-linear predicate calculator (paper §6.3).
//
// Computes boolean population predicates — the full expressive power of
// constant-state population protocols [AAD+06] — by running the paper's
// combined fast/slow construction. Defaults demonstrate one predicate of
// each family; pass your own counts to experiment:
//
//   ./build/examples/predicate_calculator [#A] [#B] [n]
//
// Predicates evaluated on input classes A and B within a population of n:
//   P1:  #A >= #B                  (comparison; fast cancel/duplicate path)
//   P2:  2#A >= 3#B                (weighted comparison with shedding)
//   P3:  #A ≡ 2 (mod 3)            (remainder; slow stable path)
//   P4:  (#A >= #B) and (#A even)  (boolean combination)
#include <cstdio>
#include <cstdlib>

#include "lang/runtime.hpp"
#include "protocols/semilinear.hpp"

using namespace popproto;

namespace {

void evaluate(const char* name, const PredicateSpec& spec, std::size_t n,
              std::size_t count_a, std::size_t count_b, std::uint64_t seed) {
  auto vars = make_var_space();
  const SemilinearProtocol proto = make_semilinear_exact_protocol(vars, spec);
  const std::vector<std::uint64_t> counts = {count_a, count_b};
  const bool truth = spec.eval(counts);

  RuntimeOptions options;
  options.c = 2.5;
  options.seed = seed;
  FrameworkRuntime runtime(proto.program, proto.inputs(n, {count_a, count_b}),
                           options);
  const auto t = runtime.run_until(
      [&](const SimBackend& pop) {
        return semilinear_output_is(pop, *vars, truth);
      },
      spec.fast_path_available() ? 100 : 5000);
  std::printf("  %-28s = %-5s  (ground truth %-5s, %s path, %s)\n", name,
              t ? (truth ? "true" : "false") : "?",
              truth ? "true" : "false",
              spec.fast_path_available() ? "fast+slow" : "slow",
              t ? (std::string("converged at round ") +
                   std::to_string(static_cast<long long>(*t)))
                      .c_str()
                : "no convergence in budget");
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t count_a =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 130;
  const std::size_t count_b =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 120;
  const std::size_t n =
      argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 400;
  if (count_a + count_b > n) {
    std::fprintf(stderr, "need #A + #B <= n\n");
    return 1;
  }
  std::printf("population n=%zu with #A=%zu, #B=%zu\n", n, count_a, count_b);

  evaluate("#A >= #B", threshold_ge({1, -1}, 0), n, count_a, count_b, 101);
  evaluate("2#A >= 3#B", threshold_ge({2, -3}, 0), n, count_a, count_b, 103);
  evaluate("#A mod 3 == 2", mod_eq({1, 0}, 3, 2), n, count_a, count_b, 105);
  evaluate("(#A >= #B) and (#A even)",
           p_and(threshold_ge({1, -1}, 0), mod_eq({1, 0}, 2, 0)), n, count_a,
           count_b, 107);
  return 0;
}
