#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "clocks/oscillator.hpp"
#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/engine.hpp"

namespace popproto {
namespace {

// The kernel P_o from the uniform start: the sequential scheduler on
// species counts, the matching scheduler on BatchEngine with one thread (an
// exact uniform matching per round).
class OscRun {
 public:
  OscRun(std::uint64_t n, std::uint64_t x, std::uint64_t seed,
         bool matching = false)
      : vars_(make_var_space()),
        proto_(make_oscillator_kernel_protocol(vars_)),
        n_(n),
        x_(x) {
    const auto init = oscillator_uniform_counts(n, x, *vars_);
    if (matching) {
      BatchEngine::Params params;
      params.threads = 1;
      eng_ = std::make_unique<BatchEngine>(proto_, init, seed, params);
    } else {
      eng_ = std::make_unique<CountEngine>(proto_, init, seed);
    }
    observe();
  }

  void run_rounds(double rounds) {
    eng_->run_rounds(rounds);
    observe();
  }
  double rounds() const { return eng_->rounds(); }
  std::uint64_t n() const { return n_; }
  std::uint64_t x_count() const { return x_; }
  std::uint64_t species(int i) const {
    return sp_[static_cast<std::size_t>(i)];
  }
  std::uint64_t a_min() const { return *std::min_element(sp_.begin(), sp_.end()); }
  std::uint64_t a_max() const { return *std::max_element(sp_.begin(), sp_.end()); }
  int dominant() const {
    return static_cast<int>(std::max_element(sp_.begin(), sp_.end()) -
                            sp_.begin());
  }

 private:
  void observe() { sp_ = oscillator_species_counts(*eng_, *vars_); }

  VarSpacePtr vars_;
  Protocol proto_;
  std::uint64_t n_;
  std::uint64_t x_;
  std::unique_ptr<SimBackend> eng_;
  std::array<std::uint64_t, 3> sp_{};
};

double escape_time(std::uint64_t n, std::uint64_t x, std::uint64_t seed,
                   double eps = 0.5) {
  OscRun sim(n, x, seed);
  const double threshold = std::pow(static_cast<double>(n), 1.0 - eps / 2.0);
  while (sim.rounds() < 5000.0) {
    if (static_cast<double>(sim.a_min()) < threshold) return sim.rounds();
    sim.run_rounds(1.0);
  }
  return -1.0;
}

TEST(Oscillator, EscapesCentralRegionQuickly) {
  // Thm 5.1(i): from a uniform configuration, a_min < n^{1-eps/2} after
  // O(log n) rounds.
  const double t = escape_time(30000, 30, 7);
  ASSERT_GT(t, 0.0);
  EXPECT_LT(t, 12.0 * std::log(30000.0));
}

TEST(Oscillator, EscapeScalesLogarithmically) {
  // Escape at n and n^2 should differ by roughly 2x, not n-fold.
  double t_small = 0, t_big = 0;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    t_small += escape_time(1000, 5, s);
    t_big += escape_time(1000000, 50, s);
  }
  ASSERT_GT(t_small, 0.0);
  ASSERT_GT(t_big, 0.0);
  EXPECT_LT(t_big / t_small, 6.0);  // Θ(log n): ratio ≈ 2
}

TEST(Oscillator, DominanceRotatesCyclically) {
  OscRun sim(30000, 30, 11);
  sim.run_rounds(120.0);  // past escape
  int dominant = sim.dominant();
  int switches = 0, cyclic = 0;
  while (sim.rounds() < 500.0) {
    sim.run_rounds(0.25);
    if (sim.a_max() > sim.n() - sim.n() / 10) {
      const int d = sim.dominant();
      if (d != dominant) {
        ++switches;
        if (d == (dominant + 1) % 3) ++cyclic;
        dominant = d;
      }
    }
  }
  ASSERT_GE(switches, 10);
  // Thm 5.1(ii): the next dominant species follows cyclic order w.h.p.
  EXPECT_GE(cyclic, switches - 1);
}

TEST(Oscillator, PeriodIsLogarithmic) {
  // Period(n=10^6) / Period(n=10^3) should be ~2 (≈ log ratio), not 1000.
  auto period = [](std::uint64_t n, std::uint64_t x) {
    OscRun sim(n, x, 13);
    sim.run_rounds(120.0);
    int dominant = sim.dominant();
    int switches = 0;
    const double t0 = sim.rounds();
    while (sim.rounds() < t0 + 400.0) {
      sim.run_rounds(0.25);
      if (sim.a_max() > n - n / 10) {
        const int d = sim.dominant();
        if (d != dominant) {
          ++switches;
          dominant = d;
        }
      }
    }
    return switches > 0 ? 3.0 * 400.0 / switches : 1e9;
  };
  const double p_small = period(1000, 5);
  const double p_big = period(1000000, 50);
  EXPECT_LT(p_big, 3.0 * p_small);
  EXPECT_GT(p_big, p_small * 0.8);
}

TEST(Oscillator, MinorityDipsScaleWithX) {
  // During oscillation the minority dips to Θ(#X)-ish levels, far below n.
  OscRun sim(100000, 100, 17);
  sim.run_rounds(150.0);
  std::uint64_t min_seen = sim.n();
  while (sim.rounds() < 400.0) {
    sim.run_rounds(0.25);
    min_seen = std::min(min_seen, sim.a_min());
  }
  EXPECT_LT(min_seen, 10000u);  // far below n/3
}

TEST(Oscillator, PeaksReachAlmostWholePopulation) {
  OscRun sim(100000, 100, 19);
  sim.run_rounds(150.0);
  std::uint64_t max_seen = 0;
  while (sim.rounds() < 400.0) {
    sim.run_rounds(0.25);
    max_seen = std::max(max_seen, sim.a_max());
  }
  EXPECT_GT(max_seen, sim.n() - sim.n() / 20);
}

TEST(Oscillator, NoExtinctionWhileXPositive) {
  OscRun sim(10000, 10, 23);
  double worst = 1e18;
  while (sim.rounds() < 600.0) {
    sim.run_rounds(1.0);
    // X re-seeds species; none can stay extinct for long. Check that the
    // sum never loses a species permanently by sampling.
    worst = std::min(worst, static_cast<double>(sim.species(0) +
                                                sim.species(1) +
                                                sim.species(2)));
  }
  EXPECT_EQ(static_cast<std::uint64_t>(worst), sim.n() - sim.x_count());
}

TEST(Oscillator, OscillatesUnderMatchingScheduler) {
  // Thm 5.1 holds for the random-matching scheduler too.
  OscRun sim(30000, 30, 29, /*matching=*/true);
  sim.run_rounds(150.0);
  int dominant = sim.dominant();
  int switches = 0;
  while (sim.rounds() < 500.0) {
    sim.run_rounds(1.0);
    if (sim.a_max() > sim.n() - sim.n() / 10) {
      const int d = sim.dominant();
      if (d != dominant) {
        ++switches;
        dominant = d;
      }
    }
  }
  EXPECT_GE(switches, 8);
}

TEST(Oscillator, BitmaskProtocolOscillatesToo) {
  // The rule-sampling bitmask encoding realizes the same dynamics, slowed
  // by the uniform rule choice (1 of 16 rules per interaction).
  auto vars = make_var_space();
  const Protocol proto = make_oscillator_protocol(vars);
  const std::size_t n = 4000;
  std::vector<State> init(n);
  const VarId b0 = *vars->find(kOscBit0);
  const VarId b1 = *vars->find(kOscBit1);
  const VarId x = *vars->find(kOscX);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < 8) {
      init[i] = var_bit(x);
    } else {
      const int sp = static_cast<int>(i % 3);
      init[i] = (sp & 1 ? var_bit(b0) : 0) | (sp & 2 ? var_bit(b1) : 0);
    }
  }
  Engine eng(proto, std::move(init), 31);
  auto species_count = [&](int sp) {
    BoolExpr e0 = (sp & 1) ? BoolExpr::var(b0) : !BoolExpr::var(b0);
    BoolExpr e1 = (sp & 2) ? BoolExpr::var(b1) : !BoolExpr::var(b1);
    return eng.count_matching(!BoolExpr::var(x) && e0 && e1);
  };
  // Expect a dominance event (>80% of species agents) within the slowed
  // escape horizon.
  bool dominated = false;
  while (eng.rounds() < 16 * 12 * std::log(static_cast<double>(n))) {
    eng.run_rounds(25.0);
    for (int sp = 0; sp < 3; ++sp)
      if (species_count(sp) > (n * 8) / 10) dominated = true;
    if (dominated) break;
  }
  EXPECT_TRUE(dominated);
}

TEST(Oscillator, SpeciesOfDecodesBitmask) {
  auto vars = make_var_space();
  make_oscillator_protocol(vars);
  const VarId b0 = *vars->find(kOscBit0);
  const VarId b1 = *vars->find(kOscBit1);
  const VarId x = *vars->find(kOscX);
  EXPECT_EQ(oscillator_species_of(0, *vars), 0);
  EXPECT_EQ(oscillator_species_of(var_bit(b0), *vars), 1);
  EXPECT_EQ(oscillator_species_of(var_bit(b1), *vars), 2);
  EXPECT_EQ(oscillator_species_of(var_bit(x), *vars), -1);
}

TEST(Oscillator, InteractSemantics) {
  Rng rng(1);
  OscillatorParams prm;
  // Strong predator always converts its prey (to the weak level).
  OscAgent pred{1, true};
  OscAgent prey{0, false};
  EXPECT_TRUE(oscillator_interact(&pred, false, prey, rng, prm));
  EXPECT_EQ(prey.species, 1);
  EXPECT_FALSE(prey.strong);
  // Same species activates the responder.
  OscAgent peer{1, false};
  EXPECT_TRUE(oscillator_interact(&pred, false, peer, rng, prm));
  EXPECT_TRUE(peer.strong);
  // Different species (non-prey) deactivates without conversion: species 0
  // preys on 2, so a species-1 responder is only deactivated.
  OscAgent other{1, true};
  OscAgent watcher{0, false};
  EXPECT_TRUE(oscillator_interact(&watcher, false, other, rng, prm));
  EXPECT_FALSE(other.strong);
  EXPECT_EQ(other.species, 1);
  // X converts to a uniform species at weak level.
  OscAgent victim{2, true};
  EXPECT_TRUE(oscillator_interact(nullptr, true, victim, rng, prm));
  EXPECT_FALSE(victim.strong);
}

}  // namespace
}  // namespace popproto
