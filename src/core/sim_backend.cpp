#include "core/sim_backend.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace popproto {

std::optional<double> SimBackend::run_until(const Predicate& predicate,
                                            double max_rounds,
                                            double check_interval) {
  POPPROTO_CHECK(check_interval > 0.0);
  if (predicate(*this)) {
    if (EventTrace* t = event_trace())
      t->push(EventKind::kConvergenceDetected, rounds());
    return rounds();
  }
  while (rounds() < max_rounds) {
    // Clamp the last interval to the horizon: the final predicate check
    // lands on the max_rounds boundary instead of overshooting by up to a
    // whole check_interval (which also mis-reported convergence times past
    // the caller's budget when check_interval > max_rounds).
    run_rounds(std::min(check_interval, max_rounds - rounds()));
    if (predicate(*this)) {
      if (EventTrace* t = event_trace())
        t->push(EventKind::kConvergenceDetected, rounds());
      return rounds();
    }
    if (quiescent()) return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace popproto
