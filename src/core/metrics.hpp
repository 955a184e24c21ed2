// Time-series recording for experiments: per-variable counts sampled on a
// fixed parallel-time grid.
#pragma once

#include <cstdint>
#include <vector>

#include "core/population.hpp"

namespace popproto {

struct TracePoint {
  double round = 0.0;
  std::vector<std::uint64_t> counts;
};

/// Records counts of a fixed set of variables on the fixed parallel-time
/// grid {interval, 2·interval, ...} anchored at 0: each grid point is
/// served by the first observation at or after it, so sample spacing stays
/// `interval` on average regardless of how irregularly the caller observes
/// (round hooks, skip-ahead jumps). Call record() from any simulation loop:
/// between run_rounds calls, or from an InjectionHook::on_round.
class VarTrace {
 public:
  VarTrace(std::vector<VarId> vars, double interval_rounds = 1.0);

  void record(double round, const AgentPopulation& pop);
  /// Record from raw counts (for count-engine / clock-machine callers).
  void record_counts(double round, std::vector<std::uint64_t> counts);

  /// Drop all points and re-anchor the grid at 0, so one trace can be
  /// reused across seeded trials without stale due-times leaking over.
  void reset();

  const std::vector<TracePoint>& points() const { return points_; }
  const std::vector<VarId>& vars() const { return vars_; }

  /// Min/max of one tracked variable across the recorded window.
  std::pair<std::uint64_t, std::uint64_t> range(std::size_t var_index) const;

 private:
  /// Move next_due_ to the first grid point strictly after `round`.
  void advance_grid(double round);

  std::vector<VarId> vars_;
  double interval_;
  double next_due_ = 0.0;
  std::vector<TracePoint> points_;
};

/// Count zero-crossings of (count - threshold) in a trace column: used to
/// count oscillation periods.
std::size_t count_upward_crossings(const std::vector<TracePoint>& points,
                                   std::size_t var_index, double threshold);

}  // namespace popproto
