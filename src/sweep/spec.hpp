// Declarative parameter-sweep grid specs (DESIGN.md §12).
//
// A sweep spec is a line-oriented text file naming the axes of a
// (protocol × backend × n × seed [× threads]) grid plus the per-job drive
// configuration: the parallel-time horizon, the checkpoint cadence, an
// optional run-until predicate, and an optional fault plan replayed
// identically in every job. Axis keys list one or more values; the grid is
// their cartesian product, expanded in spec order (protocol outermost,
// threads — when present — innermost) into jobs with deterministic ids — the id, not the array
// position, is the resume key, so editing a spec invalidates the manifest
// (spec_crc) rather than silently renumbering half-finished work.
//
//   # popsweep grid: 2 protocols x 2 backends x 2 n x 2 seeds = 16 jobs
//   protocol approx_majority phase_clock
//   backend agent count
//   n 4096 65536
//   seed 1 2
//   max_rounds 64
//   checkpoint_every 8
//   until BA == all              # optional: count_matching(expr) <cmp> rhs
//   fault corrupt 12 0.25        # optional, repeatable
//
// Keys: `protocol`, `backend`, `n`, `seed` (required, ≥1 value each);
// `threads` (optional structural-parallelism axis, see
// make_backend_instance); `max_rounds` (required finite horizon, same
// absolute semantics as SimBackend::run_until); `checkpoint_every`
// (parallel time between AutoCheckpoint writes, default 16); `until <expr>
// [<cmp> <count>|all]` (CountPredicate::parse in core/expr.hpp, the parser
// popprotod's `run-until` uses; a malformed expression fails the spec, and
// its variable names are checked per protocol at job start); `fault
// crash|corrupt <round> <fraction>`, `fault rejoin <round>
// all|<fraction>`, `fault dropout <from> <until> <p>` (repeatable;
// FaultPlan::parse_event in faults/fault_plan.hpp, the parser popprotod's
// `inject` uses). `#` starts a comment; blank lines are ignored.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/expr.hpp"
#include "faults/fault_plan.hpp"

namespace popproto {

/// Thrown on malformed spec text; `message` names the offending line.
struct SpecError {
  std::string message;
};

struct SweepSpec {
  std::vector<std::string> protocols;
  std::vector<std::string> backends;
  std::vector<std::uint64_t> ns;
  std::vector<std::uint64_t> seeds;
  /// Structural-parallelism axis; empty = not an axis (substrate default 0).
  std::vector<unsigned> threads;
  double max_rounds = 0.0;
  double checkpoint_every = 16.0;
  /// Optional run-until predicate, checked after every unit round.
  std::optional<CountPredicate> until;
  FaultPlan faults;
  /// The exact text the spec was parsed from; crc32(canonical_text) pins a
  /// manifest to its spec.
  std::string text;
};

/// One expanded grid point. `threads` is 0 when the spec has no threads
/// axis. The id is deterministic and filesystem-safe:
/// `<protocol>-<backend>-n<n>-s<seed>[-t<threads>]`.
struct JobSpec {
  std::string id;
  std::string protocol;
  std::string backend;
  std::uint64_t n = 0;
  std::uint64_t seed = 0;
  unsigned threads = 0;
};

/// Parse a spec from text. Throws SpecError on unknown keys, missing
/// required keys, unparsable or out-of-range values, and duplicate axis
/// values (which would expand to colliding job ids).
SweepSpec parse_sweep_spec(const std::string& text);

/// Read `path` and parse it. Throws SpecError (kIo-style message) when the
/// file cannot be read.
SweepSpec load_sweep_spec(const std::string& path);

/// Cartesian-product expansion in spec order: protocol, backend, n, seed,
/// threads (innermost, when present).
std::vector<JobSpec> expand_grid(const SweepSpec& spec);

}  // namespace popproto
