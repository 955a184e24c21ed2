// The sweep manifest: a journaled job table that makes sweeps resumable
// (DESIGN.md §12).
//
// One manifest file per sweep directory records the spec the grid was
// expanded from (verbatim, so `popsweep resume --dir D` needs nothing but
// the directory) and one row per job: state machine position, attempt
// count, and — for completed jobs — the job's result fields. Every
// mutation is journaled by atomically rewriting the whole file
// (tmp + rename, the persist/checkpoint.cpp idiom): a SIGKILL at any
// instant leaves either the previous or the new complete manifest, never a
// torn one. The file ends with an `end <crc32>` trailer over everything
// before it, so a truncated or bit-flipped manifest is *rejected* at load
// (ManifestError) instead of silently resuming a half-read row set.
//
// Job state machine:
//
//   pending ──spawn──▶ running ──collect──▶ done      (terminal)
//      ▲                  │ │
//      │                  │ └──worker exit != 0──▶ failed
//      └──resume──────────┘        (resume retries failed and running)
//
// `running` rows persist across a crash of the orchestrator; on resume they
// are re-dispatched and their worker resumes from the job's own
// AutoCheckpoint (or from scratch when the checkpoint fails validation —
// sweep/runner.cpp). Result fields that must survive bit-identically
// (rounds, converged_at) are stored as C99 hexfloats, which round-trip
// IEEE-754 doubles exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/spec.hpp"

namespace popproto {

/// Thrown on unreadable, truncated, or corrupt manifest files.
struct ManifestError {
  std::string message;
};

enum class JobState { kPending, kRunning, kDone, kFailed };

const char* job_state_name(JobState s);

/// One job's outcome. The deterministic fields (everything except
/// wall_seconds / resumed / checkpoint_rejected) are a pure function of the
/// job spec — bench_sweep and the CI smoke assert they are bit-identical
/// between an uninterrupted sweep and a SIGKILLed + resumed one.
struct JobResult {
  double rounds = 0.0;
  std::uint64_t interactions = 0;
  bool converged = false;
  double converged_at = 0.0;
  /// crc32 over the backend's final (state, count) species table, the cheap
  /// bit-identity witness for the final configuration.
  std::uint64_t species_crc = 0;
  std::uint64_t active_n = 0;
  std::uint64_t effective_steps = 0;
  // -- measurement-only (excluded from row-set identity) -------------------
  double wall_seconds = 0.0;
  bool resumed = false;             // picked up a valid checkpoint
  bool checkpoint_rejected = false; // discarded an invalid one, ran fresh
};

/// True when the deterministic result fields match bit-for-bit.
bool deterministic_fields_equal(const JobResult& a, const JobResult& b);

struct JobRow {
  JobSpec spec;
  JobState state = JobState::kPending;
  std::uint32_t attempts = 0;
  JobResult result;  // valid when state == kDone
};

class Manifest {
 public:
  /// Expand `spec`'s grid into pending rows.
  static Manifest create(const SweepSpec& spec);

  /// Parse `path`. Throws ManifestError when the file is missing,
  /// truncated (no intact `end` trailer), fails the crc, or carries rows
  /// that disagree with the embedded spec's grid expansion.
  static Manifest load(const std::string& path);

  /// Journal the current table: write `path + ".tmp"`, fsync-free flush,
  /// rename over `path`. Throws ManifestError on IO failure.
  void save(const std::string& path) const;

  const SweepSpec& spec() const { return spec_; }
  std::uint32_t spec_crc() const { return spec_crc_; }
  std::vector<JobRow>& jobs() { return jobs_; }
  const std::vector<JobRow>& jobs() const { return jobs_; }
  JobRow* find(const std::string& id);

  std::size_t count(JobState s) const;

 private:
  SweepSpec spec_;
  std::uint32_t spec_crc_ = 0;
  std::vector<JobRow> jobs_;
};

// -- Result hand-off files ---------------------------------------------------
// A worker process reports its JobResult by atomically writing
// `<dir>/<job>.result` (same trailer-checked format family); the
// orchestrator collects it into the manifest and unlinks it. A result file
// that survives an orchestrator crash is collected on resume without
// re-running the job.

/// Atomic tmp+rename write. Throws ManifestError on IO failure.
void write_result_file(const std::string& path, const std::string& job_id,
                       const JobResult& result);

/// Parse a result file. Returns false when the file does not exist; throws
/// ManifestError on a truncated/corrupt one or a job-id mismatch.
bool read_result_file(const std::string& path, const std::string& job_id,
                      JobResult* out);

}  // namespace popproto
