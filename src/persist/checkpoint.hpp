// Periodic atomic auto-checkpointing for crash-tolerant runs (DESIGN.md
// §10).
//
// AutoCheckpoint wraps one backend (plus, optionally, its FaultInjector)
// and writes a checkpoint file every `every_rounds` of parallel time. The
// write is atomic at the filesystem level: the snapshot streams into
// `<path>.tmp` and is renamed over `path` only after a successful flush, so
// a process killed mid-write (bench/bench_resume.cpp SIGKILLs children on
// purpose) always leaves either the previous complete checkpoint or the new
// complete checkpoint — never a torn file. A torn tmp file that survives a
// crash is ignored and overwritten by the next writer.
//
// File layout: [u8 has_injector] [engine snapshot container]
// [injector snapshot container when has_injector] — two back-to-back
// snapshot containers (persist/snapshot.hpp); each parser stops at its own
// kEnd terminator, so they concatenate cleanly.
#pragma once

#include <cstdint>
#include <string>

namespace popproto {

class SimBackend;
class FaultInjector;

class AutoCheckpoint {
 public:
  struct Options {
    /// Parallel time between checkpoints.
    double every_rounds = 64.0;
    /// Checkpoint file path (the atomic staging file is path + ".tmp").
    std::string path;
  };

  /// Neither backend nor injector is owned; both must outlive this object.
  /// Pass the injector that is attached to `backend` (or nullptr) so the
  /// remaining fault schedule rides along with each checkpoint.
  AutoCheckpoint(SimBackend& backend, Options options,
                 FaultInjector* injector = nullptr);

  /// Poll from a round hook or driver loop: writes a checkpoint when at
  /// least every_rounds of parallel time accumulated since the last one
  /// (or since construction). Returns true when a checkpoint was written.
  bool tick();

  /// Write a checkpoint unconditionally (atomic tmp + rename). Throws
  /// SnapshotError{kIo} when the file cannot be written.
  void write_now();

  std::uint64_t checkpoints_written() const { return written_; }

  /// Restore `backend` (and the fault schedule into `injector`, when the
  /// checkpoint carries one) from `path`. Returns false when the file does
  /// not exist — callers treat that as "start fresh". Throws SnapshotError
  /// on malformed content (backend/injector untouched), and with
  /// kConfigMismatch when the checkpoint carries fault state but no
  /// injector was supplied.
  static bool load(const std::string& path, SimBackend& backend,
                   FaultInjector* injector = nullptr);

 private:
  SimBackend& backend_;
  FaultInjector* injector_;
  Options options_;
  double last_rounds_;
  std::uint64_t written_ = 0;
};

}  // namespace popproto
