// Versioned, checksummed binary snapshot container (DESIGN.md §10).
//
// Every durable artifact the simulator writes — engine snapshots for every
// SimBackend, FaultInjector schedule state, periodic auto-checkpoints —
// shares one container format:
//
//   [u32 magic "PPS1"] [u32 format version]
//   [section]*                  each: u32 tag, u64 payload length,
//                               u32 CRC32(payload), payload bytes
//   [kEnd section, length 0]
//
// The first section is always kMeta: producer name (the backend_name() of
// the engine that wrote it, or "fault_injector"), the protocol fingerprint,
// and the population size. A reader validates magic, version, producer and
// fingerprint before looking at anything else, and every section's CRC
// before handing its payload out. It then reads the sections in exactly the
// order their writer wrote them: a section missing, repeated, reordered or
// foreign to the producer is refused, and so is a payload with bytes past
// the fields its reader takes. So a truncated file, a flipped bit, a
// snapshot from the wrong substrate, or one taken under a different
// protocol all fail with a typed SnapshotError and the restoring engine is
// never touched (engines parse into staging storage and commit only after
// the whole stream validated; see SimBackend::restore).
//
// Versioning/compat policy: the format version is bumped on any layout
// change; readers reject versions they do not know (kBadVersion) rather
// than guessing. Within a version, section payloads are fixed little-endian
// layouts (support/serialize.hpp) — there is no schema negotiation, because
// a snapshot's purpose is bit-exact resumption on the same code, not
// long-term archival interchange.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "observe/counters.hpp"
#include "support/serialize.hpp"

namespace popproto {

class Protocol;

inline constexpr std::uint32_t kSnapshotMagic = 0x31535050u;  // "PPS1"
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Section tags. Tag values are part of the on-disk format — append, never
/// renumber.
enum class SnapshotSection : std::uint32_t {
  kEnd = 0,         // terminator (length 0)
  kMeta = 1,        // producer name, protocol fingerprint, population size
  kCore = 2,        // time base, flags, engine-specific config
  kPopulation = 3,  // species / per-agent states, churn state
  kRngStreams = 4,  // every RNG stream's full 256-bit state
  kCounters = 5,    // EngineCounters snapshot
  kFaultPlan = 6,   // serialized FaultPlan events
  kFaultState = 7,  // FaultInjector firing state (fired/window/log/rng)
};

/// Order- and content-sensitive fingerprint of a protocol: name, thread
/// structure, every rule's guards (compiled minterms), labels and weighted
/// outcome masks, and each pair-kernel thread's signature (its parameters).
/// Two protocols with the same fingerprint drive a restored
/// trajectory identically; a mismatch means the snapshot is meaningless for
/// this engine and restore refuses it (kBadFingerprint).
std::uint64_t protocol_fingerprint(const Protocol& protocol);

/// Streaming writer for the container. Usage:
///   SnapshotWriter w(out, "agent", fingerprint, n);
///   w.section(SnapshotSection::kCore, core_payload);
///   ...
///   w.finish();
class SnapshotWriter {
 public:
  /// Writes the header and kMeta section immediately; throws
  /// SnapshotError{kIo} when the stream rejects the write.
  SnapshotWriter(std::ostream& out, const std::string& producer,
                 std::uint64_t fingerprint, std::uint64_t population_n);

  /// One section whose payload is `parts` back to back. Each part is
  /// checksummed (crc32_extend) and written where it lies, so a payload
  /// held in several buffers is never joined into one; the bytes are those
  /// of the joined payload.
  void section(SnapshotSection tag,
               std::initializer_list<std::string_view> parts);
  void section(SnapshotSection tag, const std::string& payload) {
    section(tag, {std::string_view(payload)});
  }
  /// Write the kEnd terminator and flush. No sections may follow.
  void finish();

  std::uint64_t bytes_written() const { return bytes_; }

 private:
  std::ostream& out_;
  std::uint64_t bytes_ = 0;
  bool finished_ = false;
};

/// Validating reader. The constructor consumes the header and kMeta section
/// and cross-checks producer/fingerprint. The caller then asks for each
/// section in the order its writer wrote them, one section() call apiece,
/// and ends with finish(). Each payload must be read exactly: bytes left
/// over past the fields its reader took are refused (kCorrupt) when the
/// next section or the terminator is asked for. All failures throw
/// SnapshotError.
class SnapshotReader {
 public:
  SnapshotReader(std::istream& in, const std::string& expected_producer,
                 std::uint64_t expected_fingerprint);

  /// A reader over the payload of the next section, which must be tagged
  /// `expected`; its CRC is checked first. The terminator in its place
  /// throws kTruncated (the container lacks a section), any other tag
  /// kCorrupt (a section repeated, out of order or foreign to the producer).
  /// The reader is valid until the next section() or finish() call, which
  /// requires it to be at its end.
  BinReader& section(SnapshotSection expected);
  /// Consume the kEnd terminator, which must come next (kCorrupt if another
  /// section does). The stream is left just past it: an AutoCheckpoint file
  /// holds the injector's container right behind the engine's.
  void finish();

  /// The population size kMeta recorded.
  std::uint64_t population_n() const { return population_n_; }

 private:
  /// Refuse the current payload unless it was read to its end, then read
  /// the next raw section into payload_ (CRC verified) and return its tag.
  std::uint32_t read_section();

  std::istream& in_;
  std::uint64_t population_n_ = 0;
  std::string payload_;
  BinReader payload_reader_{nullptr, 0};
};

// -- Shared section payload helpers -----------------------------------------

/// EngineCounters round-trip (kCounters payload): every field, in the order
/// EngineCounters::fields() lists them.
void serialize_counters(BinWriter& w, const EngineCounters& c);
EngineCounters deserialize_counters(BinReader& r);

/// One RNG stream's full state (Rng::state), as four words. Reading refuses
/// the all-zero state, xoshiro256**'s fixed point, as kCorrupt.
using RngState = std::array<std::uint64_t, 4>;
void serialize_rng_state(BinWriter& w, const RngState& state);
RngState deserialize_rng_state(BinReader& r);

/// The kRngStreams payload: the stream count, then each stream's state.
/// Reading requires exactly `expected` streams; another count is a
/// different engine configuration (kConfigMismatch).
void serialize_rng_streams(BinWriter& w, const std::vector<RngState>& streams);
std::vector<RngState> deserialize_rng_streams(BinReader& r,
                                              std::size_t expected);

}  // namespace popproto
