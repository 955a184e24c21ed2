#include "persist/snapshot.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "core/protocol.hpp"
#include "core/rule.hpp"

namespace popproto {

namespace {

// Sanity cap on one section's payload: a flipped length byte must fail as
// kCorrupt, not attempt a multi-gigabyte allocation. 1 GiB comfortably
// clears a 2^30-agent population section (8 GiB of states is split across
// engines long before this matters; today's largest sections are ~256 MiB).
constexpr std::uint64_t kMaxSectionBytes = std::uint64_t{1} << 30;

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void hash_guard(BinWriter& w, const Guard& g) {
  w.u8(g.always_true() ? 1 : 0);
  const auto terms = g.minterms();
  w.u64(terms.size());
  for (const auto& [mask, bits] : terms) {
    w.u64(mask);
    w.u64(bits);
  }
}

}  // namespace

std::uint64_t protocol_fingerprint(const Protocol& protocol) {
  std::string buf;
  BinWriter w(buf);
  w.str(protocol.name());
  w.u64(protocol.threads().size());
  for (const auto& thread : protocol.threads()) {
    w.str(thread.name);
    w.u64(thread.rules.size());
    for (const Rule& rule : thread.rules) {
      w.str(rule.label());
      hash_guard(w, rule.initiator_guard());
      hash_guard(w, rule.responder_guard());
      w.u64(rule.outcomes().size());
      for (const Outcome& o : rule.outcomes()) {
        w.f64(o.probability);
        w.u64(o.initiator.set_mask);
        w.u64(o.initiator.clear_mask);
        w.u64(o.responder.set_mask);
        w.u64(o.responder.clear_mask);
      }
    }
    // Only kernel threads add bytes, so rule protocols keep their values.
    if (thread.is_kernel()) w.str(thread.kernel.signature);
  }
  return fnv1a64(buf);
}

// -- SnapshotWriter ----------------------------------------------------------

SnapshotWriter::SnapshotWriter(std::ostream& out, const std::string& producer,
                               std::uint64_t fingerprint,
                               std::uint64_t population_n)
    : out_(out) {
  std::string header;
  BinWriter w(header);
  w.u32(kSnapshotMagic);
  w.u32(kSnapshotVersion);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  bytes_ += header.size();

  std::string meta;
  BinWriter m(meta);
  m.str(producer);
  m.u64(fingerprint);
  m.u64(population_n);
  section(SnapshotSection::kMeta, meta);
}

void SnapshotWriter::section(SnapshotSection tag,
                             std::initializer_list<std::string_view> parts) {
  POPPROTO_CHECK_MSG(!finished_, "section() after finish()");
  std::uint64_t len = 0;
  std::uint32_t crc = 0;
  for (const std::string_view part : parts) {
    len += part.size();
    crc = crc32_extend(crc, part.data(), part.size());
  }
  std::string head;
  BinWriter w(head);
  w.u32(static_cast<std::uint32_t>(tag));
  w.u64(len);
  w.u32(crc);
  out_.write(head.data(), static_cast<std::streamsize>(head.size()));
  for (const std::string_view part : parts)
    if (!part.empty())  // an empty vector's data() may be null
      out_.write(part.data(), static_cast<std::streamsize>(part.size()));
  if (!out_)
    throw SnapshotError(SnapshotErrc::kIo, "snapshot stream write failed");
  bytes_ += head.size() + len;
}

void SnapshotWriter::finish() {
  section(SnapshotSection::kEnd, "");
  finished_ = true;
  out_.flush();
  if (!out_)
    throw SnapshotError(SnapshotErrc::kIo, "snapshot stream flush failed");
}

// -- SnapshotReader ----------------------------------------------------------

SnapshotReader::SnapshotReader(std::istream& in,
                               const std::string& expected_producer,
                               std::uint64_t expected_fingerprint)
    : in_(in) {
  char raw[8];
  in_.read(raw, sizeof raw);
  if (in_.gcount() != sizeof raw)
    throw SnapshotError(SnapshotErrc::kTruncated, "header missing");
  BinReader r(raw, sizeof raw);
  if (r.u32() != kSnapshotMagic)
    throw SnapshotError(SnapshotErrc::kBadMagic, "not a popproto snapshot");
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion)
    throw SnapshotError(SnapshotErrc::kBadVersion,
                        "format version " + std::to_string(version) +
                            " (this build reads " +
                            std::to_string(kSnapshotVersion) + ")");

  BinReader& meta = section(SnapshotSection::kMeta);
  const std::string producer = meta.str();
  const std::uint64_t fingerprint = meta.u64();
  population_n_ = meta.u64();
  if (producer != expected_producer)
    throw SnapshotError(SnapshotErrc::kBadBackend,
                        "snapshot written by '" + producer +
                            "', restoring into '" + expected_producer + "'");
  if (fingerprint != expected_fingerprint)
    throw SnapshotError(SnapshotErrc::kBadFingerprint,
                        "snapshot was taken under a different protocol");
}

std::uint32_t SnapshotReader::read_section() {
  if (!payload_reader_.at_end())
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "section payload longer than its fields");
  char head[16];
  in_.read(head, sizeof head);
  if (in_.gcount() != sizeof head)
    throw SnapshotError(SnapshotErrc::kTruncated, "section header missing");
  BinReader r(head, sizeof head);
  const std::uint32_t tag = r.u32();
  const std::uint64_t len = r.u64();
  const std::uint32_t expected_crc = r.u32();
  if (len > kMaxSectionBytes)
    throw SnapshotError(SnapshotErrc::kCorrupt, "section length implausible");

  // Let the previous payload's buffer go: a population section can run to
  // hundreds of MiB, and the sections after it are small.
  std::string().swap(payload_);
  // Chunked read: a corrupted length fails with kTruncated as soon as the
  // stream runs dry instead of pre-allocating the advertised size.
  char buf[1 << 16];
  std::uint64_t left = len;
  while (left > 0) {
    const auto want = static_cast<std::streamsize>(
        std::min<std::uint64_t>(left, sizeof buf));
    in_.read(buf, want);
    const std::streamsize got = in_.gcount();
    if (got <= 0)
      throw SnapshotError(SnapshotErrc::kTruncated, "section payload missing");
    payload_.append(buf, static_cast<std::size_t>(got));
    left -= static_cast<std::uint64_t>(got);
  }
  if (crc32(payload_) != expected_crc)
    throw SnapshotError(SnapshotErrc::kBadChecksum,
                        "section CRC mismatch (corrupted snapshot)");
  payload_reader_ = BinReader(payload_);
  return tag;
}

BinReader& SnapshotReader::section(SnapshotSection expected) {
  const std::uint32_t tag = read_section();
  if (tag != static_cast<std::uint32_t>(expected))
    throw SnapshotError(
        tag == static_cast<std::uint32_t>(SnapshotSection::kEnd)
            ? SnapshotErrc::kTruncated
            : SnapshotErrc::kCorrupt,
        "section " + std::to_string(tag) + " where section " +
            std::to_string(static_cast<std::uint32_t>(expected)) +
            " belongs");
  return payload_reader_;
}

void SnapshotReader::finish() {
  const std::uint32_t tag = read_section();
  if (tag != static_cast<std::uint32_t>(SnapshotSection::kEnd) ||
      !payload_.empty())
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "section " + std::to_string(tag) +
                            " where the empty terminator belongs");
}

// -- Shared payload helpers --------------------------------------------------

void serialize_counters(BinWriter& w, const EngineCounters& c) {
  for (const auto field : EngineCounters::fields()) w.u64(c.*field);
}

EngineCounters deserialize_counters(BinReader& r) {
  EngineCounters c;
  for (const auto field : EngineCounters::fields()) c.*field = r.u64();
  return c;
}

void serialize_rng_state(BinWriter& w, const RngState& state) {
  for (const std::uint64_t word : state) w.u64(word);
}

RngState deserialize_rng_state(BinReader& r) {
  RngState state;
  for (std::uint64_t& word : state) word = r.u64();
  if (state == RngState{})
    throw SnapshotError(SnapshotErrc::kCorrupt, "all-zero RNG state");
  return state;
}

void serialize_rng_streams(BinWriter& w, const std::vector<RngState>& streams) {
  w.u64(streams.size());
  for (const RngState& state : streams) serialize_rng_state(w, state);
}

std::vector<RngState> deserialize_rng_streams(BinReader& r,
                                              std::size_t expected) {
  const std::uint64_t count = r.u64();
  if (count != expected)
    throw SnapshotError(SnapshotErrc::kConfigMismatch,
                        "snapshot carries " + std::to_string(count) +
                            " RNG streams, this engine uses " +
                            std::to_string(expected));
  std::vector<RngState> streams(expected);
  for (RngState& state : streams) state = deserialize_rng_state(r);
  return streams;
}

}  // namespace popproto
