// Binary serialization primitives for the persistence layer (DESIGN.md §10).
//
// Everything durable this library writes — engine snapshots, fault-schedule
// state, auto-checkpoints — is framed with these three pieces:
//
//  * crc32(): the IEEE 802.3 polynomial (slicing-by-8, or a carry-less
//    multiply fold where support/simd.hpp dispatches to one; both give the
//    same values); every snapshot section carries the checksum of its
//    payload so bit rot and truncation are detected before any state is
//    touched. crc32_extend() continues a checksum over the next piece, so a
//    payload held in parts needs no joined copy.
//  * BinWriter: append-only little-endian encoder into a std::string buffer.
//    Words and word vectors are copied in native byte order, which the
//    static_assert below pins to little-endian. Doubles are serialized as
//    their IEEE-754 bit patterns, so a restored engine resumes from the
//    *exact* accumulated parallel time — replay is bit-identical, not
//    approximately-equal.
//  * BinReader: bounds-checked decoder over a byte buffer. Every read that
//    would run past the end throws SnapshotError{kTruncated}; nothing is
//    ever silently zero-filled.
//
// SnapshotError is the single typed error for all persistence failures
// (support layer so core/, faults/, and persist/ can all throw it without
// dependency cycles). The contract everywhere: a failed restore throws and
// leaves the target object untouched — parse into staging storage first,
// commit only after the whole stream validated.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace popproto {

// The codec copies native words; the format on disk is little-endian.
static_assert(std::endian::native == std::endian::little,
              "BinWriter/BinReader and crc32 assume a little-endian host");

/// Why a snapshot could not be read. Carried by SnapshotError.
enum class SnapshotErrc {
  kIo,              // stream read/write failed
  kBadMagic,        // not a popproto snapshot
  kBadVersion,      // format version this build does not understand
  kBadBackend,      // snapshot was taken from a different substrate
  kBadFingerprint,  // snapshot was taken under a different protocol
  kBadChecksum,     // section payload fails its CRC32
  kTruncated,       // stream ended mid-structure
  kCorrupt,         // structurally invalid (unknown tag, bad counts, ...)
  kConfigMismatch,  // engine config (shards, scheduler, ...) incompatible
};

const char* snapshot_errc_name(SnapshotErrc code);

/// Typed error for every persistence failure. Restores that throw guarantee
/// the target engine is unchanged.
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotErrc code, const std::string& detail);
  SnapshotErrc code() const { return code_; }

 private:
  SnapshotErrc code_;
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of the bytes that `crc`
/// covers followed by `len` more: crc32_extend(crc32(a), b) == crc32(a + b),
/// and crc32_extend(0, ...) starts a new checksum.
std::uint32_t crc32_extend(std::uint32_t crc, const void* data,
                           std::size_t len);
/// CRC-32 of `len` bytes.
inline std::uint32_t crc32(const void* data, std::size_t len) {
  return crc32_extend(0, data, len);
}
inline std::uint32_t crc32(const std::string& bytes) {
  return crc32(bytes.data(), bytes.size());
}

/// Little-endian append-only encoder.
class BinWriter {
 public:
  explicit BinWriter(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    out_.append(s);
  }
  /// Element count, then the elements as one append.
  void u64_vec(const std::vector<std::uint64_t>& v) { vec(v); }
  void u32_vec(const std::vector<std::uint32_t>& v) { vec(v); }

  std::size_t bytes_written() const { return out_.size(); }

 private:
  void append(const void* p, std::size_t len) {
    out_.append(static_cast<const char*>(p), len);
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    u64(v.size());
    append(v.data(), v.size() * sizeof(T));
  }
  std::string& out_;
};

/// The bytes of a word, or of a vector's elements, in place: the parts of a
/// payload written without joining it (the gather form of
/// SnapshotWriter::section). A vector's element count is a part of its own,
/// so [bytes_of(v.size() as u64), bytes_of(v)] is BinWriter's u64_vec(v).
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::string_view bytes_of(const T& word) {
  return {reinterpret_cast<const char*>(&word), sizeof word};
}
template <typename T>
std::string_view bytes_of(const std::vector<T>& v) {
  return {reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T)};
}

/// Bounds-checked little-endian decoder; throws SnapshotError{kTruncated}
/// instead of reading past the end, SnapshotError{kCorrupt} on impossible
/// counts (a flipped length byte must not turn into a 2^60-element resize).
class BinReader {
 public:
  BinReader(const void* data, std::size_t len)
      : p_(static_cast<const unsigned char*>(data)), end_(p_ + len) {}
  explicit BinReader(const std::string& bytes)
      : BinReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8() {
    need(1);
    return *p_++;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    take(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    take(&v, sizeof v);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t len = checked_count(1);
    std::string s(reinterpret_cast<const char*>(p_),
                  static_cast<std::size_t>(len));
    p_ += len;
    return s;
  }
  /// Element count, then the elements as one copy.
  std::vector<std::uint64_t> u64_vec() { return vec<std::uint64_t>(); }
  std::vector<std::uint32_t> u32_vec() { return vec<std::uint32_t>(); }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool at_end() const { return p_ == end_; }

 private:
  void need(std::size_t len) const {
    if (remaining() < len)
      throw SnapshotError(SnapshotErrc::kTruncated,
                          "payload ended mid-structure");
  }
  void take(void* out, std::size_t len) {
    need(len);
    std::memcpy(out, p_, len);
    p_ += len;
  }
  template <typename T>
  std::vector<T> vec() {
    std::vector<T> v(static_cast<std::size_t>(checked_count(sizeof(T))));
    // An empty vector's data() may be null, which memcpy must not see.
    if (!v.empty()) take(v.data(), v.size() * sizeof(T));
    return v;
  }
  /// Read an element count and verify count * elem_size fits in what is
  /// left, so corrupted lengths fail loudly instead of allocating wildly.
  std::uint64_t checked_count(std::size_t elem_size) {
    const std::uint64_t n = u64();
    if (n > remaining() / elem_size)
      throw SnapshotError(SnapshotErrc::kCorrupt,
                          "element count exceeds payload size");
    return n;
  }

  const unsigned char* p_;
  const unsigned char* end_;
};

}  // namespace popproto
