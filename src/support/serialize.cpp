#include "support/serialize.hpp"

#include <array>

namespace popproto {

const char* snapshot_errc_name(SnapshotErrc code) {
  switch (code) {
    case SnapshotErrc::kIo:
      return "io";
    case SnapshotErrc::kBadMagic:
      return "bad_magic";
    case SnapshotErrc::kBadVersion:
      return "bad_version";
    case SnapshotErrc::kBadBackend:
      return "bad_backend";
    case SnapshotErrc::kBadFingerprint:
      return "bad_fingerprint";
    case SnapshotErrc::kBadChecksum:
      return "bad_checksum";
    case SnapshotErrc::kTruncated:
      return "truncated";
    case SnapshotErrc::kCorrupt:
      return "corrupt";
    case SnapshotErrc::kConfigMismatch:
      return "config_mismatch";
  }
  return "unknown";
}

SnapshotError::SnapshotError(SnapshotErrc code, const std::string& detail)
    : std::runtime_error(std::string("snapshot error (") +
                         snapshot_errc_name(code) + "): " + detail),
      code_(code) {}

namespace {

// Slicing-by-8 tables: t[0] is the bytewise table; t[k][i] is the CRC
// register after byte i is followed by k zero bytes, so one lookup per
// table folds eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) {
  static const CrcTables t = make_crc_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint32_t lo, hi;  // little-endian words (serialize.hpp)
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace popproto
