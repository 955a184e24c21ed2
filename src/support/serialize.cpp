#include "support/serialize.hpp"

#include "support/simd.hpp"

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

std::uint32_t crc32_extend(std::uint32_t crc, const void* data,
                           std::size_t len) {
  return ~simd::crc32_update(~crc, data, len);
}

}  // namespace popproto
