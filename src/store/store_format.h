// On-disk layout of the `ips-store v2` columnar segment format.
//
// A segment is a single little-endian file holding a labelled time-series
// dataset in fixed-budget chunks of contiguous doubles (docs/storage.md):
//
//   [Header: 64 bytes]
//   [Chunk record 0] [Chunk record 1] ... (8-byte aligned, back to back)
//   [Directory: num_chunks x 32-byte entries]
//
// Chunk record layout (every section 8-byte aligned):
//   u64 values_doubles     total doubles in the chunk's value payload
//   i32 labels[count]      (padded to 8 bytes)
//   u64 lengths[count]
//   u64 value_offset[count]    per-series start within values, in doubles
//   f64 values[values_doubles]
//
// The segment stores values only. Rolling statistics are derived from the
// values by core/znorm.cc, exactly as for an in-RAM dataset. Version 1
// segments also carried precomputed per-series prefix tables; this
// reader refuses them by major version.
//
// All integers and doubles are little-endian (doubles as IEEE-754 bit
// patterns, the serve frame protocol's convention). The reader
// (columnar_store.cc) is hostile-input hardened: every offset, count and
// size is validated against the file size before any dereference or
// allocation, in the spirit of tests/serialization_fuzz_test.cc.

#ifndef IPS_STORE_STORE_FORMAT_H_
#define IPS_STORE_STORE_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace ips::store {

/// "IPSSTOR1" read as a little-endian u64.
inline constexpr uint64_t kStoreMagic = 0x31524F5453535049ULL;

inline constexpr uint16_t kStoreMajor = 2;
inline constexpr uint16_t kStoreMinor = 0;

/// Fixed-size segment header at file offset 0.
struct SegmentHeader {
  uint64_t magic = kStoreMagic;
  uint16_t major = kStoreMajor;
  uint16_t minor = kStoreMinor;
  uint32_t reserved0 = 0;
  uint64_t num_series = 0;
  uint64_t num_chunks = 0;
  uint64_t directory_offset = 0;
  uint64_t file_bytes = 0;          ///< total segment size, for validation
  uint64_t chunk_target_bytes = 0;  ///< writer's value-payload budget
  uint64_t reserved1 = 0;
};
static_assert(sizeof(SegmentHeader) == 64, "header layout is fixed");

/// One directory entry describing a chunk record.
struct ChunkDirEntry {
  uint64_t offset = 0;       ///< absolute file offset, 8-byte aligned
  uint64_t bytes = 0;        ///< whole chunk record size
  uint64_t first_series = 0; ///< dataset index of the chunk's first series
  uint64_t num_series = 0;   ///< series in this chunk (>= 1)
};
static_assert(sizeof(ChunkDirEntry) == 32, "directory layout is fixed");

/// Bytes of the fixed per-chunk column block for `count` series: the
/// payload-size word plus labels (padded to 8), lengths and offsets.
inline constexpr uint64_t ChunkColumnBytes(uint64_t count) {
  const uint64_t labels = (count * 4 + 7) / 8 * 8;
  return 8 + labels + 2 * 8 * count;
}

}  // namespace ips::store

#endif  // IPS_STORE_STORE_FORMAT_H_
