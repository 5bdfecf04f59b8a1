// Out-of-core columnar dataset: the memory-mapped reader of `ips-store v2`
// segments (store_format.h), behind the DatasetView interface.
//
// The segment is mapped read-only once at Open; chunk RESIDENCY (which
// chunk payloads occupy physical memory) is governed by an LRU cache with
// a configurable byte budget. Eviction releases a chunk's pages back to
// the OS (madvise MADV_DONTNEED) without unmapping, so SeriesViews handed
// out earlier never dangle: touching an evicted chunk's pages simply
// faults them back in from the file and the next At()/ForEachChunk counts
// it as a fresh load. Peak resident chunk bytes therefore never exceed
// max(budget, largest single chunk) -- bench_store and the CI
// memory-budget job gate on exactly that accounting.
//
// Reader hardening: every header field, directory entry, column offset and
// declared count is validated against the mapped size before any
// dereference or allocation (tests/store_fuzz_test.cc drives truncations,
// header bit flips, hostile counts and wrong majors through Open). A
// segment that fails any check yields nullptr plus a reason -- never a
// crash and never an allocation sized by attacker-controlled counts.
//
// Thread-safety: all public methods may be called concurrently; LRU
// bookkeeping is mutex-guarded, payload reads are lock-free (immutable
// mapping). The store serves values only: consumers derive rolling
// statistics from them (core/znorm.cc) exactly as for an in-RAM dataset.
//
// Obs counters (docs/observability.md): store.opens, store.bytes_mapped,
// store.chunk_loads, store.chunk_hits, store.chunk_evictions,
// store.bytes_loaded, store.bytes_evicted.

#ifndef IPS_STORE_COLUMNAR_STORE_H_
#define IPS_STORE_COLUMNAR_STORE_H_

#include <cstdint>

#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/time_series.h"
#include "store/store_format.h"

namespace ips::store {

class ColumnarStore final : public ips::DatasetView {
 public:
  struct Options {
    /// Chunk-residency budget in bytes. Clamped up to the largest single
    /// chunk at Open (a chunk must be residable to be readable);
    /// budget_bytes() reports the effective value.
    uint64_t budget_bytes = uint64_t{64} << 20;
  };

  /// Maps and validates `path`. Returns nullptr with `*error` set on any
  /// I/O or format failure.
  static std::unique_ptr<ColumnarStore> Open(const std::string& path,
                                             const Options& options,
                                             std::string* error = nullptr);
  static std::unique_ptr<ColumnarStore> Open(const std::string& path,
                                             std::string* error = nullptr) {
    return Open(path, Options(), error);
  }

  ~ColumnarStore() override;
  ColumnarStore(const ColumnarStore&) = delete;
  ColumnarStore& operator=(const ColumnarStore&) = delete;

  // ------------------------------------------------------- DatasetView
  size_t size() const override { return static_cast<size_t>(num_series_); }
  SeriesView At(size_t i) const override;
  void ForEachChunk(const ChunkFn& fn) const override;

  // ------------------------------------------------------ introspection
  size_t num_chunks() const { return chunks_.size(); }
  uint64_t budget_bytes() const { return budget_bytes_; }
  /// Total mapped segment size.
  uint64_t mapped_bytes() const { return mapped_bytes_; }
  /// Sum of all chunk-record value payload bytes (the corpus size an
  /// in-RAM Dataset would materialise).
  uint64_t value_bytes() const { return value_bytes_; }
  /// Currently resident chunk-record bytes per the LRU accounting.
  uint64_t resident_bytes() const;
  /// High-water mark of resident_bytes() since Open.
  uint64_t resident_high_water() const;
  uint64_t chunk_loads() const;
  uint64_t chunk_hits() const;
  uint64_t chunk_evictions() const;

 private:
  struct ChunkMeta {
    uint64_t offset = 0;  // absolute file offset of the record
    uint64_t bytes = 0;   // whole record size (residency unit)
    uint64_t first = 0;   // dataset index of the first series
    uint64_t count = 0;
    const int32_t* labels = nullptr;
    const uint64_t* lengths = nullptr;
    const uint64_t* value_offsets = nullptr;
    const double* values = nullptr;
    bool resident = false;
    std::list<size_t>::iterator lru_pos;  // valid when resident
  };

  ColumnarStore() = default;

  /// Validates the mapped segment and fills chunks_. Returns false with
  /// `*error` set on any malformed field.
  bool Parse(std::string* error);

  /// Chunk index containing dataset series `i`.
  size_t ChunkOfSeries(size_t i) const;

  /// Marks chunk `c` most-recently-used, loading and evicting per the
  /// budget. Called by At/ForEachChunk on every access.
  void Touch(size_t c) const;

  /// Releases a chunk's full pages back to the OS.
  void ReleasePages(const ChunkMeta& chunk) const;

  const uint8_t* base_ = nullptr;
  uint64_t mapped_bytes_ = 0;
  int fd_ = -1;

  uint64_t num_series_ = 0;
  uint64_t value_bytes_ = 0;
  uint64_t budget_bytes_ = 0;
  // Mutable: residency flags and LRU positions change under const access.
  mutable std::vector<ChunkMeta> chunks_;

  mutable std::mutex mu_;
  mutable std::list<size_t> lru_;  // front = most recent
  mutable uint64_t resident_bytes_ = 0;
  mutable uint64_t resident_high_water_ = 0;
  mutable uint64_t loads_ = 0;
  mutable uint64_t hits_ = 0;
  mutable uint64_t evictions_ = 0;
};

/// True when `path` exists and begins with the `ips-store` magic (any
/// version).
/// Cheap sniff (reads 8 bytes) for call sites that accept either a store
/// segment or a text dataset under one flag, e.g. the serving layer's
/// ModelSource.train_path.
bool LooksLikeStoreSegment(const std::string& path);

}  // namespace ips::store

#endif  // IPS_STORE_COLUMNAR_STORE_H_
