#include "store/columnar_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace ips::store {
namespace {

struct StoreMetrics {
  obs::Counter& opens;
  obs::Counter& bytes_mapped;
  obs::Counter& chunk_loads;
  obs::Counter& chunk_hits;
  obs::Counter& chunk_evictions;
  obs::Counter& bytes_loaded;
  obs::Counter& bytes_evicted;
};

StoreMetrics& Metrics() {
  static StoreMetrics* m = [] {
    auto& registry = obs::MetricsRegistry::Instance();
    return new StoreMetrics{registry.GetCounter("store.opens"),
                            registry.GetCounter("store.bytes_mapped"),
                            registry.GetCounter("store.chunk_loads"),
                            registry.GetCounter("store.chunk_hits"),
                            registry.GetCounter("store.chunk_evictions"),
                            registry.GetCounter("store.bytes_loaded"),
                            registry.GetCounter("store.bytes_evicted")};
  }();
  return *m;
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

std::unique_ptr<ColumnarStore> ColumnarStore::Open(const std::string& path,
                                                   const Options& options,
                                                   std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    SetError(error, "cannot open " + path + ": " + std::strerror(errno));
    return nullptr;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    SetError(error, "cannot stat " + path);
    ::close(fd);
    return nullptr;
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < sizeof(SegmentHeader)) {
    SetError(error, "segment shorter than its header");
    ::close(fd);
    return nullptr;
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) {
    SetError(error, "mmap failed: " + std::string(std::strerror(errno)));
    ::close(fd);
    return nullptr;
  }
  // Access is chunk-at-a-time, not a single forward scan; let demand
  // paging follow the LRU instead of kernel readahead dragging in the
  // whole file.
  ::madvise(map, size, MADV_RANDOM);

  std::unique_ptr<ColumnarStore> store(new ColumnarStore());
  store->base_ = static_cast<const uint8_t*>(map);
  store->mapped_bytes_ = size;
  store->fd_ = fd;
  if (!store->Parse(error)) return nullptr;

  uint64_t largest_chunk = 0;
  for (const ChunkMeta& chunk : store->chunks_) {
    largest_chunk = std::max(largest_chunk, chunk.bytes);
  }
  store->budget_bytes_ = std::max(options.budget_bytes, largest_chunk);

  Metrics().opens.Add();
  Metrics().bytes_mapped.Add(size);
  return store;
}

ColumnarStore::~ColumnarStore() {
  if (base_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(base_), mapped_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

bool ColumnarStore::Parse(std::string* error) {
  // Every field below comes from the file: bound-check before use, and
  // never size an allocation by a declared count that the file's own size
  // cannot back.
  SegmentHeader header;
  std::memcpy(&header, base_, sizeof(header));
  if (header.magic != kStoreMagic) {
    SetError(error, "bad magic: not an ips-store segment");
    return false;
  }
  if (header.major != kStoreMajor) {
    SetError(error, "unsupported ips-store major version " +
                        std::to_string(header.major) + " (this reader reads " +
                        std::to_string(kStoreMajor) + ")");
    return false;
  }
  if (header.file_bytes != mapped_bytes_) {
    SetError(error, "declared file size does not match actual size");
    return false;
  }
  if (header.num_series == 0 || header.num_chunks == 0) {
    SetError(error, "segment declares no data");
    return false;
  }
  // A chunk record is at least its payload-size word plus one series'
  // columns; the directory costs 32 bytes per chunk. Either bound alone
  // caps num_chunks well below anything allocation-hostile.
  if (header.num_chunks > mapped_bytes_ / sizeof(ChunkDirEntry)) {
    SetError(error, "declared chunk count exceeds file capacity");
    return false;
  }
  const uint64_t dir_bytes = header.num_chunks * sizeof(ChunkDirEntry);
  if (header.directory_offset < sizeof(SegmentHeader) ||
      header.directory_offset % 8 != 0 ||
      header.directory_offset > mapped_bytes_ ||
      dir_bytes > mapped_bytes_ - header.directory_offset) {
    SetError(error, "directory out of bounds");
    return false;
  }
  if (header.num_series > (mapped_bytes_ - sizeof(SegmentHeader)) / 8) {
    SetError(error, "declared series count exceeds file capacity");
    return false;
  }

  const auto* directory = reinterpret_cast<const ChunkDirEntry*>(
      base_ + header.directory_offset);
  chunks_.resize(header.num_chunks);
  uint64_t expected_offset = sizeof(SegmentHeader);
  uint64_t expected_first = 0;
  for (uint64_t c = 0; c < header.num_chunks; ++c) {
    const ChunkDirEntry& entry = directory[c];
    ChunkMeta& chunk = chunks_[c];
    // Records are back to back from the header to the directory, in order:
    // any gap, overlap, misalignment or reordering is a malformed file.
    if (entry.offset != expected_offset || entry.offset % 8 != 0) {
      SetError(error, "chunk " + std::to_string(c) + " offset mismatch");
      return false;
    }
    if (entry.bytes % 8 != 0 ||
        entry.offset > header.directory_offset ||
        entry.bytes > header.directory_offset - entry.offset) {
      SetError(error, "chunk " + std::to_string(c) + " extent out of bounds");
      return false;
    }
    if (entry.first_series != expected_first || entry.num_series == 0 ||
        entry.num_series > header.num_series - expected_first) {
      SetError(error,
               "chunk " + std::to_string(c) + " series range malformed");
      return false;
    }
    const uint64_t count = entry.num_series;
    const uint64_t columns = ChunkColumnBytes(count);
    if (columns > entry.bytes) {
      SetError(error, "chunk " + std::to_string(c) + " too small for columns");
      return false;
    }

    const uint8_t* record = base_ + entry.offset;
    uint64_t values_doubles = 0;
    std::memcpy(&values_doubles, record, sizeof(values_doubles));
    if (values_doubles == 0 || values_doubles != (entry.bytes - columns) / 8) {
      SetError(error,
               "chunk " + std::to_string(c) + " payload size inconsistent");
      return false;
    }

    const uint64_t label_pad = (count * 4 + 7) / 8 * 8;
    chunk.offset = entry.offset;
    chunk.bytes = entry.bytes;
    chunk.first = entry.first_series;
    chunk.count = count;
    chunk.labels = reinterpret_cast<const int32_t*>(record + 8);
    chunk.lengths = reinterpret_cast<const uint64_t*>(record + 8 + label_pad);
    chunk.value_offsets = chunk.lengths + count;
    chunk.values = reinterpret_cast<const double*>(record + columns);

    // Per-series column validation: offsets ascend from zero, lengths are
    // positive, and the payload is covered exactly (no hidden slack to
    // smuggle data in).
    uint64_t expect_value = 0;
    for (uint64_t s = 0; s < count; ++s) {
      const uint64_t length = chunk.lengths[s];
      if (length == 0 || length > values_doubles ||
          chunk.value_offsets[s] != expect_value ||
          length > values_doubles - expect_value) {
        SetError(error, "chunk " + std::to_string(c) + " series " +
                            std::to_string(s) + " columns malformed");
        return false;
      }
      if (chunk.labels[s] < -1) {
        SetError(error, "chunk " + std::to_string(c) + " series " +
                            std::to_string(s) + " label below -1");
        return false;
      }
      expect_value += length;
    }
    if (expect_value != values_doubles) {
      SetError(error,
               "chunk " + std::to_string(c) + " payload not fully covered");
      return false;
    }

    value_bytes_ += values_doubles * 8;
    expected_offset += entry.bytes;
    expected_first += count;
  }
  if (expected_first != header.num_series) {
    SetError(error, "chunks do not cover the declared series count");
    return false;
  }
  if (expected_offset != header.directory_offset) {
    SetError(error, "gap between last chunk and directory");
    return false;
  }
  num_series_ = header.num_series;
  return true;
}

size_t ColumnarStore::ChunkOfSeries(size_t i) const {
  IPS_CHECK_MSG(i < num_series_, "series index out of range");
  // Upper-bound on first_series: the last chunk whose range starts at or
  // before i.
  size_t lo = 0;
  size_t hi = chunks_.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (chunks_[mid].first <= i) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void ColumnarStore::Touch(size_t c) const {
  auto& metrics = Metrics();
  std::lock_guard<std::mutex> lock(mu_);
  ChunkMeta& chunk = chunks_[c];
  if (chunk.resident) {
    if (chunk.lru_pos != lru_.begin()) {
      lru_.splice(lru_.begin(), lru_, chunk.lru_pos);
    }
    ++hits_;
    metrics.chunk_hits.Add();
    return;
  }
  // Evict from the cold end until the newcomer fits. The budget is
  // clamped >= the largest chunk at Open, so this always terminates with
  // room to spare.
  while (!lru_.empty() && resident_bytes_ + chunk.bytes > budget_bytes_) {
    const size_t victim_index = lru_.back();
    lru_.pop_back();
    ChunkMeta& victim = chunks_[victim_index];
    victim.resident = false;
    resident_bytes_ -= victim.bytes;
    ReleasePages(victim);
    ++evictions_;
    metrics.chunk_evictions.Add();
    metrics.bytes_evicted.Add(victim.bytes);
  }
  lru_.push_front(c);
  chunk.lru_pos = lru_.begin();
  chunk.resident = true;
  resident_bytes_ += chunk.bytes;
  resident_high_water_ = std::max(resident_high_water_, resident_bytes_);
  ++loads_;
  metrics.chunk_loads.Add();
  metrics.bytes_loaded.Add(chunk.bytes);
}

void ColumnarStore::ReleasePages(const ChunkMeta& chunk) const {
  // Only drop pages fully inside the record: the boundary pages are
  // shared with neighbouring chunks (or the header/directory) that may
  // still be resident. The mapping itself stays valid -- a later access
  // just faults the pages back in from the file.
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t begin = (chunk.offset + page - 1) / page * page;
  const uint64_t end = (chunk.offset + chunk.bytes) / page * page;
  if (end > begin) {
    ::madvise(const_cast<uint8_t*>(base_) + begin, end - begin,
              MADV_DONTNEED);
  }
}

SeriesView ColumnarStore::At(size_t i) const {
  const size_t c = ChunkOfSeries(i);
  Touch(c);
  const ChunkMeta& chunk = chunks_[c];
  const uint64_t s = i - chunk.first;
  return SeriesView(
      std::span<const double>(chunk.values + chunk.value_offsets[s],
                              chunk.lengths[s]),
      chunk.labels[s]);
}

void ColumnarStore::ForEachChunk(const ChunkFn& fn) const {
  std::vector<SeriesView> views;
  for (size_t c = 0; c < chunks_.size(); ++c) {
    Touch(c);
    const ChunkMeta& chunk = chunks_[c];
    views.clear();
    views.reserve(chunk.count);
    for (uint64_t s = 0; s < chunk.count; ++s) {
      views.emplace_back(
          std::span<const double>(chunk.values + chunk.value_offsets[s],
                                  chunk.lengths[s]),
          chunk.labels[s]);
    }
    fn(chunk.first, std::span<const SeriesView>(views));
  }
}

uint64_t ColumnarStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

uint64_t ColumnarStore::resident_high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_high_water_;
}

uint64_t ColumnarStore::chunk_loads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return loads_;
}

uint64_t ColumnarStore::chunk_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t ColumnarStore::chunk_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

bool LooksLikeStoreSegment(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in.gcount() == sizeof(magic) && magic == kStoreMagic;
}

}  // namespace ips::store
