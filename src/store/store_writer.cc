#include "store/store_writer.h"

#include <cmath>
#include <cstdio>

namespace ips::store {

StoreWriter::StoreWriter(const std::string& path, const Options& options)
    : out_(path, std::ios::binary | std::ios::trunc), options_(options) {
  if (!out_) {
    error_ = "cannot open " + path + " for writing";
    return;
  }
  // Placeholder header; Finish() seeks back and writes the real one.
  SegmentHeader header;
  if (!WriteRaw(&header, sizeof(header))) return;
  ok_ = true;
}

StoreWriter::~StoreWriter() = default;

bool StoreWriter::WriteRaw(const void* data, size_t bytes) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
  if (!out_) {
    ok_ = false;
    if (error_.empty()) error_ = "write failure";
    return false;
  }
  file_offset_ += bytes;
  return true;
}

bool StoreWriter::Append(std::span<const double> values, int label) {
  if (!ok_ || finished_) return false;
  if (values.empty()) {
    ok_ = false;
    error_ = "empty series";
    return false;
  }
  if (label < -1) {
    ok_ = false;
    error_ = "label below kUnlabeledSeries";
    return false;
  }
  for (size_t j = 0; j < values.size(); ++j) {
    if (!std::isfinite(values[j])) {
      char value[32];
      std::snprintf(value, sizeof(value), "%g", values[j]);
      ok_ = false;
      error_ = "series " + std::to_string(num_series_) + " value " +
               std::to_string(j) + " is not finite (" + value + ")";
      return false;
    }
  }
  if (labels_.empty()) chunk_first_series_ = num_series_;

  labels_.push_back(static_cast<int32_t>(label));
  lengths_.push_back(values.size());
  value_offsets_.push_back(values_.size());
  values_.insert(values_.end(), values.begin(), values.end());
  ++num_series_;

  if (values_.size() * sizeof(double) >= options_.chunk_target_bytes) {
    return FlushChunk();
  }
  return true;
}

bool StoreWriter::FlushChunk() {
  if (labels_.empty()) return true;
  const uint64_t count = labels_.size();

  ChunkDirEntry entry;
  entry.offset = file_offset_;
  entry.first_series = chunk_first_series_;
  entry.num_series = count;
  entry.bytes = ChunkColumnBytes(count) + 8 * values_.size();

  const uint64_t values_doubles = values_.size();
  if (!WriteRaw(&values_doubles, sizeof(values_doubles))) return false;
  if (!WriteRaw(labels_.data(), count * sizeof(int32_t))) return false;
  // Pad the label column to 8 bytes so every later section stays aligned.
  const uint64_t label_pad = (count * 4 + 7) / 8 * 8 - count * 4;
  const char zeros[8] = {0};
  if (label_pad != 0 && !WriteRaw(zeros, label_pad)) return false;
  if (!WriteRaw(lengths_.data(), count * 8)) return false;
  if (!WriteRaw(value_offsets_.data(), count * 8)) return false;
  if (!WriteRaw(values_.data(), values_.size() * 8)) return false;

  directory_.push_back(entry);
  labels_.clear();
  lengths_.clear();
  value_offsets_.clear();
  values_.clear();
  return true;
}

bool StoreWriter::Finish() {
  if (!ok_ || finished_) return false;
  if (num_series_ == 0) {
    ok_ = false;
    error_ = "no series appended";
    return false;
  }
  if (!FlushChunk()) return false;
  finished_ = true;

  SegmentHeader header;
  header.num_series = num_series_;
  header.num_chunks = directory_.size();
  header.directory_offset = file_offset_;
  header.chunk_target_bytes = options_.chunk_target_bytes;
  if (!WriteRaw(directory_.data(),
                directory_.size() * sizeof(ChunkDirEntry))) {
    return false;
  }
  header.file_bytes = file_offset_;

  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out_.flush();
  if (!out_) {
    ok_ = false;
    error_ = "header rewrite failure";
    return false;
  }
  return true;
}

bool WriteDatasetToStore(const ips::DatasetView& data, const std::string& path,
                         const StoreWriter::Options& options,
                         std::string* error) {
  StoreWriter writer(path, options);
  bool ok = writer.ok();
  if (ok) {
    data.ForEachChunk([&](size_t, std::span<const ips::SeriesView> chunk) {
      for (const ips::SeriesView& t : chunk) {
        if (!writer.Append(t.values, t.label)) ok = false;
      }
    });
  }
  ok = ok && writer.Finish();
  if (!ok && error != nullptr) *error = writer.error();
  return ok;
}

}  // namespace ips::store
