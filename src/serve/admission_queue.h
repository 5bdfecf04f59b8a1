// Batching admission queue: coalesces concurrent classify requests into
// IpsClassifier::PredictBatch batches sized by a latency budget.
//
// Single-series requests are the common serving shape, but the transform
// is much cheaper batched (shapelet-side artefacts computed once per
// batch -- the PR 3 PredictBatch path). The queue accepts one series at a
// time and a dispatcher thread drains them in model-grouped batches:
// a batch closes when either `max_batch` requests for the same model
// instance have accumulated or `batch_window_us` has elapsed since the
// batch's oldest request arrived -- the latency budget: no request waits
// longer than one window for company.
//
// Correctness: PredictBatch labels are bitwise identical to the serial
// per-series Predict loop for any batch composition, so coalescing is
// invisible in the responses -- the property bench_serve's checksum gate
// proves end-to-end. Batches group by model INSTANCE (the shared_ptr a
// request arrived with), so a hot-swap mid-queue simply splits batches:
// requests that entered with the old model finish on the old model.
//
// Metrics (docs/serving.md): serve.batch_size histogram,
// serve.<model>.requests counter, serve.<model>.latency_us histogram
// (admission to fulfillment, i.e. queue wait + inference).

#ifndef IPS_SERVE_ADMISSION_QUEUE_H_
#define IPS_SERVE_ADMISSION_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/model_registry.h"

namespace ips::serve {

class AdmissionQueue {
 public:
  struct Options {
    /// Longest a request may wait for batch company, in microseconds.
    /// 0 = no coalescing: every request dispatches as soon as the worker
    /// reaches it (still batched with whatever arrived in the meantime).
    int64_t batch_window_us = 500;
    /// Hard batch-size cap; a full batch dispatches immediately. Must be
    /// at least 1 (checked at construction).
    size_t max_batch = 64;
  };

  struct Result {
    int label = -1;
    uint32_t model_version = 0;
  };

  explicit AdmissionQueue(Options options);
  /// Drains every pending request, then stops the dispatcher.
  ~AdmissionQueue();

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Enqueues one series against `model` (non-null, fully loaded). The
  /// future resolves once the series' batch has been classified.
  std::future<Result> Submit(std::shared_ptr<const ServedModel> model,
                             std::vector<double> values);

  /// Batches dispatched so far (test/bench visibility).
  uint64_t batches_dispatched() const;

 private:
  struct Pending {
    std::shared_ptr<const ServedModel> model;
    std::vector<double> values;
    std::promise<Result> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void DispatcherLoop();
  void RunBatch(std::vector<Pending> batch);

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  uint64_t batches_ = 0;
  std::thread dispatcher_;
};

}  // namespace ips::serve

#endif  // IPS_SERVE_ADMISSION_QUEUE_H_
