#include "serve/admission_queue.h"

#include <chrono>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace ips::serve {

namespace {

obs::Histogram& BatchSizeHistogram() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Instance().GetHistogram("serve.batch_size");
  return h;
}

// An empty batch cannot be classified: the dispatcher needs room for at
// least the request that anchors each batch. Checked before the
// dispatcher thread starts.
AdmissionQueue::Options Checked(AdmissionQueue::Options options) {
  IPS_CHECK_MSG(options.max_batch >= 1, "AdmissionQueue needs max_batch >= 1");
  return options;
}

}  // namespace

AdmissionQueue::AdmissionQueue(Options options)
    : options_(Checked(options)), dispatcher_([this] { DispatcherLoop(); }) {}

AdmissionQueue::~AdmissionQueue() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  dispatcher_.join();
}

std::future<AdmissionQueue::Result> AdmissionQueue::Submit(
    std::shared_ptr<const ServedModel> model, std::vector<double> values) {
  Pending pending;
  pending.model = std::move(model);
  pending.values = std::move(values);
  pending.enqueued = std::chrono::steady_clock::now();
  std::future<Result> future = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(pending));
  }
  cv_.notify_one();
  return future;
}

uint64_t AdmissionQueue::batches_dispatched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

void AdmissionQueue::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ && drained

    // The oldest request anchors the batch: its model selects the group
    // and its arrival time starts the window.
    const ServedModel* anchor = queue_.front().model.get();
    const auto deadline =
        queue_.front().enqueued +
        std::chrono::microseconds(options_.batch_window_us);

    // Wait for company until the window closes, the batch fills, or a
    // shutdown asks for an immediate drain.
    const auto batch_full = [&] {
      size_t same_model = 0;
      for (const Pending& p : queue_) {
        if (p.model.get() == anchor && ++same_model >= options_.max_batch) {
          return true;
        }
      }
      return false;
    };
    if (options_.batch_window_us > 0) {
      cv_.wait_until(lock, deadline,
                     [&] { return stopping_ || batch_full(); });
    }

    // Extract up to max_batch requests for the anchor model, preserving
    // arrival order; other models' requests stay queued for later rounds.
    std::vector<Pending> batch;
    batch.reserve(options_.max_batch);
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < options_.max_batch;) {
      if (it->model.get() == anchor) {
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    ++batches_;

    lock.unlock();
    RunBatch(std::move(batch));
    lock.lock();
  }
}

void AdmissionQueue::RunBatch(std::vector<Pending> batch) {
  const std::shared_ptr<const ServedModel>& model = batch.front().model;
  Dataset queries;
  for (Pending& p : batch) {
    queries.Add(TimeSeries(std::move(p.values), /*label=*/-1));
  }
  const std::vector<int> labels = model->Classify(queries);

  BatchSizeHistogram().Observe(batch.size());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  obs::Counter& requests =
      registry.GetCounter("serve." + model->name() + ".requests");
  obs::Histogram& latency =
      registry.GetHistogram("serve." + model->name() + ".latency_us");

  const auto now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    requests.Add();
    latency.Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            now - batch[i].enqueued)
            .count()));
    batch[i].promise.set_value(Result{labels[i], model->version()});
  }
}

}  // namespace ips::serve
