// serve_mixed: an in-process serve::Server on loopback, default
// ServerOptions, serving a model fitted during set-up. Single-series
// classify requests arrive open loop on a fixed schedule (light, then
// heavy with hot-swap reloads on their own schedule, then a rate ladder)
// over T connections driven by one sender thread. Every answer is checked
// against the offline PredictBatch of the model version it reports.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "data/generator.h"
#include "data/ucr_loader.h"
#include "ips/pipeline.h"
#include "ips/serialization.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/check.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = ips::serve;
using ips::obs::JsonValue;

constexpr char kModel[] = "bench";

// Offered rates, in requests per second. With default ServerOptions and T
// connections the server keeps its p99 within the ladder's limit up to a
// few thousand req/s on a 4-core x86 VM: the light rate leaves it mostly
// idle, the heavy rate keeps it busy while reloads compete for cores.
constexpr double kLightRate = 400.0;
constexpr double kHeavyRate = 1200.0;
// The serve.max_qps ladder: rates kLadderBase * kLadderStep^k for
// k in [0, kLadderRungs), searched by bisection. A rung passes when its p99
// (at least kMinSamples samples) meets the limit and its backlog does not
// grow.
constexpr double kLadderBase = 800.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 57;  // up to about 12000 req/s
constexpr double kLatencyLimitMs = 50.0;
// Every percentile is taken over at least this many answers, which leaves
// ten beyond the p99.
constexpr size_t kMinSamples = 1000;

ips::GeneratorSpec ServeDataSpec(uint64_t seed) {
  ips::GeneratorSpec spec;
  spec.name = "serve_mixed";
  spec.seed = seed;
  spec.num_classes = 4;
  spec.train_size = 120;
  spec.test_size = 200;
  spec.length = 256;
  return spec;
}

/// The two artifacts the server alternates between on reloads: odd
/// versions serve A, even versions B.
ips::IpsOptions ArtifactOptions(bool alternate) {
  ips::IpsOptions options;
  options.sample_count = 20;
  if (alternate) {
    options.seed += 1;
    options.shapelets_per_class = 4;
  }
  return options;
}

/// Result of one open-loop phase.
struct PhaseStats {
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t correct_class = 0;  // answers equal to the true label
  std::vector<double> latency_ms;  // from due time to answer
  std::vector<double> lag_ms;      // actual send time minus due time
  size_t backlog_end = 0;  // unanswered when the last request was sent

  JsonValue ToJson(double rate) const {
    JsonValue out = JsonValue::Object();
    out.Set("rate", rate);
    out.Set("sent", sent);
    out.Set("succeeded", succeeded);
    out.Set("failed", failed);
    out.Set("backlog_end", backlog_end);
    if (!latency_ms.empty()) {
      out.Set("p50_ms", Quantile(latency_ms, 0.5));
      out.Set("p99_ms", Quantile(latency_ms, 0.99));
    }
    if (!lag_ms.empty()) out.Set("lag_p99_ms", Quantile(lag_ms, 0.99));
    return out;
  }
};

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  IPS_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  IPS_CHECK_MSG(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
      "cannot connect to the server");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Open-loop sender over `connections` pipelined sockets, one thread.
/// Request k is due at k / rate; its latency runs from that due time, so a
/// stall also charges every request queued behind it.
class OpenLoopSender {
 public:
  OpenLoopSender(int port, size_t connections,
                 const std::vector<std::vector<uint8_t>>* frames,
                 const ips::Dataset* test,
                 const std::vector<int>* expected_odd,
                 const std::vector<int>* expected_even, uint64_t seed)
      : frames_(frames),
        test_(test),
        expected_odd_(expected_odd),
        expected_even_(expected_even) {
    for (size_t c = 0; c < connections; ++c) {
      conns_.emplace_back();
      conns_.back().fd = ConnectLoopback(port);
    }
    order_.resize(test->size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    ips::Rng rng(seed);
    rng.Shuffle(order_);
  }

  ~OpenLoopSender() {
    for (Conn& c : conns_) ::close(c.fd);
  }

  /// Sends `rate` requests per second for `duration_s`, then drains.
  /// `at_mid`, if set, is called once when half the requests are out.
  PhaseStats Run(double rate, double duration_s,
                 const std::function<void()>& at_mid = {}) {
    PhaseStats stats;
    const Clock::time_point start = Clock::now();
    const uint64_t total =
        static_cast<uint64_t>(std::floor(rate * duration_s));
    uint64_t next = 0;
    while (true) {
      const double now = SecondsSince(start);
      while (next < total && static_cast<double>(next) / rate <= now) {
        Send(next, static_cast<double>(next) / rate, now, stats);
        ++next;
        if (at_mid && next == total / 2) at_mid();
      }
      if (next == total) break;
      Poll(start, stats);
    }
    stats.backlog_end = Outstanding();
    // Drain: whatever has not been answered within the grace period failed.
    const double drain_deadline = SecondsSince(start) + 5.0;
    while (Outstanding() > 0 && SecondsSince(start) < drain_deadline) {
      Poll(start, stats);
    }
    for (Conn& c : conns_) {
      stats.failed += c.pending.size();
      c.pending.clear();
      c.out.clear();
      c.out_offset = 0;
    }
    return stats;
  }

 private:
  struct Pending {
    size_t index;
    double due_s;
  };
  struct Conn {
    int fd = -1;
    std::vector<uint8_t> out;
    size_t out_offset = 0;
    std::vector<uint8_t> in;
    std::deque<Pending> pending;
    bool dead = false;
  };

  size_t Outstanding() const {
    size_t n = 0;
    for (const Conn& c : conns_) n += c.pending.size();
    return n;
  }

  void Send(uint64_t k, double due_s, double now_s, PhaseStats& stats) {
    Conn& c = conns_[k % conns_.size()];
    const size_t index = order_[k % order_.size()];
    ++stats.sent;
    stats.lag_ms.push_back(1e3 * (now_s - due_s));
    if (c.dead) {
      ++stats.failed;
      return;
    }
    const std::vector<uint8_t>& frame = (*frames_)[index];
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    c.pending.push_back(Pending{index, due_s});
    Flush(c);
  }

  void Flush(Conn& c) {
    while (c.out_offset < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_offset,
                               c.out.size() - c.out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_offset += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        return;
      } else {
        c.dead = true;
        return;
      }
    }
    c.out.clear();
    c.out_offset = 0;
  }

  /// Handles whatever socket activity is pending, without blocking. The
  /// sender spins on this rather than sleeping until the next due time:
  /// waking from a sleep can take milliseconds on a virtual machine, which
  /// would show up as sender lag.
  void Poll(Clock::time_point start, PhaseStats& stats) {
    std::vector<pollfd> fds(conns_.size());
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].dead ? -1 : conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out_offset < conns_[i].out.size() ? POLLOUT : 0));
    }
    if (::poll(fds.data(), fds.size(), 0) <= 0) return;
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) Flush(c);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        Receive(c, SecondsSince(start), stats);
      }
    }
  }

  void Receive(Conn& c, double now_s, PhaseStats& stats) {
    uint8_t buf[1 << 16];
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.in.insert(c.in.end(), buf, buf + n);
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EINTR)) c.dead = true;
      break;
    }
    size_t offset = 0;
    while (!c.pending.empty()) {
      serve::Frame frame;
      size_t consumed = 0;
      const serve::DecodeStatus status = serve::DecodeFrame(
          std::span<const uint8_t>(c.in).subspan(offset), &frame, &consumed);
      if (status == serve::DecodeStatus::kNeedMore) break;
      if (status == serve::DecodeStatus::kMalformed) {
        c.dead = true;
        break;
      }
      offset += consumed;
      const Pending p = c.pending.front();
      c.pending.pop_front();
      serve::ClassifyResponse response;
      const bool decoded =
          frame.op == serve::FrameOp::kClassifyResponse &&
          serve::DecodeClassifyResponse(frame.payload, &response) &&
          response.labels.size() == 1 && response.model_version >= 1;
      const std::vector<int>& expected =
          response.model_version % 2 == 1 ? *expected_odd_ : *expected_even_;
      if (!decoded || response.labels[0] != expected[p.index]) {
        ++stats.failed;
        continue;
      }
      ++stats.succeeded;
      if (response.labels[0] == test_->At(p.index).label) {
        ++stats.correct_class;
      }
      stats.latency_ms.push_back(1e3 * (now_s - p.due_s));
    }
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<ptrdiff_t>(offset));
    if (c.dead) {
      stats.failed += c.pending.size();
      c.pending.clear();
    }
  }

  const std::vector<std::vector<uint8_t>>* frames_;
  const ips::Dataset* test_;
  const std::vector<int>* expected_odd_;
  const std::vector<int>* expected_even_;
  std::vector<Conn> conns_;
  std::vector<size_t> order_;
};

class ServeRunner {
 public:
  explicit ServeRunner(RunContext& ctx)
      : ctx_(ctx),
        threads_(BenchThreads()),
        artifact_path_(ctx.args.work_dir + "/model.ipsrun"),
        train_path_(ctx.args.work_dir + "/train.tsv") {}

  void Run() {
    SetUp();
    std::vector<std::vector<uint8_t>> frames;
    for (size_t i = 0; i < split_.test.size(); ++i) {
      serve::ClassifyRequest request;
      request.model = kModel;
      request.series.push_back(split_.test[i].values);
      frames.push_back(serve::EncodeFrame(serve::Frame{
          serve::FrameOp::kClassifyRequest,
          serve::EncodeClassifyRequest(request)}));
    }
    OpenLoopSender sender(server_->port(), threads_, &frames, &split_.test,
                          &expected_a_, &expected_b_, ctx_.args.seed);
    const double s = ctx_.args.seconds;

    // Warm-up at the heavy rate (pool, arenas, socket buffers) and one pair
    // of fits. Gated, not timed.
    Record(sender.Run(kHeavyRate, 1.0), "warm_up", kHeavyRate);
    FitSamples untimed;
    for (size_t k = 0; k < kDatasets; ++k) FitPair(k, k == 0, untimed);

    // Rounds of a light window, a pair of fits, a heavy window with one hot
    // swap requested at its midpoint, and another pair of fits. Spreading
    // every kind of sample over the whole run keeps slow phases of a shared
    // host from landing on one metric only.
    std::vector<PhaseStats> light, heavy;
    std::vector<double> reload_s;
    std::vector<char> reload_ok;
    FitSamples fits;
    std::thread reloader([&] { ReloadLoop(reload_s, reload_ok); });
    size_t pairs = 0;
    const auto next_pair = [&] {
      const size_t k = pairs % kDatasets;
      FitPair(k, (pairs / kDatasets + k) % 2 == 0, fits);
      ++pairs;
    };
    const Clock::time_point start = Clock::now();
    for (int round = 0; round < 3 || SecondsSince(start) < s; ++round) {
      light.push_back(sender.Run(kLightRate, kMinSamples / kLightRate));
      Record(light.back(), "light", kLightRate);
      next_pair();
      heavy.push_back(sender.Run(kHeavyRate, kMinSamples / kHeavyRate,
                                 [this] { RequestReload(); }));
      Record(heavy.back(), "heavy", kHeavyRate);
      next_pair();
    }
    {
      std::lock_guard<std::mutex> lock(reload_mu_);
      reload_stop_ = true;
    }
    reload_cv_.notify_one();
    reloader.join();
    for (const char ok : reload_ok) {
      ctx_.gate.Check(ok != 0, "reload failed or skipped a version");
    }
    SetLatency("light", light);
    SetLatency("heavy", heavy);
    ctx_.report.SetMedian("serve.reload_s", reload_s, "s");
    ctx_.report.SetMedian("fit_s", fits.fit_s, "s");
    ctx_.report.SetMedian("fit_serial_s", fits.fit_serial_s, "s");
    size_t test_series = 0;
    for (const Offline& o : offline_) test_series += o.split.test.size();
    ctx_.report.SetThroughput("predict_series_per_s",
                              static_cast<double>(test_series),
                              fits.predict_s, "series/s");

    // Served accuracy: answers equal to the true class, light and heavy.
    uint64_t answered = 0;
    uint64_t right = 0;
    for (const auto* phase : {&light, &heavy}) {
      for (const PhaseStats& w : *phase) {
        answered += w.succeeded;
        right += w.correct_class;
      }
    }
    ctx_.report.Set("accuracy", Ratio(static_cast<double>(right),
                                      static_cast<double>(answered)),
                    "fraction", answered);

    if (ctx_.args.trace) {
      Ladder(sender);
      TraceExtras(light, heavy);
    }
    ctx_.report.details().Set("phases", phases_);
    server_->Stop();
    ctx_.report.Set("peak_rss_mb", PeakRssMb(), "MB", 1);
    std::error_code ignored;
    std::filesystem::remove(artifact_path_, ignored);
    std::filesystem::remove(train_path_, ignored);
  }

 private:
  void WriteArtifact(const std::string& text) {
    std::ofstream out(artifact_path_, std::ios::trunc);
    out << text;
  }

  /// Offline ground truth for one artifact, rebuilt the way the registry
  /// rebuilds it: from the saved training file.
  std::vector<int> OfflineLabels(const ips::RunResult& artifact) {
    const std::optional<ips::Dataset> train = ips::LoadUcrFile(train_path_);
    IPS_CHECK(train.has_value());
    ips::IpsClassifier classifier(ModelOptions());
    classifier.FitFromRunResult(*train, artifact);
    return classifier.PredictBatch(split_.test);
  }

  /// The served model's options: the ips_serve daemon's defaults (one
  /// thread per batch; concurrency comes from the admission queue).
  static ips::IpsOptions ModelOptions() { return ips::IpsOptions{}; }

  /// Data, both fixture fits, the saved files, the registry load and the
  /// server start, several times; the median is setup_s.
  void SetUp() {
    constexpr int kRepeats = 3;
    std::vector<double> setup_s;
    for (int r = 0; r < kRepeats; ++r) {
      if (server_ != nullptr) server_->Stop();
      server_.reset();
      registry_.reset();
      const Clock::time_point start = Clock::now();
      split_ = ips::GenerateDataset(ServeDataSpec(ctx_.args.seed));
      ips::IpsClassifier a(ArtifactOptions(false));
      a.Fit(split_.train);
      ips::IpsClassifier b(ArtifactOptions(true));
      b.Fit(split_.train);
      artifact_a_ = ips::SerializeRunResult(a.result());
      artifact_b_ = ips::SerializeRunResult(b.result());
      IPS_CHECK(ips::SaveUcrFile(split_.train, train_path_));
      WriteArtifact(artifact_a_);
      registry_ = std::make_unique<serve::ModelRegistry>();
      std::string error;
      IPS_CHECK_MSG(
          registry_->Load(kModel,
                          serve::ModelSource{artifact_path_, train_path_,
                                             ModelOptions()},
                          &error) == 1,
          error.c_str());
      server_ = std::make_unique<serve::Server>(registry_.get(),
                                                serve::ServerOptions{});
      IPS_CHECK_MSG(server_->Start(&error), error.c_str());
      setup_s.push_back(SecondsSince(start));
      if (r == 0) {
        expected_a_ = OfflineLabels(a.result());
        expected_b_ = OfflineLabels(b.result());
      }
    }
    ctx_.report.SetMedian("setup_s", setup_s, "s");
    version_ = 1;
    OfflineSetUp();
  }

  void RequestReload() {
    {
      std::lock_guard<std::mutex> lock(reload_mu_);
      ++reload_requests_;
    }
    reload_cv_.notify_one();
  }

  /// Serves reload requests over its own connection: each writes the
  /// artifact the next version must serve, then reloads and times it.
  /// Outcomes go to `ok` (one per reload), gated by the caller after join.
  void ReloadLoop(std::vector<double>& seconds, std::vector<char>& ok) {
    serve::Client control;
    std::string error;
    const bool connected =
        control.Connect("127.0.0.1", server_->port(), &error);
    while (true) {
      {
        std::unique_lock<std::mutex> lock(reload_mu_);
        reload_cv_.wait(lock,
                        [this] { return reload_stop_ || reload_requests_ > 0; });
        if (reload_requests_ == 0) return;
        --reload_requests_;
      }
      WriteArtifact((version_ + 1) % 2 == 1 ? artifact_a_ : artifact_b_);
      const Clock::time_point sent = Clock::now();
      // Versions start at 1, so 0 stands for a failed reload.
      const uint32_t version =
          connected ? control.Reload(kModel, &error).value_or(0) : 0;
      seconds.push_back(SecondsSince(sent));
      ok.push_back(version == version_ + 1);
      if (version != 0) version_ = version;
    }
  }

  void Record(const PhaseStats& stats, const std::string& phase,
              double rate) {
    ctx_.gate.Count(stats.succeeded, stats.failed,
                    "served request failed or differs from offline");
    JsonValue entry = stats.ToJson(rate);
    entry.Set("phase", phase);
    phases_.Append(std::move(entry));
  }

  /// A phase's p50 and p99 are the medians of its windows' own (each of
  /// at least kMinSamples answers), so one burst of host noise moves one
  /// window, not the reported figure.
  void SetLatency(const std::string& phase,
                  const std::vector<PhaseStats>& windows) {
    std::vector<double> p50, p99;
    size_t samples = 0;
    for (const PhaseStats& w : windows) {
      if (w.latency_ms.empty()) continue;  // all failed; gated already
      p50.push_back(Quantile(w.latency_ms, 0.5));
      p99.push_back(Quantile(w.latency_ms, 0.99));
      samples += w.latency_ms.size();
    }
    IPS_CHECK_MSG(!p50.empty(), "no request was answered");
    ctx_.report.Set("serve." + phase + "_p50_ms", Median(p50), "ms", samples);
    ctx_.report.Set("serve." + phase + "_p99_ms", Median(p99), "ms", samples);
  }

  /// The highest rate of the fixed ladder that meets the latency limit,
  /// by bisection over the rungs.
  void Ladder(OpenLoopSender& sender) {
    int pass = -1;            // highest rung known to pass
    int fail = kLadderRungs;  // lowest rung known to fail
    while (fail - pass > 1) {
      const int rung = (pass + fail) / 2;
      const double rate = kLadderBase * std::pow(kLadderStep, rung);
      // A rung gets a second try before it counts as failed, so a single
      // burst of host noise cannot cut the search short.
      bool meets = false;
      for (int attempt = 0; attempt < 2 && !meets; ++attempt) {
        meets = RungMeetsLimit(sender, rate);
      }
      (meets ? pass : fail) = rung;
    }
    // Below the lowest rung the answer is one step under it, never zero.
    ctx_.report.Set("serve.max_qps",
                    kLadderBase * std::pow(kLadderStep, pass), "req/s", 1);
    ctx_.report.details().Set("ladder_limit_p99_ms", kLatencyLimitMs);
    ctx_.report.details().Set("ladder_rung", pass);
  }

  /// One ladder rung of at least a second and kMinSamples requests. The
  /// backlog "does not grow" when what is still unanswered as the last
  /// request is sent is no more than the limit's worth of arrivals.
  bool RungMeetsLimit(OpenLoopSender& sender, double rate) {
    const PhaseStats stats = sender.Run(
        rate, std::max(1.0, static_cast<double>(kMinSamples) / rate));
    Record(stats, "ladder", rate);
    const double backlog_limit =
        std::max(static_cast<double>(threads_), rate * kLatencyLimitMs / 1e3);
    return stats.failed == 0 && stats.latency_ms.size() >= kMinSamples &&
           Quantile(stats.latency_ms, 0.99) <= kLatencyLimitMs &&
           static_cast<double>(stats.backlog_end) <= backlog_limit;
  }

  /// The offline fits' splits: the served split and kDatasets - 1 more,
  /// each with its reference (a 1-thread fit with the served artifact's
  /// options, and its labels), which is also the split's first predicting
  /// model.
  void OfflineSetUp() {
    offline_.resize(kDatasets);
    for (size_t k = 0; k < kDatasets; ++k) {
      Offline& o = offline_[k];
      o.split = k == 0 ? split_
                       : ips::GenerateDataset(ServeDataSpec(
                             DatasetSeed(ctx_.args.seed, k)));
      ips::IpsOptions options = ArtifactOptions(false);
      options.num_threads = 1;
      o.model = std::make_unique<ips::IpsClassifier>(options);
      o.model->Fit(o.split.train);
      o.fingerprint = ShapeletFingerprint(o.model->shapelets());
      o.labels = o.model->PredictBatch(o.split.test);
    }
  }

  struct FitSamples {
    std::vector<double> fit_s, fit_serial_s, predict_s;
  };

  /// Fits of offline split `k` at 1 and T threads (order given), each held
  /// to the split's reference; the 1-thread fit becomes the split's
  /// predicting model. Then predict samples, each a PredictBatch at 1
  /// thread of every split's model.
  void FitPair(size_t k, bool serial_first, FitSamples& samples) {
    Offline& o = offline_[k];
    for (const bool serial : {serial_first, !serial_first}) {
      ips::IpsOptions options = ArtifactOptions(false);
      options.num_threads = serial ? 1 : threads_;
      auto model = std::make_unique<ips::IpsClassifier>(options);
      const Clock::time_point t0 = Clock::now();
      model->Fit(o.split.train);
      (serial ? samples.fit_serial_s : samples.fit_s)
          .push_back(SecondsSince(t0));
      ctx_.gate.Check(ShapeletFingerprint(model->shapelets()) == o.fingerprint,
                      "fit shapelets differ from reference");
      if (serial) o.model = std::move(model);
    }
    for (int r = 0; r < kPredictRepeats; ++r) {
      double seconds = 0.0;
      for (const Offline& each : offline_) {
        const Clock::time_point t0 = Clock::now();
        const std::vector<int> labels =
            each.model->PredictBatch(each.split.test);
        seconds += SecondsSince(t0);
        ctx_.gate.Check(labels == each.labels,
                        "PredictBatch labels differ from reference");
      }
      samples.predict_s.push_back(seconds);
    }
  }

  /// Per-layer numbers of the serving layer: the compute floor of one
  /// series in process, the server's own stats frame, and sender lag.
  void TraceExtras(const std::vector<PhaseStats>& light,
                   const std::vector<PhaseStats>& heavy) {
    const std::shared_ptr<const serve::ServedModel> model =
        registry_->Get(kModel);
    const std::vector<int>& expected =
        model->version() % 2 == 1 ? expected_a_ : expected_b_;
    std::vector<double> classify_us;
    for (size_t n = 0; n < 1100; ++n) {
      const size_t i = n % split_.test.size();
      const ips::Dataset single(
          std::vector<ips::TimeSeries>{split_.test[i]});
      const Clock::time_point t0 = Clock::now();
      const std::vector<int> label = model->Classify(single);
      classify_us.push_back(1e6 * SecondsSince(t0));
      ctx_.gate.Check(label.size() == 1 && label[0] == expected[i],
                      "in-process classify differs from offline");
    }
    ctx_.report.SetMedian("serve.model_classify_us", classify_us, "us");

    serve::Client client;
    std::string error;
    std::optional<std::string> stats;
    if (client.Connect("127.0.0.1", server_->port(), &error)) {
      stats = client.Stats(&error);
    }
    const std::optional<JsonValue> doc =
        stats ? JsonValue::Parse(*stats) : std::nullopt;
    ctx_.gate.Check(doc.has_value(), "stats frame missing or unparsable");
    if (doc.has_value()) {
      const JsonValue* models = doc->Find("models");
      const JsonValue* entry = models ? models->Find(kModel) : nullptr;
      const JsonValue* latency = entry ? entry->Find("latency_us") : nullptr;
      const JsonValue* batches = doc->Find("batch_size");
      const auto number = [](const JsonValue* obj, const char* key) {
        const JsonValue* v = obj ? obj->Find(key) : nullptr;
        return v ? v->AsDouble() : 0.0;
      };
      ctx_.report.Set("serve.queue_p50_us", number(latency, "p50"), "us", 1);
      ctx_.report.Set("serve.queue_p99_us", number(latency, "p99"), "us", 1);
      ctx_.report.Set("serve.batch_size_mean", number(batches, "mean"),
                      "count", 1);
      ctx_.report.Set("serve.batches", number(batches, "count"), "count", 1);
      ctx_.report.Set("serve.errors", number(&*doc, "errors"), "count", 1);
    }
    std::vector<double> lag;
    for (const auto* phase : {&light, &heavy}) {
      for (const PhaseStats& w : *phase) {
        lag.insert(lag.end(), w.lag_ms.begin(), w.lag_ms.end());
      }
    }
    ctx_.report.Set("serve.generator_lag_ms", Quantile(lag, 0.99), "ms",
                    lag.size());
  }

  RunContext& ctx_;
  const size_t threads_;
  const std::string artifact_path_;
  const std::string train_path_;
  ips::TrainTestSplit split_;
  std::string artifact_a_, artifact_b_;
  std::vector<int> expected_a_, expected_b_;
  struct Offline {
    ips::TrainTestSplit split;
    uint64_t fingerprint = 0;
    std::vector<int> labels;
    std::unique_ptr<ips::IpsClassifier> model;
  };
  std::vector<Offline> offline_;
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::Server> server_;
  uint32_t version_ = 1;  // written by the reload thread only
  std::mutex reload_mu_;
  std::condition_variable reload_cv_;
  int reload_requests_ = 0;
  bool reload_stop_ = false;
  JsonValue phases_ = JsonValue::Array();
};

}  // namespace

void RunServeWorkload(RunContext& ctx) { ServeRunner(ctx).Run(); }

}  // namespace perfbench
