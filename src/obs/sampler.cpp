#include "obs/sampler.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace cpkcore::obs {

StatsSampler::StatsSampler(SamplerOptions options)
    : options_(std::move(options)) {
  if (options_.registry == nullptr) {
    options_.registry = &MetricsRegistry::instance();
  }
  if (options_.interval_ms == 0) options_.interval_ms = 1;
  if (options_.path.empty()) {
    out_ = stdout;
  } else {
    out_ = std::fopen(options_.path.c_str(), "a");
    if (out_ == nullptr) {
      throw std::runtime_error("StatsSampler: cannot open " + options_.path);
    }
    owns_out_ = true;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

StatsSampler::~StatsSampler() { stop(); }

void StatsSampler::stop() {
  {
    std::lock_guard lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  if (owns_out_ && out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
    owns_out_ = false;
  }
}

void StatsSampler::run() {
  using clock = std::chrono::steady_clock;
  const auto interval = std::chrono::milliseconds(options_.interval_ms);
  // Poll tick: how often the thread wakes to honor request_sample() and
  // stop() even when the sampling interval is long.
  const auto tick =
      std::min(interval, std::chrono::milliseconds(100));
  auto next_sample = clock::now() + interval;
  for (;;) {
    bool stopping = false;
    {
      std::unique_lock lock(mu_);
      cv_.wait_for(lock, tick, [&] { return stop_requested_; });
      stopping = stop_requested_;
    }
    if (stopping) break;
    const bool on_demand =
        dump_requested_.exchange(false, std::memory_order_relaxed);
    if (on_demand || clock::now() >= next_sample) {
      take_sample();
      if (!on_demand) next_sample = clock::now() + interval;
    }
  }
  // Dump-on-shutdown: the final state always lands in the series.
  take_sample();
}

void StatsSampler::take_sample() {
  const std::string line = options_.registry->snapshot().to_json();
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fputc('\n', out_);
  std::fflush(out_);
  samples_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace cpkcore::obs
