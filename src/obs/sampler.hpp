// StatsSampler — time-series capture for the flight recorder.
//
// A background thread samples a MetricsRegistry at a configurable interval
// and appends one JSON line per sample to a file (or stdout), so a gauge's
// evolution over a run — queue depths, durable lag, replica lag, budget —
// is a chartable series instead of a single end-of-run number. stop() (and
// the destructor) takes one final sample, so even an interval longer than
// the run still dumps the end state; request_sample() asks for an
// off-schedule sample from anywhere — including a signal handler (it only
// sets an atomic flag; the sampler thread polls it every poll tick).
//
//   MetricsRegistry ──snapshot()──▶ sampler thread ──▶ path (JSON lines)
//          ▲                            ▲ interval_ms ticks
//          │                            └ request_sample() (SIGUSR1 hook)
//          └ components' collect callbacks
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace cpkcore::obs {

struct SamplerOptions {
  /// Output file (appended; one JSON object per line). Empty = stdout.
  std::string path;

  /// Sampling period. The sampler wakes every poll tick (min(interval,
  /// 100ms)) to honor request_sample() and stop() promptly.
  std::uint64_t interval_ms = 1000;

  /// Registry to sample. Defaults to the process-wide registry.
  MetricsRegistry* registry = nullptr;
};

class StatsSampler {
 public:
  /// Opens the output and starts the sampler thread. Throws
  /// std::runtime_error when the file cannot be opened.
  explicit StatsSampler(SamplerOptions options);

  /// stop()s (final sample + flush) if still running.
  ~StatsSampler();

  StatsSampler(const StatsSampler&) = delete;
  StatsSampler& operator=(const StatsSampler&) = delete;

  /// Requests an immediate off-schedule sample. Async-signal-safe: only
  /// sets an atomic flag (the sample itself runs on the sampler thread
  /// within one poll tick).
  void request_sample() {
    dump_requested_.store(true, std::memory_order_relaxed);
  }

  /// Takes the final sample, joins the thread, flushes and closes the
  /// output. Idempotent.
  void stop();

  /// Samples written so far.
  [[nodiscard]] std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

 private:
  void run();
  void take_sample();

  SamplerOptions options_;
  std::FILE* out_ = nullptr;
  bool owns_out_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;  // under mu_
  std::atomic<bool> dump_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> samples_{0};
  std::thread thread_;
};

}  // namespace cpkcore::obs
