// Measurement kit shared by the kcbench workloads: clocks, exact quantiles,
// the closed-loop reader, the in-memory span log, correctness gates and the
// final report. Everything here observes cpkcore from outside, through its
// public functions and exported stats.
#pragma once

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace kcbench {

using cpkcore::vertex_t;

[[nodiscard]] std::uint64_t now_ns();
[[nodiscard]] double seconds_since(std::uint64_t start_ns);

/// The seed reserved for validating a claimed gain on inputs that were not
/// used while the change was written (a second, independent input set).
inline constexpr std::uint64_t kValidationSeed = 20261017;

/// Directory (inside the checkout, relative to the working directory) for
/// WAL files and trace output.
inline constexpr const char* kOutDir = ".bench_out";

/// Command line of one benchmark process.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced sizes for the self-test; never used for reported numbers.
  bool small = false;
  /// Name of a correctness gate to feed a wrong answer (self-test only).
  std::string inject;
};

/// Linear-interpolated quantile (numpy's default) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Nanosecond-resolution latency histogram with exact counts below kCap
/// and the raw values above it. Quantiles interpolate inside a 1 ns bin,
/// treating its samples as spread over [v, v + 1), so they are continuous
/// rather than bucket midpoints that repeat from run to run.
class ExactHist {
 public:
  static constexpr std::uint64_t kCap = 1u << 16;

  ExactHist() : counts_(kCap, 0) {}
  void record(std::uint64_t ns) {
    ++count_;
    if (ns < kCap) {
      ++counts_[ns];
    } else {
      over_.push_back(ns);
    }
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> over_;
  std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------- spans

/// One timed call at a layer boundary. Spans of one request share `req`;
/// a child names its parent's id.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t req = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t name = 0;    ///< index into SpanLog::kNames
  std::uint32_t thread = 0;
};

/// In-memory span store: each recording thread appends to its own buffer,
/// so recording takes no lock; everything is written out at exit.
class SpanLog {
 public:
  /// Span names: roots ("op", "read") are the scheduled request; the rest
  /// are the layer calls made on its behalf.
  static constexpr const char* kNames[] = {
      "op", "read", "core.apply", "core.read", "router.write", "router.read"};
  enum Name : std::uint32_t {
    kOp, kRead, kCoreApply, kCoreRead, kRouterWrite, kRouterRead, kNumNames
  };

  class Buffer {
   public:
    /// Records a finished span and returns its id.
    std::uint64_t add(Name name, std::uint64_t parent, std::uint64_t req,
                      std::uint64_t start_ns, std::uint64_t end_ns);
    /// Reserves an id for a root recorded after its children.
    std::uint64_t reserve_id() { return log_->next_id_.fetch_add(1) + 1; }
    void add_with_id(std::uint64_t id, Name name, std::uint64_t parent,
                     std::uint64_t req, std::uint64_t start_ns,
                     std::uint64_t end_ns);

   private:
    friend class SpanLog;
    SpanLog* log_ = nullptr;
    std::uint32_t thread_ = 0;
    std::vector<Span> spans_;
  };

  /// A buffer for the calling thread; valid for the log's lifetime.
  Buffer& buffer();

  /// Median self time per span name, in microseconds: a span's duration
  /// minus the part of it that its children cover.
  [[nodiscard]] std::vector<double> self_p50_us() const;
  [[nodiscard]] std::size_t size() const;

  /// Chrome trace JSON (loadable in Perfetto) plus the stats deltas.
  void write(const std::string& path, const std::string& stats_json) const;

 private:
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

// ---------------------------------------------------------------- reader

/// CPU layout of a run: the reader gets the first CPU this process may use
/// and everything else (the main thread, the program's threads, which inherit
/// the mask of the thread that creates them) the rest, so the closed-loop
/// reader neither time-slices with nor evicts the caches of the threads it
/// measures. No-ops with a single CPU.
void pin_main_thread();
void pin_reader_thread();

/// Keeps every CPU but the reader's from halting while it lives: one
/// SCHED_IDLE thread per CPU spins there, and the guest scheduler preempts
/// it the moment a thread of the program on that CPU wakes. On a KVM guest
/// a thread woken on a halted vCPU waits for the host to run that vCPU,
/// which under host load took milliseconds; closed loops whose every op
/// crosses threads pay it twice per op. No-op with a single CPU.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;
  [[nodiscard]] int count() const { return static_cast<int>(threads_.size()); }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

struct ReaderSamples {
  /// Median block mean of each window of about kWindowNs.
  std::vector<double> window_p50_ns;
  ExactHist single_ns;
  std::uint64_t reads = 0;
};

/// Closed-loop reader. Each iteration reads one block of kBlock vertices
/// timed as a whole (the block mean is the read_p50 sample: a single read
/// costs less than a clock pair) and then kSingle vertices timed one by
/// one (the read_p999 sample: stalls are single-read events). Block means
/// are reduced to one median per window of kWindowNs. Vertex ids come from
/// a pre-generated ring so the picker costs nothing inside the timed
/// region.
/// `ReadFn` is `double(vertex_t)`: one read, its value folded into a sink.
/// `single(v, value, start_ns, end_ns)` runs after each individually timed
/// read, outside the timed region (checks, sampled spans).
template <class ReadFn>
class Reader {
 public:
  static constexpr int kBlock = 128;
  static constexpr int kSingle = 16;
  static constexpr std::uint64_t kWindowNs = 100'000'000;
  /// A window cut short by the end of its round counts only if it holds
  /// at least this many blocks.
  static constexpr std::size_t kMinWindowBlocks = 256;

  using SingleFn =
      std::function<void(vertex_t, double, std::uint64_t, std::uint64_t)>;

  Reader(std::vector<vertex_t> ring, ReadFn read, SingleFn single = {})
      : ring_(std::move(ring)), read_(std::move(read)),
        single_(std::move(single)) {}
  ~Reader() { stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void start() {
    thread_ = std::thread([this] {
      pin_reader_thread();
      loop();
    });
  }
  /// Samples go to round `r` from now on; -1 stops recording.
  void set_round(int r) { round_.store(r); }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Per-round samples; read only after stop().
  [[nodiscard]] const std::vector<ReaderSamples>& rounds() const {
    return rounds_;
  }

 private:
  void loop() {
    const std::size_t mask = ring_.size() - 1;  // size is a power of two
    std::size_t k = 0;
    double sink = 0;
    ReaderSamples* out = nullptr;
    int out_round = -1;
    std::vector<double> window;  // block means of the open window
    window.reserve(1u << 16);
    std::uint64_t window0 = 0;
    auto close_window = [&](std::size_t min_blocks) {
      if (out && window.size() >= min_blocks) {
        out->window_p50_ns.push_back(median(window));
      }
      window.clear();
    };
    while (!stop_.load(std::memory_order_relaxed)) {
      const int r = round_.load(std::memory_order_relaxed);
      if (r != out_round) {
        close_window(kMinWindowBlocks);
        out_round = r;
        out = nullptr;
        if (r >= 0) {
          if (rounds_.size() <= static_cast<std::size_t>(r)) rounds_.resize(r + 1);
          out = &rounds_[r];
          window0 = now_ns();
        }
      }
      const std::uint64_t t0 = now_ns();
      for (int i = 0; i < kBlock; ++i) sink += read_(ring_[k++ & mask]);
      const std::uint64_t t1 = now_ns();
      if (out) {
        window.push_back(static_cast<double>(t1 - t0) / kBlock);
        if (t1 - window0 >= kWindowNs) {
          close_window(1);
          window0 = t1;
        }
      }
      for (int i = 0; i < kSingle; ++i) {
        const vertex_t v = ring_[k++ & mask];
        const std::uint64_t a = now_ns();
        const double x = read_(v);
        const std::uint64_t b = now_ns();
        sink += x;
        if (out) {
          out->single_ns.record(b - a);
          if (single_) single_(v, x, a, b);
        }
      }
      if (out) out->reads += kBlock + kSingle;
    }
    close_window(kMinWindowBlocks);
    sink_ = sink;
  }

  std::vector<vertex_t> ring_;
  ReadFn read_;
  SingleFn single_;
  std::atomic<bool> stop_{false};
  std::atomic<int> round_{-1};
  std::vector<ReaderSamples> rounds_;
  double sink_ = 0;
  std::thread thread_;
};

/// read_p50_ns: mean over every window of the run of the window's median
/// block mean. The host moves a vCPU between a fast and a slow read regime
/// (about 16 vs 26 ns for a view read of a 100k-vertex graph, with or without
/// writes) for tenths of seconds to whole runs; the median of all blocks
/// jumps from one regime to the other as their shares cross one half, the
/// mean of window medians moves with the share. read_p999_ns: median over
/// rounds of each round's 99.9th percentile of single reads, so one
/// stalled round (a preempted vCPU) does not set the run's figure.
[[nodiscard]] double read_p50_ns(const std::vector<ReaderSamples>& rounds);
[[nodiscard]] double read_p999_ns(const std::vector<ReaderSamples>& rounds);
[[nodiscard]] std::uint64_t total_reads(
    const std::vector<ReaderSamples>& rounds);

/// Rings hold kRing ids (a power of two).
inline constexpr std::size_t kRing = 1u << 16;
/// Uniform vertex ids.
[[nodiscard]] std::vector<vertex_t> uniform_ring(vertex_t n,
                                                 std::uint64_t seed);
/// Zipf(s)-skewed vertex ids: rank r maps to the r-th vertex of a random
/// permutation of [0, n) drawn from `hot_seed`, and the ranks are sampled
/// from `seed`. Popularity is a property of the dataset, so callers keep
/// `hot_seed` fixed and only the sample sequence follows the run's seed.
[[nodiscard]] std::vector<vertex_t> zipf_ring(vertex_t n, double s,
                                              std::uint64_t hot_seed,
                                              std::uint64_t seed);

// ---------------------------------------------------------------- report

/// Exact per-vertex coreness error at quiescence: the paper's Fig. 6
/// error max(est/k', k'/est) with k' = max(k, 1).
struct ErrorStats {
  double sum = 0;
  double max = 0;
  std::uint64_t count = 0;
  void add(double estimate, double exact);
  [[nodiscard]] double avg() const { return count ? sum / count : 0; }
};

/// Metrics, correctness gates and the run descriptor of one process.
class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness gate and prints its outcome to stderr.
  void gate(const std::string& name, bool ok, const std::string& detail);
  /// True when the self-test asked (--inject) to feed `gate` a wrong
  /// answer; the workload then corrupts the gate's input before checking.
  [[nodiscard]] bool injecting(const std::string& gate) const {
    return options_.inject == gate;
  }
  void describe(const std::string& key, const std::string& json_value);
  void describe(const std::string& key, double value);
  void describe_str(const std::string& key, const std::string& value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints the descriptor line and the result line; returns the exit
  /// code (non-zero iff a gate failed or an op failed).
  int finish();

 private:
  const Options& options_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::string> failed_gates_;
  std::vector<std::pair<std::string, std::string>> descriptor_;
};

/// The end-to-end metrics every workload reports (untraced runs). Each
/// workload's file states what each one means there.
struct EndToEnd {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double read_p50_ns = 0;
  double read_p999_ns = 0;
  double ack_p50_us = 0;
  double ack_p99_us = 0;
  double acked_ops_per_s = 0;
  double update_edges_per_s = 0;
  double coreness_err_avg = 0;
  double coreness_err_max = 0;
};
void emit(Report& report, const EndToEnd& m);

/// The per-layer metrics every workload reports (traced runs); a layer a
/// workload does not reach reports 0.
struct PerLayer {
  double trace_overhead_pct = 0;
  double batches_per_cycle = 0;
  double ops_per_cycle = 0;
  double applied_edge_ratio = 0;
  double apply_p50_us = 0;
  double apply_p99_us = 0;
  double apply_busy_frac = 0;
  double durable_lag_p99_us = 0;
  double wal_bytes_per_op = 0;
  double wal_flushes_per_cycle = 0;
  double insert_batch_p50_ms = 0;
  double delete_batch_p50_ms = 0;
  double marked_vertices_per_batch = 0;
  double view_publishes_per_batch = 0;
  double spawns_per_batch = 0;
  double steals_per_batch = 0;
  double reclaim_retired_per_batch = 0;
  double reclaim_freed_per_batch = 0;
  double reclaim_limbo_peak = 0;
  double reclaim_lagging_per_batch = 0;
  double replica_lag_p99_records = 0;
  double replica_read_share = 0;
  double read_staleness_p99_lsn = 0;
  std::vector<double> self_p50_us;  ///< per SpanLog name
};
void emit(Report& report, const PerLayer& m);

/// Thread budget of a workload: the threads that can be runnable at once.
/// Flags the run when they exceed the hardware threads.
void describe_common(Report& report, const Options& o, unsigned workers,
                     const std::string& reclaimer,
                     const std::vector<std::pair<std::string, int>>& threads,
                     double cpu_cores_used, double host_steal_pct);

/// Share of all CPU time the host stole from this guest (the "steal"
/// column of /proc/stat) since construction, in percent; 0 where the
/// kernel does not report it. Tails here track it closely, so every run
/// records it.
class StealMeter {
 public:
  StealMeter() : start_(read()) {}
  [[nodiscard]] double pct() const;

 private:
  struct Sample {
    double steal = 0;
    double total = 0;
  };
  static Sample read();
  Sample start_;
};

/// Process-wide resource figures.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double cpu_seconds();

/// Builds the workload state `repeats` times, tearing each earlier copy
/// down first, and stores the median build time in *median_s. Returns the
/// last state. `build()` returns a std::unique_ptr.
template <class Build>
auto timed_setups(Build build, double* median_s, int repeats = 3) {
  std::vector<double> times;
  decltype(build()) state;
  for (int i = 0; i < repeats; ++i) {
    state.reset();
    // Return the torn-down copy's pages, so peak_rss_mb measures one copy
    // rather than allocator fragmentation across set-ups.
    malloc_trim(0);
    const std::uint64_t t0 = now_ns();
    state = build();
    times.push_back(seconds_since(t0));
  }
  *median_s = median(times);
  return state;
}

/// Traced runs trace rounds in an untraced-traced-traced-untraced pattern,
/// so the same process measures the tracing overhead and a drift across
/// the run cancels out of the comparison.
[[nodiscard]] inline bool traced_round(const Options& o, int round) {
  return o.trace && (round % 4 == 1 || round % 4 == 2);
}
/// (median untraced / median traced - 1) * 100 over per-round throughput.
[[nodiscard]] double trace_overhead_pct(const std::vector<double>& per_round,
                                        const Options& o);

/// Workload entry points.
int run_core_batch(const Options& o);
int run_cluster_ryw(const Options& o);

}  // namespace kcbench
