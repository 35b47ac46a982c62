// Concurrent workload runner reproducing the paper's methodology (§7): one
// update driver applies homogeneous batches (internally parallel on the
// scheduler) while dedicated reader threads issue uniform-random coreness
// reads continuously. Latencies land in per-thread log-bucketed histograms;
// optional sampling records (vertex, estimate, batch-window) triples for
// accuracy / linearizability evaluation, and optional boundary snapshots
// record per-batch level arrays and exact coreness.
#pragma once

#include <cstdint>
#include <vector>

#include "core/read_modes.hpp"
#include "graph/batch.hpp"
#include "util/latency_histogram.hpp"
#include "util/types.hpp"

namespace cpkcore::harness {

struct WorkloadConfig {
  ReadMode mode = ReadMode::kCplds;
  std::size_t reader_threads = 4;
  std::uint64_t seed = 1;

  /// If > 0, every `sample_stride`-th read per thread is recorded (only
  /// samples whose batch window is unambiguous are kept).
  std::size_t sample_stride = 0;
  std::size_t max_samples_per_thread = 1u << 20;

  /// Snapshot the level of every vertex at every batch boundary
  /// (boundary j = state after j batches). Enables linearizability checks.
  bool record_boundary_levels = false;

  /// Additionally compute exact coreness at every boundary (maintains a
  /// mirror graph; intended for small accuracy runs).
  bool record_boundary_exact = false;
};

struct ReadSample {
  vertex_t v = kNoVertex;
  level_t level = kNoLevel;  ///< the level the read's estimate derives from
  /// Value of CPLDS::batch_number() observed unchanged around the read.
  /// Relative to the workload's window_base b: window c <= b means "before
  /// this workload's first batch" (boundary 0); window c > b means "during
  /// or after this workload's batch (c - b - 1)", so the linearized state
  /// is boundary c - b - 1 or boundary c - b.
  std::uint64_t window = 0;
};

struct WorkloadResult {
  LatencyHistogram latency;
  std::uint64_t total_reads = 0;
  std::vector<double> batch_seconds;
  std::size_t total_applied_edges = 0;
  std::vector<ReadSample> samples;
  /// CPLDS::batch_number() before this workload's first batch (batches
  /// applied by the caller beforehand, e.g. the deletion preload, shift
  /// sample windows by this much).
  std::uint64_t window_base = 0;
  std::vector<std::vector<level_t>> boundary_levels;     // [B+1][n]
  std::vector<std::vector<vertex_t>> boundary_exact;     // [B+1][n]

  [[nodiscard]] double total_update_seconds() const;
  [[nodiscard]] double avg_batch_seconds() const;
  [[nodiscard]] double max_batch_seconds() const;
  /// Paper's throughput definitions: totals divided by total update time.
  [[nodiscard]] double read_throughput() const;
  [[nodiscard]] double write_throughput() const;
};

/// Runs `batches` against `ds` with concurrent readers per `cfg`.
/// The caller provides a CPLDS already loaded with any pre-existing graph.
WorkloadResult run_workload(CPLDS& ds,
                            const std::vector<UpdateBatch>& batches,
                            const WorkloadConfig& cfg);

}  // namespace cpkcore::harness
