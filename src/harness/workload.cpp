#include "harness/workload.hpp"

#include <atomic>
#include <numeric>
#include <thread>

#include "graph/dynamic_graph.hpp"
#include "kcore/peel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace cpkcore::harness {

double WorkloadResult::total_update_seconds() const {
  return std::accumulate(batch_seconds.begin(), batch_seconds.end(), 0.0);
}

double WorkloadResult::avg_batch_seconds() const {
  return batch_seconds.empty()
             ? 0.0
             : total_update_seconds() /
                   static_cast<double>(batch_seconds.size());
}

double WorkloadResult::max_batch_seconds() const {
  double mx = 0.0;
  for (double s : batch_seconds) mx = std::max(mx, s);
  return mx;
}

double WorkloadResult::read_throughput() const {
  const double t = total_update_seconds();
  return t > 0 ? static_cast<double>(total_reads) / t : 0.0;
}

double WorkloadResult::write_throughput() const {
  const double t = total_update_seconds();
  return t > 0 ? static_cast<double>(total_applied_edges) / t : 0.0;
}

WorkloadResult run_workload(CPLDS& ds,
                            const std::vector<UpdateBatch>& batches,
                            const WorkloadConfig& cfg) {
  const vertex_t n = ds.num_vertices();
  // The mirror cannot reconstruct a preloaded graph (the PLDS does not
  // expose adjacency), so accuracy runs must route every edge through
  // `batches`, starting from an empty structure. Checked before any thread
  // is spawned.
  if (cfg.record_boundary_exact && ds.num_edges() != 0) {
    throw std::logic_error(
        "record_boundary_exact requires starting from an empty CPLDS");
  }

  WorkloadResult result;
  result.window_base = ds.batch_number();

  std::atomic<bool> stop{false};
  std::vector<LatencyHistogram> hists(cfg.reader_threads);
  std::vector<std::uint64_t> counts(cfg.reader_threads, 0);
  std::vector<std::vector<ReadSample>> samples(cfg.reader_threads);

  std::vector<std::thread> readers;
  readers.reserve(cfg.reader_threads);
  for (std::size_t t = 0; t < cfg.reader_threads; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(cfg.seed * 0x9E3779B97F4A7C15ULL + t + 1);
      LatencyHistogram& hist = hists[t];
      auto& local_samples = samples[t];
      std::uint64_t issued = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto v = static_cast<vertex_t>(rng.next_below(n));
        const bool sampling =
            cfg.sample_stride != 0 && (issued % cfg.sample_stride) == 0 &&
            local_samples.size() < cfg.max_samples_per_thread;
        std::uint64_t window_before = 0;
        if (sampling) window_before = ds.batch_number();
        const std::uint64_t t0 = now_ns();
        const level_t level = read_level_with_mode(ds, v, cfg.mode);
        const std::uint64_t t1 = now_ns();
        hist.record(t1 - t0);
        if (sampling) {
          // Keep only samples whose batch window is unambiguous.
          const std::uint64_t window_after = ds.batch_number();
          if (window_before == window_after) {
            local_samples.push_back(ReadSample{v, level, window_after});
          }
        }
        ++issued;
      }
      counts[t] = issued;
    });
  }

  auto snapshot_boundary = [&] {
    if (cfg.record_boundary_levels) {
      std::vector<level_t> levels(n);
      for (vertex_t v = 0; v < n; ++v) levels[v] = ds.read_level_nonsync(v);
      result.boundary_levels.push_back(std::move(levels));
    }
  };

  // Mirror graph for exact coreness at boundaries (accuracy runs only).
  DynamicGraph mirror(cfg.record_boundary_exact ? n : 0);
  auto snapshot_exact = [&] {
    if (cfg.record_boundary_exact) {
      result.boundary_exact.push_back(exact_coreness(mirror));
    }
  };
  snapshot_boundary();
  snapshot_exact();

  for (const UpdateBatch& batch : batches) {
    Timer timer;
    const auto applied = ds.apply(batch);
    result.batch_seconds.push_back(timer.elapsed_s());
    result.total_applied_edges += applied.size();
    if (cfg.record_boundary_exact) {
      if (batch.kind == UpdateKind::kInsert) {
        mirror.insert_batch(applied);
      } else {
        mirror.delete_batch(applied);
      }
    }
    snapshot_boundary();
    snapshot_exact();
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  for (std::size_t t = 0; t < cfg.reader_threads; ++t) {
    result.latency.merge(hists[t]);
    result.total_reads += counts[t];
    result.samples.insert(result.samples.end(), samples[t].begin(),
                          samples[t].end());
  }
  return result;
}

}  // namespace cpkcore::harness
