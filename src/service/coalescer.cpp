#include "service/coalescer.hpp"

#include <algorithm>

namespace cpkcore::service {

std::vector<UpdateBatch> coalesce_updates(std::vector<Update> ops,
                                          bool normalize) {
  std::vector<UpdateBatch> batches = split_batches(ops);
  if (normalize) {
    for (UpdateBatch& b : batches) normalize_edges(b.edges);
    // A run of nothing but self-loops normalizes to empty; don't spend a
    // CPLDS batch cycle or a WAL record on it.
    std::erase_if(batches,
                  [](const UpdateBatch& b) { return b.edges.empty(); });
  }
  return batches;
}

AdaptiveBatchSizer::AdaptiveBatchSizer(std::size_t min_ops,
                                       std::size_t max_ops,
                                       std::uint64_t target_apply_ns)
    : min_ops_(std::max<std::size_t>(1, min_ops)),
      max_ops_(std::max(max_ops, min_ops_)),
      target_ns_(static_cast<double>(std::max<std::uint64_t>(1, target_apply_ns))),
      budget_(std::clamp<std::size_t>(1024, min_ops_, max_ops_)) {}

void AdaptiveBatchSizer::observe(std::size_t ops, std::uint64_t apply_ns,
                                 std::uint64_t ack_lag_ns) {
  if (ops == 0) return;
  // The ack lag updates unconditionally (including toward 0) so the
  // budget recovers once the pipeline catches back up.
  ewma_ack_lag_ns_ =
      0.7 * ewma_ack_lag_ns_ + 0.3 * static_cast<double>(ack_lag_ns);
  const double per_op =
      static_cast<double>(apply_ns) / static_cast<double>(ops);
  ewma_ns_per_op_ =
      ewma_ns_per_op_ <= 0.0 ? per_op
                             : 0.7 * ewma_ns_per_op_ + 0.3 * per_op;
  // The ack lag eats into the latency target: time a committed op spends
  // waiting on the flush pipeline is time the next cycle's apply cannot
  // spend. Floor at 10% of the target so a badly backed-up pipeline
  // shrinks cycles instead of zeroing them.
  const double avail =
      std::max(target_ns_ * 0.1, target_ns_ - ewma_ack_lag_ns_);
  const double ideal = avail / std::max(ewma_ns_per_op_, 1e-3);
  const double capped =
      std::min(ideal, static_cast<double>(budget_) * 2.0);
  budget_ = std::clamp(static_cast<std::size_t>(std::max(capped, 1.0)),
                       min_ops_, max_ops_);
}

}  // namespace cpkcore::service
