// Batch coalescing for the serving layer: turns the op stream drained from
// the ingest shards into the canonical deduplicated homogeneous batches the
// CPLDS update path consumes, and adapts how many ops each drain cycle may
// take so the apply latency tracks a target.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/batch.hpp"
#include "util/types.hpp"

namespace cpkcore::service {

/// Splits the stream into homogeneous runs (graph/batch run-length
/// segmentation, preserving the drained order). With `normalize` (the
/// default), additionally canonicalizes every op's edge, drops self-loops,
/// and sorts + dedups within each run — wanted ahead of a WAL append so the
/// log stores each batch once, canonically. Pass false when no WAL is
/// configured: the CPLDS update path re-normalizes anyway, so the pass
/// would be pure duplicate work on the apply thread. Insert/delete
/// interleavings of the same edge stay in separate runs either way, so
/// applying the result batch-by-batch is equivalent to applying `ops` one
/// at a time.
std::vector<UpdateBatch> coalesce_updates(std::vector<Update> ops,
                                          bool normalize = true);

/// Feedback controller for the drain-cycle op budget: observes each cycle's
/// (ops, apply time), keeps an EWMA of the per-op cost, and sizes the next
/// budget so one cycle's apply lands near the target latency. Growth is
/// capped at 2x per observation to damp oscillation; the budget stays in
/// [min_ops, max_ops].
///
/// The optional third observation is the applied->acked lag: when acks
/// trail the apply (the WAL flusher's flush pipeline is the
/// bottleneck), the lag EWMA eats into the latency target, so the budget
/// backs off even though the apply itself is fast — smaller cycles, more
/// frequent group commits, a shallower flush queue. A lag of 0 (acks at
/// applied, or the pipeline caught up) decays the EWMA back toward full
/// budget.
class AdaptiveBatchSizer {
 public:
  AdaptiveBatchSizer(std::size_t min_ops, std::size_t max_ops,
                     std::uint64_t target_apply_ns);

  [[nodiscard]] std::size_t budget() const { return budget_; }

  void observe(std::size_t ops, std::uint64_t apply_ns,
               std::uint64_t ack_lag_ns = 0);

 private:
  std::size_t min_ops_;
  std::size_t max_ops_;
  double target_ns_;
  double ewma_ns_per_op_ = 0.0;  // 0 = no observation yet
  double ewma_ack_lag_ns_ = 0.0;
  std::size_t budget_;
};

}  // namespace cpkcore::service
