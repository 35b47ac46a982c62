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
///
/// Two further backoff triggers close the auto-tuning loop against the
/// cluster (each enabled by a nonzero threshold):
///  * replica lag (records the slowest replica trails the primary's
///    applied LSN by): past max_replica_lag, the available latency budget
///    is scaled by threshold/lag — the primary stops outrunning its
///    replicas instead of growing their queues without bound;
///  * read p99 (ns, from the router's read-latency histogram): past
///    target_read_p99_ns, scaled by target/p99 — big apply batches hold
///    the CPLDS write side long enough to stall readers, so the budget
///    backs off when readers degrade.
/// Both signals are EWMA'd like the ack lag, so a recovered cluster grows
/// the budget back (2x growth cap per observation, as always); the
/// combined scale is floored at 1/8 so a melted-down cluster still makes
/// forward progress.
/// Cluster feedback thresholds for AdaptiveBatchSizer; 0 disables a
/// trigger. (Namespace-scope rather than nested so the constructor's `= {}`
/// default can use the member initializers — a nested class's initializers
/// are not parsed until the enclosing class is complete.)
struct SizerFeedback {
  std::uint64_t max_replica_lag = 0;     ///< records behind primary apply
  std::uint64_t target_read_p99_ns = 0;  ///< read p99 ceiling
};

class AdaptiveBatchSizer {
 public:
  using Feedback = SizerFeedback;

  AdaptiveBatchSizer(std::size_t min_ops, std::size_t max_ops,
                     std::uint64_t target_apply_ns, Feedback feedback = {});

  [[nodiscard]] std::size_t budget() const { return budget_; }

  void observe(std::size_t ops, std::uint64_t apply_ns,
               std::uint64_t ack_lag_ns = 0, std::uint64_t replica_lag = 0,
               std::uint64_t read_p99_ns = 0);

 private:
  std::size_t min_ops_;
  std::size_t max_ops_;
  double target_ns_;
  Feedback feedback_;
  double ewma_ns_per_op_ = 0.0;  // 0 = no observation yet
  double ewma_ack_lag_ns_ = 0.0;
  double ewma_replica_lag_ = 0.0;
  double ewma_read_p99_ns_ = 0.0;
  std::size_t budget_;
};

}  // namespace cpkcore::service
