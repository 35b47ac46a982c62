// Parallel batch-dynamic level data structure (PLDS, Liu et al. SPAA 2022;
// paper §3.2). Maintains a (2+epsilon)-approximate k-core decomposition
// under batches of edge insertions or deletions:
//
//  * Insertion phase: levels are processed in increasing order; all vertices
//    at the current level violating Invariant 1 rise one level in parallel.
//    Each level is visited at most once per batch. The endpoints are sorted
//    by level once, and a step at level l makes new dirt only at l + 1, so
//    a step reads only its own level's candidates.
//  * Deletion phase: each vertex violating Invariant 2 computes its *desire
//    level* (the highest level below its current one where Invariant 2
//    holds) and moves there directly; desire levels of affected neighbors
//    are recomputed as moves land.
//
// A batch sorts its edges once: both halves of every edge, by endpoint,
// so each endpoint's adjacency is updated by one task. A move step's
// movers restructure their own buckets and fix up their non-moving
// neighbors' buckets (the `neighbor_moved` fix-ups). A step whose scan
// work (1 + degree summed over its movers) is below serial_cutoff() runs
// inline on the batch thread and applies each fix-up in place; a larger
// step forks one task per mover, then groups the fix-ups by neighbor
// (semisort) so every VertexBuckets instance is mutated by exactly one
// task — no locks on the update path. Both compute the same levels.
//
// Reader-visible state is only the atomic per-vertex level array; CPLDS
// layers descriptors on top via the marking hooks below.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "lds/params.hpp"
#include "plds/level_buckets.hpp"
#include "util/types.hpp"

namespace cpkcore {

class PLDS {
 public:
  /// CPLDS integration points. `on_mark(v, old_level, triggers)` fires the
  /// first time v is about to move in the current batch, *before* its level
  /// changes; `triggers` holds the marked neighbors per the paper's trigger
  /// rule (insertions: marked neighbors at v's level or above; deletions:
  /// marked neighbors strictly below level(v) - 1). `is_marked` lets the
  /// PLDS filter triggers. on_mark may call for_each_batch_neighbor.
  struct Hooks {
    std::function<void(vertex_t, level_t, std::span<const vertex_t>)> on_mark;
    std::function<bool(vertex_t)> is_marked;
  };

  PLDS(vertex_t num_vertices, LDSParams params);

  PLDS(const PLDS&) = delete;
  PLDS& operator=(const PLDS&) = delete;

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Applies a batch of insertions (deletions). Self loops, duplicates, and
  /// already-present (resp. absent) edges are dropped. Returns the edges
  /// actually applied.
  std::vector<Edge> insert_batch(std::vector<Edge> edges);
  std::vector<Edge> delete_batch(std::vector<Edge> edges);

  /// Reader-visible level of v (atomic).
  [[nodiscard]] level_t level(vertex_t v) const {
    return level_[v].load(std::memory_order_seq_cst);
  }

  [[nodiscard]] double coreness_estimate(vertex_t v) const {
    return params_.coreness_estimate(level(v));
  }

  [[nodiscard]] const LDSParams& params() const { return params_; }
  [[nodiscard]] vertex_t num_vertices() const {
    return static_cast<vertex_t>(level_.size());
  }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  /// Update-path only (not safe concurrent with a running batch).
  [[nodiscard]] bool has_edge(vertex_t u, vertex_t v) const;
  [[nodiscard]] std::size_t degree(vertex_t v) const {
    return buckets_[v].degree();
  }

  /// All neighbors of v (unspecified order). Quiescent use only.
  [[nodiscard]] std::vector<vertex_t> neighbors(vertex_t v) const {
    std::vector<vertex_t> out;
    out.reserve(buckets_[v].degree());
    buckets_[v].for_each_neighbor(
        level_relaxed(v), [&](vertex_t w, level_t) { out.push_back(w); });
    return out;
  }

  /// Neighbors of v at levels >= level(v) (the `up` bucket). Quiescent use
  /// only; the basis of the low out-degree orientation application.
  [[nodiscard]] std::vector<vertex_t> up_neighbors(vertex_t v) const {
    return buckets_[v].up_neighbors();
  }

  /// Distinct vertices whose level changed in the current (or most recent)
  /// batch, recorded independently of the CPLDS hooks — the dirty set the
  /// published-view maintenance copies pages for. Valid between batches
  /// (quiescent use only); reset by the next batch.
  [[nodiscard]] std::span<const vertex_t> moved_vertices() const {
    return {moved_list_.data(), moved_count_.load(std::memory_order_acquire)};
  }

  /// Calls f(w) once for every edge (v, w) the current batch applies. Valid
  /// from the batch's first on_mark until the next batch starts (read-only
  /// then, so safe to call concurrently).
  template <class F>
  void for_each_batch_neighbor(vertex_t v, F&& f) const {
    const auto [lo, hi] =
        std::ranges::equal_range(batch_halves_, v, {}, &Edge::u);
    for (auto it = lo; it != hi; ++it) f(it->v);
  }

  /// Bytes the level buckets take: per vertex, the VertexBuckets object and
  /// the heap it owns. Quiescent use only.
  [[nodiscard]] std::size_t bucket_bytes() const;

  /// Test hook: checks bucket/level consistency and both invariants for
  /// every vertex. On failure returns false and, if `why` is non-null,
  /// stores a description.
  [[nodiscard]] bool validate(std::string* why = nullptr) const;

 private:
  /// A neighbor-bucket fix-up: vertex `moved` changed level from `from` to
  /// `to`; the buckets of vertex `at` must reflect it.
  struct NeighborMove {
    vertex_t at = kNoVertex;
    vertex_t moved = kNoVertex;
    level_t from = kNoLevel;
    level_t to = kNoLevel;
  };

  /// Sorts and deduplicates the batch's halves, applies the adjacency
  /// changes, rebalances. Returns the applied edges, canonical and sorted.
  std::vector<Edge> apply_batch(std::vector<Edge> edges, bool insert);
  /// Inserts/removes the sorted batch halves into/from the bucket
  /// structures, each endpoint's halves in one task, and drops the halves
  /// of edges already present (resp. absent).
  void apply_adjacency(bool insert);

  void insertion_rebalance(const std::vector<vertex_t>& endpoints);
  void deletion_rebalance(const std::vector<vertex_t>& endpoints);

  /// Stamps and marks the step's movers_ before any level changes; returns
  /// the step's stamp.
  std::uint64_t start_step(bool inline_step, bool insertion_phase);
  /// Fix-up `m`, emitted by movers_[mover]: an inline step applies it now
  /// (its target never moves in the step), a forked step buffers it.
  void fix_up(std::size_t mover, const NeighborMove& m, bool inline_step);
  /// Publishes the movers' new level, records them as moved, and applies a
  /// forked step's buffered fix-ups grouped by target. After it, fixed_
  /// holds each vertex the step fixed up, once.
  void finish_step(level_t to, bool inline_step);

  /// Calls hooks_.on_mark for v if this is v's first move in the batch.
  void mark_if_needed(vertex_t v, bool insertion_phase);

  /// Records v into the batch's moved set (first move only; a vertex can
  /// move several times per batch). Called from the level-publication
  /// steps, where movers are distinct within a step and steps are
  /// barrier-separated — so each stamp slot has one writer at a time.
  void record_move(vertex_t v) {
    if (moved_stamp_[v] == batch_stamp_) return;
    moved_stamp_[v] = batch_stamp_;
    moved_list_[moved_count_.fetch_add(1, std::memory_order_relaxed)] = v;
  }

  /// Desire level (deletion phase): highest d <= level(v) where Invariant 2
  /// holds for v at level d; 0 if none.
  [[nodiscard]] level_t desire_level(vertex_t v) const;

  [[nodiscard]] bool inv2_violated(vertex_t v) const {
    const level_t l = level_relaxed(v);
    if (l <= 0) return false;
    return !params_.inv2_ok(l, buckets_[v].count_at_or_above(l - 1, l));
  }

  /// Non-synchronizing level read for the update path.
  [[nodiscard]] level_t level_relaxed(vertex_t v) const {
    return level_[v].load(std::memory_order_relaxed);
  }

  LDSParams params_;
  std::vector<std::atomic<level_t>> level_;
  std::vector<VertexBuckets> buckets_;
  std::size_t num_edges_ = 0;
  Hooks hooks_;

  // Batch and step scratch, kept across batches (stamp arrays avoid
  // per-batch clearing).
  std::vector<Edge> batch_halves_;  // applied halves (u = at), sorted
  std::uint32_t batch_stamp_ = 0;
  std::vector<std::uint32_t> marked_stamp_;  // v marked in batch b
  std::vector<std::uint32_t> dirty_stamp_;   // v in the dirty/pending set
  std::vector<std::uint32_t> moved_stamp_;   // v already in the moved set
  std::vector<vertex_t> moved_list_;         // distinct movers this batch
  std::atomic<std::size_t> moved_count_{0};
  std::uint64_t move_step_ = 0;
  std::vector<std::uint64_t> moving_stamp_;  // v moves in step s
  std::vector<level_t> desire_;              // cached desire levels
  std::vector<vertex_t> carried_;  // the next step's candidates / pending
  std::vector<vertex_t> movers_;   // the current step's movers
  std::vector<std::vector<NeighborMove>> emitted_;  // forked: per mover
  std::vector<vertex_t> fixed_;    // distinct vertices fixed up this step
  std::vector<std::uint64_t> fixed_stamp_;  // v in fixed_ in step s
};

}  // namespace cpkcore
