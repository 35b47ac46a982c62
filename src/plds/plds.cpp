#include "plds/plds.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "graph/batch.hpp"
#include "parallel/primitives.hpp"
#include "parallel/sort.hpp"

namespace cpkcore {

namespace {

/// Grain of a step's loops: one that no loop reaches runs the loop inline
/// on the batch thread (parallel_for's serial path).
constexpr std::size_t step_grain(bool inline_step, std::size_t fork_grain) {
  return inline_step ? std::numeric_limits<std::size_t>::max() : fork_grain;
}

/// True when a step's scan work, 1 + work(v) summed over its movers, stays
/// below serial_cutoff().
template <class Work>
bool runs_inline(const std::vector<vertex_t>& movers, Work&& work) {
  std::size_t total = 0;
  for (const vertex_t v : movers) {
    if ((total += 1 + work(v)) >= serial_cutoff()) return false;
  }
  return true;
}

/// Concatenates the per-mover fix-up lists.
template <class T>
std::vector<T> flatten(const std::vector<std::vector<T>>& parts,
                       bool inline_step) {
  const std::size_t grain = step_grain(inline_step, 0);
  std::vector<std::size_t> offsets(parts.size());
  parallel_for(0, parts.size(),
               [&](std::size_t i) { offsets[i] = parts[i].size(); }, grain);
  std::vector<T> out(parallel_scan_exclusive(offsets));
  parallel_for(0, parts.size(), [&](std::size_t i) {
    std::ranges::copy(parts[i],
                      out.begin() + static_cast<std::ptrdiff_t>(offsets[i]));
  }, grain);
  return out;
}

}  // namespace

PLDS::PLDS(vertex_t num_vertices, LDSParams params)
    : params_(std::move(params)),
      level_(num_vertices),
      buckets_(num_vertices),
      marked_stamp_(num_vertices, 0),
      dirty_stamp_(num_vertices, 0),
      moved_stamp_(num_vertices, 0),
      moved_list_(num_vertices, kNoVertex),
      moving_stamp_(num_vertices, 0),
      desire_(num_vertices, 0) {}

bool PLDS::has_edge(vertex_t u, vertex_t v) const {
  if (u == v) return false;
  return buckets_[u].contains(v, level_relaxed(v), level_relaxed(u));
}

std::vector<vertex_t> PLDS::apply_adjacency(const std::vector<Edge>& edges,
                                            bool insert) {
  const bool inline_step = 2 * edges.size() < serial_cutoff();
  batch_halves_.resize(edges.size() * 2);
  parallel_for(0, edges.size(), [&](std::size_t i) {
    batch_halves_[2 * i] = BatchHalf{edges[i].u, edges[i].v};
    batch_halves_[2 * i + 1] = BatchHalf{edges[i].v, edges[i].u};
  }, step_grain(inline_step, 0));
  auto groups =
      group_by_key(batch_halves_, [](const BatchHalf& h) { return h.at; });
  std::vector<vertex_t> endpoints(groups.size());
  // Grain 1: group sizes follow the degree distribution, so a hub vertex's
  // group dominates; per-group tasks let the pool steal around it.
  parallel_for(0, groups.size(), [&](std::size_t g) {
    const vertex_t at = batch_halves_[groups[g].begin].at;
    endpoints[g] = at;
    const level_t at_level = level_relaxed(at);
    for (std::size_t i = groups[g].begin; i < groups[g].end; ++i) {
      const vertex_t other = batch_halves_[i].other;
      if (insert) {
        buckets_[at].insert_neighbor(other, level_relaxed(other), at_level);
      } else {
        buckets_[at].erase_neighbor(other, level_relaxed(other), at_level);
      }
    }
  }, step_grain(inline_step, 1));
  return endpoints;
}

std::vector<Edge> PLDS::insert_batch(std::vector<Edge> edges) {
  return apply_batch(std::move(edges), /*insert=*/true);
}

std::vector<Edge> PLDS::delete_batch(std::vector<Edge> edges) {
  return apply_batch(std::move(edges), /*insert=*/false);
}

std::vector<Edge> PLDS::apply_batch(std::vector<Edge> edges, bool insert) {
  ++batch_stamp_;
  moved_count_.store(0, std::memory_order_relaxed);
  batch_halves_.clear();
  normalize_edges(edges);
  edges = parallel_filter(
      edges, [&](const Edge& e) { return has_edge(e.u, e.v) != insert; });
  if (edges.empty()) return edges;
  auto endpoints = apply_adjacency(edges, insert);
  if (insert) {
    num_edges_ += edges.size();
    insertion_rebalance(std::move(endpoints));
  } else {
    num_edges_ -= edges.size();
    deletion_rebalance(std::move(endpoints));
  }
  return edges;
}

void PLDS::mark_if_needed(vertex_t v, bool insertion_phase) {
  if (!hooks_.on_mark) return;
  if (marked_stamp_[v] == batch_stamp_) return;
  marked_stamp_[v] = batch_stamp_;
  const level_t old_level = level_relaxed(v);
  std::vector<vertex_t> triggers;
  if (hooks_.is_marked) {
    if (insertion_phase) {
      // Marked neighbors at the same or higher level (all of `up`).
      buckets_[v].for_each_up([&](vertex_t w) {
        if (hooks_.is_marked(w)) triggers.push_back(w);
      });
    } else {
      // Marked neighbors strictly below level(v) - 1.
      buckets_[v].for_each_down_range(0, old_level - 1, [&](vertex_t w) {
        if (hooks_.is_marked(w)) triggers.push_back(w);
      });
    }
  }
  hooks_.on_mark(v, old_level, triggers);
}

std::uint64_t PLDS::start_step(const std::vector<vertex_t>& movers,
                               bool inline_step, bool insertion_phase) {
  const std::uint64_t step = ++move_step_;
  const std::size_t grain = step_grain(inline_step, 0);
  parallel_for(
      0, movers.size(), [&](std::size_t i) { moving_stamp_[movers[i]] = step; },
      grain);
  // Mark before any level changes (descriptors must capture old levels and
  // be visible before readers can observe movement).
  if (hooks_.on_mark) {
    parallel_for(
        0, movers.size(),
        [&](std::size_t i) { mark_if_needed(movers[i], insertion_phase); },
        grain);
  }
  return step;
}

void PLDS::publish_levels(const std::vector<vertex_t>& movers, level_t to,
                          bool inline_step) {
  parallel_for(0, movers.size(), [&](std::size_t i) {
    level_[movers[i]].store(to, std::memory_order_seq_cst);
    record_move(movers[i]);
  }, step_grain(inline_step, 0));
}

void PLDS::insertion_rebalance(std::vector<vertex_t> dirty) {
  // Level buckets: the endpoints (already distinct) sorted by level. A
  // vertex's level changes only in the step at its level, so the order
  // holds until the sweep reaches it.
  for (vertex_t v : dirty) dirty_stamp_[v] = batch_stamp_;
  parallel_sort(dirty, [&](vertex_t a, vertex_t b) {
    return std::pair{level_relaxed(a), a} < std::pair{level_relaxed(b), b};
  });

  auto next_bucket = dirty.begin();
  std::vector<vertex_t> carried;  // candidates at lmin from the step below
  level_t lmin = 0;
  for (;;) {
    if (carried.empty()) {
      if (next_bucket == dirty.end()) break;
      lmin = level_relaxed(*next_bucket);
    }
    if (lmin >= params_.num_levels() - 1) break;  // top level cannot rise
    const auto bucket_end = std::find_if(
        next_bucket, dirty.end(),
        [&](vertex_t v) { return level_relaxed(v) != lmin; });
    carried.insert(carried.end(), next_bucket, bucket_end);
    next_bucket = bucket_end;

    // Non-movers leave the dirty set for good: every later step sits above
    // their level, so no neighbor can rise into it.
    auto movers = parallel_filter(carried, [&](vertex_t v) {
      return !params_.inv1_ok(lmin, buckets_[v].up_degree());
    });
    carried.clear();
    if (movers.empty()) continue;

    const bool inline_step = runs_inline(
        movers, [&](vertex_t v) { return buckets_[v].up_degree(); });
    const std::uint64_t step =
        start_step(movers, inline_step, /*insertion_phase=*/true);

    // Restructure each mover's own buckets and emit fix-ups for non-moving
    // neighbors at levels >= lmin + 1. Uses pre-move levels throughout.
    // Grain 1: the bucket scans are degree-proportional, so per-mover tasks
    // keep a high-degree mover from serializing its leaf.
    std::vector<std::vector<NeighborMove>> emitted(movers.size());
    parallel_for(0, movers.size(), [&](std::size_t i) {
      const vertex_t v = movers[i];
      auto& out = emitted[i];
      buckets_[v].for_each_up([&](vertex_t w) {
        if (moving_stamp_[w] == step) return;  // rises with v; no fix-up
        if (level_relaxed(w) >= lmin + 1) {
          out.push_back(NeighborMove{w, v, lmin, lmin + 1});
        }
      });
      // Neighbors staying at lmin drop from v's `up` into a down level lmin.
      buckets_[v].on_my_level_up(lmin, [&](vertex_t w) {
        return moving_stamp_[w] != step && level_relaxed(w) == lmin;
      });
    }, step_grain(inline_step, 1));

    publish_levels(movers, lmin + 1, inline_step);

    // Group fix-ups by affected vertex and apply; a vertex whose up-degree
    // grows (neighbor rose into its level) becomes dirty.
    auto moves = flatten(emitted, inline_step);
    auto groups = group_by_key(moves, [](const NeighborMove& m) {
      return m.at;
    });
    std::vector<std::uint8_t> grew(groups.size(), 0);
    // Grain 1: fix-up group sizes are skewed toward hub vertices.
    parallel_for(0, groups.size(), [&](std::size_t g) {
      const vertex_t at = moves[groups[g].begin].at;
      const level_t at_level = level_relaxed(at);
      for (std::size_t i = groups[g].begin; i < groups[g].end; ++i) {
        buckets_[at].neighbor_moved(moves[i].moved, moves[i].from,
                                    moves[i].to, at_level);
      }
      // Neighbors rose to lmin+1; `at`'s up-degree grew iff it sits exactly
      // at lmin+1 (they joined its `up` bucket).
      grew[g] = (at_level == lmin + 1) ? 1 : 0;
    }, step_grain(inline_step, 1));

    // The next step's candidates: movers (recheck at lmin+1), vertices
    // whose up-degree grew, and the bucket at lmin+1.
    carried = std::move(movers);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (!grew[g]) continue;
      const vertex_t at = moves[groups[g].begin].at;
      if (dirty_stamp_[at] != batch_stamp_) {
        dirty_stamp_[at] = batch_stamp_;
        carried.push_back(at);
      }
    }
    ++lmin;
  }
  // Clear residual stamps lazily: batch_stamp_ changes next batch.
}

level_t PLDS::desire_level(vertex_t v) const {
  return buckets_[v].desire_level(
      level_relaxed(v),
      [&](level_t d, std::size_t cnt) { return params_.inv2_ok(d, cnt); });
}

void PLDS::deletion_rebalance(std::vector<vertex_t> dirty) {
  // Pending set P: vertices violating Invariant 2, with cached desire
  // levels. Counts only decrease during the deletion phase, so a violating
  // vertex stays violating until it moves.
  std::vector<vertex_t> pending;
  for (vertex_t v : dirty) {
    if (dirty_stamp_[v] == batch_stamp_) continue;
    if (inv2_violated(v)) {
      dirty_stamp_[v] = batch_stamp_;
      desire_[v] = desire_level(v);
      pending.push_back(v);
    }
  }

  while (!pending.empty()) {
    const level_t target = static_cast<level_t>(parallel_reduce(
        pending.size(), std::numeric_limits<level_t>::max(),
        [&](std::size_t i) { return desire_[pending[i]]; },
        [](level_t a, level_t b) { return std::min(a, b); }));

    auto movers = parallel_filter(
        pending, [&](vertex_t v) { return desire_[v] == target; });
    auto rest = parallel_filter(
        pending, [&](vertex_t v) { return desire_[v] != target; });
    assert(!movers.empty());

    const bool inline_step = runs_inline(
        movers, [&](vertex_t v) { return buckets_[v].degree(); });
    const std::uint64_t step =
        start_step(movers, inline_step, /*insertion_phase=*/false);

    // Emit fix-ups for non-moving neighbors above the target level, using
    // pre-move state: v's old level and bucket indices identify where v sat
    // in each neighbor's structure. Grain 1 for the degree-skewed scans.
    std::vector<std::vector<NeighborMove>> emitted(movers.size());
    parallel_for(0, movers.size(), [&](std::size_t i) {
      const vertex_t v = movers[i];
      const level_t old_level = level_relaxed(v);
      auto& out = emitted[i];
      buckets_[v].for_each_up([&](vertex_t w) {
        if (moving_stamp_[w] == step) return;
        out.push_back(NeighborMove{w, v, old_level, target});
      });
      buckets_[v].for_each_down_range(target + 1, old_level, [&](vertex_t w) {
        if (moving_stamp_[w] == step) return;
        out.push_back(NeighborMove{w, v, old_level, target});
      });
      // Own restructure: down levels [target, old_level) merge into `up`.
      buckets_[v].on_my_level_down(old_level, target);
    }, step_grain(inline_step, 1));

    publish_levels(movers, target, inline_step);

    auto moves = flatten(emitted, inline_step);
    auto groups = group_by_key(moves, [](const NeighborMove& m) {
      return m.at;
    });
    std::vector<std::uint8_t> affected(groups.size(), 0);
    parallel_for(0, groups.size(), [&](std::size_t g) {
      const vertex_t at = moves[groups[g].begin].at;
      const level_t at_level = level_relaxed(at);
      bool touched = false;
      for (std::size_t i = groups[g].begin; i < groups[g].end; ++i) {
        // `from` is v's pre-move level; >= at_level means v was in at's
        // `up` bucket (erase_neighbor dispatches on that comparison).
        buckets_[at].neighbor_moved(moves[i].moved, moves[i].from,
                                    moves[i].to, at_level);
        // v left Z_{at_level - 1} iff it was at >= at_level - 1 and landed
        // below; those departures can break Invariant 2 of `at`.
        if (moves[i].from + 1 >= at_level && moves[i].to + 1 < at_level) {
          touched = true;
        }
      }
      affected[g] = touched ? 1 : 0;
    }, step_grain(inline_step, 1));

    // Movers now satisfy Invariant 2 at their desire level by construction.
    parallel_for(
        0, movers.size(), [&](std::size_t i) { dirty_stamp_[movers[i]] = 0; },
        step_grain(inline_step, 0));

    // Enqueue new violators and refresh stale desire levels.
    //  * A *pending* vertex must refresh whenever any neighbor moved: its
    //    cached desire level depends on counts at levels below its current
    //    one, which the current-level `affected` test does not cover.
    //    (Counts only decrease during the deletion phase, so refreshed
    //    desires only decrease — the min-target processing order survives.)
    //  * A non-pending vertex joins the pending set iff a departure from
    //    Z_{level-1} broke its Invariant 2.
    std::vector<vertex_t> next = std::move(rest);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const vertex_t at = moves[groups[g].begin].at;
      if (dirty_stamp_[at] == batch_stamp_) {
        desire_[at] = desire_level(at);  // unconditional refresh
      } else if (affected[g] && inv2_violated(at)) {
        dirty_stamp_[at] = batch_stamp_;
        desire_[at] = desire_level(at);
        next.push_back(at);
      }
    }
    pending = std::move(next);
  }
}

std::size_t PLDS::bucket_bytes() const {
  std::size_t bytes = buckets_.size() * sizeof(VertexBuckets);
  for (const auto& b : buckets_) bytes += b.heap_bytes();
  return bytes;
}

bool PLDS::validate(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  const vertex_t n = num_vertices();
  std::size_t half_edges = 0;
  for (vertex_t v = 0; v < n; ++v) {
    const level_t lv = level_relaxed(v);
    if (lv < 0 || lv >= params_.num_levels()) {
      return fail("level out of range at vertex " + std::to_string(v));
    }
    bool ok = true;
    buckets_[v].for_each_neighbor(lv, [&](vertex_t w, level_t bucket) {
      const level_t lw = level_relaxed(w);
      // `up` bucket is keyed by my level; down buckets by exact level.
      if (bucket == lv ? (lw < lv) : (lw != bucket)) ok = false;
      if (!buckets_[w].contains(v, lv, lw)) ok = false;
      ++half_edges;
    });
    if (!ok) return fail("bucket inconsistency at vertex " + std::to_string(v));
    if (!params_.inv1_ok(lv, buckets_[v].up_degree())) {
      return fail("Invariant 1 violated at vertex " + std::to_string(v));
    }
    if (lv > 0 &&
        !params_.inv2_ok(lv, buckets_[v].count_at_or_above(lv - 1, lv))) {
      return fail("Invariant 2 violated at vertex " + std::to_string(v));
    }
  }
  if (half_edges != 2 * num_edges_) {
    return fail("edge count mismatch: " + std::to_string(half_edges) +
                " half-edges vs m=" + std::to_string(num_edges_));
  }
  return true;
}

}  // namespace cpkcore
