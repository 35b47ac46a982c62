#include "plds/plds.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

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
std::vector<T> flatten(const std::vector<std::vector<T>>& parts) {
  std::vector<std::size_t> offsets(parts.size());
  parallel_for(0, parts.size(),
               [&](std::size_t i) { offsets[i] = parts[i].size(); });
  std::vector<T> out(parallel_scan_exclusive(offsets));
  parallel_for(0, parts.size(), [&](std::size_t i) {
    std::ranges::copy(parts[i],
                      out.begin() + static_cast<std::ptrdiff_t>(offsets[i]));
  });
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
      desire_(num_vertices, 0),
      fixed_stamp_(num_vertices, 0) {}

bool PLDS::has_edge(vertex_t u, vertex_t v) const {
  if (u == v) return false;
  return buckets_[u].contains(v, level_relaxed(v), level_relaxed(u));
}

void PLDS::apply_adjacency(bool insert) {
  auto& halves = batch_halves_;
  const auto starts = parallel_pack<std::size_t>(
      halves.size(),
      [&](std::size_t i) { return i == 0 || halves[i].u != halves[i - 1].u; },
      [](std::size_t i) { return i; });
  parallel_for(0, starts.size(), [&](std::size_t g) {
    const std::size_t end =
        g + 1 < starts.size() ? starts[g + 1] : halves.size();
    const vertex_t at = halves[starts[g]].u;
    const level_t at_level = level_relaxed(at);
    for (std::size_t i = starts[g]; i < end; ++i) {
      vertex_t& other = halves[i].v;
      const level_t other_level = level_relaxed(other);
      // Both halves of an edge see the same answer: only this group's task
      // mutates at's buckets, and only for other neighbors.
      if (buckets_[at].contains(other, other_level, at_level) == insert) {
        other = kNoVertex;  // already present (resp. absent): dropped
        continue;
      }
      if (insert) {
        buckets_[at].insert_neighbor(other, other_level, at_level);
      } else {
        buckets_[at].erase_neighbor(other, other_level, at_level);
      }
    }
  }, step_grain(halves.size() < serial_cutoff(), 0));
  std::erase_if(halves, [](const Edge& h) { return h.v == kNoVertex; });
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
  // Both halves of every edge but self loops, sorted by (at, other) and
  // deduplicated: the one sort normalizes the batch and groups it by
  // endpoint for the adjacency pass and for_each_batch_neighbor.
  batch_halves_.clear();
  batch_halves_.reserve(2 * edges.size());
  for (const Edge& e : edges) {
    if (e.is_self_loop()) continue;
    batch_halves_.push_back(e);
    batch_halves_.push_back(Edge{e.v, e.u});
  }
  parallel_sort(batch_halves_);
  batch_halves_.erase(std::ranges::unique(batch_halves_).begin(),
                      batch_halves_.end());
  apply_adjacency(insert);
  // The distinct endpoints, and the canonical half of each applied edge.
  std::vector<vertex_t> endpoints;
  edges.clear();
  for (const Edge& h : batch_halves_) {
    if (endpoints.empty() || endpoints.back() != h.u) endpoints.push_back(h.u);
    if (h.u < h.v) edges.push_back(h);
  }
  if (insert) {
    num_edges_ += edges.size();
    insertion_rebalance(endpoints);
  } else {
    num_edges_ -= edges.size();
    deletion_rebalance(endpoints);
  }
  return edges;
}

void PLDS::mark_if_needed(vertex_t v, bool insertion_phase) {
  if (!hooks_.on_mark) return;
  if (marked_stamp_[v] == batch_stamp_) return;
  marked_stamp_[v] = batch_stamp_;
  const level_t old_level = level_relaxed(v);
  // Per-thread scratch: a forked step marks its movers from several workers.
  thread_local std::vector<vertex_t> triggers;
  triggers.clear();
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

std::uint64_t PLDS::start_step(bool inline_step, bool insertion_phase) {
  const std::uint64_t step = ++move_step_;
  fixed_.clear();
  if (!inline_step) {
    emitted_.resize(movers_.size());
    for (auto& out : emitted_) out.clear();
  }
  parallel_for(0, movers_.size(), [&](std::size_t i) {
    moving_stamp_[movers_[i]] = step;
    // Mark before any level changes (descriptors must capture old levels
    // and be visible before readers can observe movement).
    mark_if_needed(movers_[i], insertion_phase);
  }, step_grain(inline_step, 0));
  return step;
}

void PLDS::fix_up(std::size_t mover, const NeighborMove& m, bool inline_step) {
  if (!inline_step) {
    emitted_[mover].push_back(m);
    return;
  }
  assert(moving_stamp_[m.at] != move_step_);
  buckets_[m.at].neighbor_moved(m.moved, m.from, m.to, level_relaxed(m.at));
  if (fixed_stamp_[m.at] != move_step_) {
    fixed_stamp_[m.at] = move_step_;
    fixed_.push_back(m.at);
  }
}

void PLDS::finish_step(level_t to, bool inline_step) {
  parallel_for(0, movers_.size(), [&](std::size_t i) {
    level_[movers_[i]].store(to, std::memory_order_seq_cst);
    record_move(movers_[i]);
  }, step_grain(inline_step, 0));
  if (inline_step) return;  // fix-ups already applied in place

  auto moves = flatten(emitted_);
  const auto groups = group_by_key(moves, [](const NeighborMove& m) {
    return m.at;
  });
  fixed_.resize(groups.size());
  // Grain 1: fix-up group sizes are skewed toward hub vertices.
  parallel_for(0, groups.size(), [&](std::size_t g) {
    const vertex_t at = moves[groups[g].begin].at;
    fixed_[g] = at;
    const level_t at_level = level_relaxed(at);
    for (std::size_t i = groups[g].begin; i < groups[g].end; ++i) {
      buckets_[at].neighbor_moved(moves[i].moved, moves[i].from, moves[i].to,
                                  at_level);
    }
  }, 1);
}

void PLDS::insertion_rebalance(const std::vector<vertex_t>& endpoints) {
  // Level buckets: the endpoints (already distinct) as (level << 32 | v)
  // keys, sorted. A vertex's level changes only in the step at its level,
  // so a key's level holds until the sweep reaches it.
  std::vector<std::uint64_t> dirty;
  for (const vertex_t v : endpoints) {
    dirty_stamp_[v] = batch_stamp_;
    dirty.push_back((std::uint64_t(level_relaxed(v)) << 32) | v);
  }
  parallel_sort(dirty);
  const auto key_level = [&](std::size_t i) { return level_t(dirty[i] >> 32); };

  std::size_t next = 0;
  carried_.clear();  // candidates at lmin from the step below
  level_t lmin = 0;
  for (;;) {
    if (carried_.empty()) {
      if (next == dirty.size()) break;
      lmin = key_level(next);
    }
    if (lmin >= params_.num_levels() - 1) break;  // top level cannot rise
    for (; next < dirty.size() && key_level(next) == lmin; ++next) {
      carried_.push_back(static_cast<vertex_t>(dirty[next]));
    }

    // Non-movers leave the dirty set for good: every later step sits above
    // their level, so no neighbor can rise into it.
    movers_.clear();
    for (const vertex_t v : carried_) {
      if (!params_.inv1_ok(lmin, buckets_[v].up_degree())) movers_.push_back(v);
    }
    carried_.clear();
    if (movers_.empty()) continue;

    const bool inline_step = runs_inline(
        movers_, [&](vertex_t v) { return buckets_[v].up_degree(); });
    const std::uint64_t step =
        start_step(inline_step, /*insertion_phase=*/true);

    // Restructure each mover's own buckets and fix up non-moving neighbors
    // at levels >= lmin + 1. Uses pre-move levels throughout.
    // Grain 1: the bucket scans are degree-proportional, so per-mover tasks
    // keep a high-degree mover from serializing its leaf.
    parallel_for(0, movers_.size(), [&](std::size_t i) {
      const vertex_t v = movers_[i];
      buckets_[v].for_each_up([&](vertex_t w) {
        if (moving_stamp_[w] == step) return;  // rises with v; no fix-up
        if (level_relaxed(w) >= lmin + 1) {
          fix_up(i, NeighborMove{w, v, lmin, lmin + 1}, inline_step);
        }
      });
      // Neighbors staying at lmin drop from v's `up` into a down level lmin.
      buckets_[v].on_my_level_up(lmin, [&](vertex_t w) {
        return moving_stamp_[w] != step && level_relaxed(w) == lmin;
      });
    }, step_grain(inline_step, 1));
    finish_step(lmin + 1, inline_step);

    // The next step's candidates: movers (recheck at lmin+1), vertices
    // whose up-degree grew (fixed up at exactly lmin+1: the movers joined
    // their `up` bucket), and the bucket at lmin+1.
    std::swap(carried_, movers_);
    for (const vertex_t w : fixed_) {
      if (level_relaxed(w) == lmin + 1 && dirty_stamp_[w] != batch_stamp_) {
        dirty_stamp_[w] = batch_stamp_;
        carried_.push_back(w);
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

void PLDS::deletion_rebalance(const std::vector<vertex_t>& endpoints) {
  // Pending set P: vertices violating Invariant 2, with cached desire
  // levels. Counts only decrease during the deletion phase, so a violating
  // vertex stays violating until it moves.
  carried_.clear();
  for (vertex_t v : endpoints) {
    if (inv2_violated(v)) {
      dirty_stamp_[v] = batch_stamp_;
      desire_[v] = desire_level(v);
      carried_.push_back(v);
    }
  }

  while (!carried_.empty()) {
    const level_t target = static_cast<level_t>(parallel_reduce(
        carried_.size(), std::numeric_limits<level_t>::max(),
        [&](std::size_t i) { return desire_[carried_[i]]; },
        [](level_t a, level_t b) { return std::min(a, b); }));

    // One pass splits P: the movers go to its tail and from there into
    // movers_; the rest stay pending.
    const auto rest_end = std::partition(
        carried_.begin(), carried_.end(),
        [&](vertex_t v) { return desire_[v] != target; });
    movers_.assign(rest_end, carried_.end());
    carried_.erase(rest_end, carried_.end());
    assert(!movers_.empty());

    const bool inline_step = runs_inline(
        movers_, [&](vertex_t v) { return buckets_[v].degree(); });
    const std::uint64_t step =
        start_step(inline_step, /*insertion_phase=*/false);

    // Fix up non-moving neighbors above the target level, using pre-move
    // state: v's old level and bucket indices identify where v sat in each
    // neighbor's structure. Grain 1 for the degree-skewed scans.
    parallel_for(0, movers_.size(), [&](std::size_t i) {
      const vertex_t v = movers_[i];
      const level_t old_level = level_relaxed(v);
      const auto moved = [&](vertex_t w) {
        if (moving_stamp_[w] == step) return;
        fix_up(i, NeighborMove{w, v, old_level, target}, inline_step);
      };
      buckets_[v].for_each_up(moved);
      buckets_[v].for_each_down_range(target + 1, old_level, moved);
      // Own restructure: down levels [target, old_level) merge into `up`.
      buckets_[v].on_my_level_down(old_level, target);
    }, step_grain(inline_step, 1));
    finish_step(target, inline_step);

    // Movers now satisfy Invariant 2 at their desire level by construction.
    for (const vertex_t v : movers_) dirty_stamp_[v] = 0;

    // Enqueue new violators and refresh stale desire levels.
    //  * A *pending* vertex must refresh whenever any neighbor moved: its
    //    cached desire level depends on counts at levels below its current
    //    one. (Counts only decrease during the deletion phase, so refreshed
    //    desires only decrease — the min-target processing order survives.)
    //  * Every violator is pending, so a non-pending vertex that violates
    //    Invariant 2 now does so because a neighbor left Z_{level-1} in
    //    this step; it joins the pending set.
    for (const vertex_t w : fixed_) {
      if (dirty_stamp_[w] == batch_stamp_) {
        desire_[w] = desire_level(w);  // unconditional refresh
      } else if (inv2_violated(w)) {
        dirty_stamp_[w] = batch_stamp_;
        desire_[w] = desire_level(w);
        carried_.push_back(w);
      }
    }
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
