// Per-vertex adjacency partitioned by neighbor level — the PLDS working
// representation (paper §3.2 / Liu et al. SPAA 2022):
//   * `up`   : neighbors at levels >= this vertex's level,
//   * `down` : one set per level j < this vertex's level that holds a
//              neighbor, in ascending order of j. Empty levels store
//              nothing, so the size follows the degree, not the level.
// This gives O(1) access to the up-degree (Invariant 1) and per-level counts
// for desire-level computation (Invariant 2), and supports moving a vertex
// or a neighbor between levels in O(log #down levels) plus expected O(1) per
// affected neighbor.
//
// All mutation happens on the update path where the owner vertex is touched
// by exactly one task at a time; readers never see these structures.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "util/flat_set.hpp"
#include "util/types.hpp"

namespace cpkcore {

class VertexBuckets {
 public:
  [[nodiscard]] std::size_t up_degree() const { return up_.size(); }

  [[nodiscard]] std::size_t degree() const {
    std::size_t d = up_.size();
    for (const auto& b : down_) d += b.set.size();
    return d;
  }

  /// #neighbors at levels >= j, where `my_level` is this vertex's level and
  /// j <= my_level. Cost O(#down levels >= j).
  [[nodiscard]] std::size_t count_at_or_above(
      level_t j, [[maybe_unused]] level_t my_level) const {
    assert(j <= my_level);
    std::size_t c = up_.size();
    for (auto it = down_.rbegin(); it != down_.rend() && it->level >= j; ++it) {
      c += it->set.size();
    }
    return c;
  }

  /// Highest d in [1, my_level] with ok(d, count_at_or_above(d - 1)); 0 if
  /// none. One walk down from the top reads each down level once.
  template <class Ok>
  [[nodiscard]] level_t desire_level(level_t my_level, Ok&& ok) const {
    std::size_t cnt = up_.size();
    auto it = down_.rbegin();
    for (level_t d = my_level; d >= 1; --d) {
      if (it != down_.rend() && it->level == d - 1) cnt += (it++)->set.size();
      if (ok(d, cnt)) return d;
    }
    return 0;
  }

  [[nodiscard]] bool contains(vertex_t w, level_t w_level,
                              level_t my_level) const {
    if (w_level >= my_level) return up_.contains(w);
    const auto it = find_level(down_, w_level);
    return it != down_.end() && it->level == w_level && it->set.contains(w);
  }

  /// Adds neighbor w (currently at w_level); this vertex is at my_level.
  void insert_neighbor(vertex_t w, level_t w_level, level_t my_level) {
    if (w_level >= my_level) {
      up_.insert(w);
      return;
    }
    auto it = find_level(down_, w_level);
    if (it == down_.end() || it->level != w_level) {
      it = down_.insert(it, DownLevel{w_level, {}});
    }
    it->set.insert(w);
  }

  /// Removes neighbor w (currently at w_level); a down level it empties goes.
  void erase_neighbor(vertex_t w, level_t w_level, level_t my_level) {
    if (w_level >= my_level) {
      [[maybe_unused]] const bool erased = up_.erase(w);
      assert(erased);
      return;
    }
    const auto it = find_level(down_, w_level);
    assert(it != down_.end() && it->level == w_level);
    [[maybe_unused]] const bool erased = it->set.erase(w);
    assert(erased);
    if (it->set.empty()) down_.erase(it);
  }

  /// Neighbor w moved from `from` to `to`; this vertex stays at my_level.
  void neighbor_moved(vertex_t w, level_t from, level_t to,
                      level_t my_level) {
    erase_neighbor(w, from, my_level);
    insert_neighbor(w, to, my_level);
  }

  /// This vertex rises one level: old_level -> old_level + 1. Neighbors at
  /// exactly old_level that are *not* rising with it (the caller filters
  /// those via `stays_behind`) drop from `up` into a new top down level.
  template <class StaysBehind>
  void on_my_level_up(level_t old_level, StaysBehind&& stays_behind) {
    assert(down_.empty() || down_.back().level < old_level);
    IntSet<vertex_t> behind;
    up_.for_each([&](vertex_t w) {
      if (stays_behind(w)) behind.insert(w);
    });
    if (behind.empty()) return;
    // Erase after the scan: FlatSet iteration is invalidated by mutation.
    behind.for_each([&](vertex_t w) { up_.erase(w); });
    down_.push_back(DownLevel{old_level, std::move(behind)});
  }

  /// This vertex drops from old_level to new_level < old_level: the down
  /// levels in [new_level, old_level) merge into `up`.
  void on_my_level_down([[maybe_unused]] level_t old_level,
                        level_t new_level) {
    assert(new_level < old_level);
    assert(down_.empty() || down_.back().level < old_level);
    const auto first = find_level(down_, new_level);
    for (auto it = first; it != down_.end(); ++it) {
      it->set.for_each([&](vertex_t w) { up_.insert(w); });
    }
    down_.erase(first, down_.end());
  }

  /// All neighbors currently in `up` (unspecified order).
  [[nodiscard]] std::vector<vertex_t> up_neighbors() const {
    return up_.to_vector();
  }

  template <class F>
  void for_each_up(F&& f) const {
    up_.for_each(std::forward<F>(f));
  }

  /// Iterates neighbors at levels j in [lo, hi).
  template <class F>
  void for_each_down_range(level_t lo, level_t hi, F&& f) const {
    for (auto it = find_level(down_, lo); it != down_.end() && it->level < hi;
         ++it) {
      it->set.for_each(f);
    }
  }

  [[nodiscard]] std::size_t down_size(level_t j) const {
    const auto it = find_level(down_, j);
    return it != down_.end() && it->level == j ? it->set.size() : 0;
  }

  /// Enumerates all neighbors with their stored level bucket:
  /// f(w, bucket_level) where bucket_level == my_level means "in up".
  template <class F>
  void for_each_neighbor(level_t my_level, F&& f) const {
    for (const auto& b : down_) {
      b.set.for_each([&](vertex_t w) { f(w, b.level); });
    }
    up_.for_each([&](vertex_t w) { f(w, my_level); });
  }

  /// #levels below my_level that hold a neighbor: each stores one set.
  [[nodiscard]] std::size_t num_down_levels() const { return down_.size(); }

  /// Heap bytes this object owns: every set's slots plus the down-level
  /// vector's capacity.
  [[nodiscard]] std::size_t heap_bytes() const {
    std::size_t bytes = (up_.capacity() * sizeof(vertex_t)) +
                        (down_.capacity() * sizeof(DownLevel));
    for (const auto& b : down_) bytes += b.set.capacity() * sizeof(vertex_t);
    return bytes;
  }

 private:
  struct DownLevel {
    level_t level;
    IntSet<vertex_t> set;  // never empty
  };

  /// First down level >= j.
  template <class Levels>
  static std::ranges::iterator_t<Levels> find_level(Levels& down, level_t j) {
    return std::ranges::lower_bound(down, j, {}, &DownLevel::level);
  }

  IntSet<vertex_t> up_;
  std::vector<DownLevel> down_;
};

}  // namespace cpkcore
