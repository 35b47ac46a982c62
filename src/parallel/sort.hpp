// Parallel sample sort and key-grouping (semisort substitute).
//
// Sample sort: oversample to pick bucket pivots, histogram each block,
// scatter into bucket-contiguous positions, sort buckets in parallel. This
// is the standard shared-memory formulation (e.g., ParlayLib's sample_sort)
// without in-place transposition — we trade one temporary array for clarity.
//
// Bucket sorting exploits the fork-join runtime's nested parallelism: each
// bucket is a stealable task (grain 1), and a bucket larger than the serial
// cutoff recursively forks a three-way-partition quicksort, so one skewed
// bucket cannot serialize the tail of the sort.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "parallel/primitives.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/tuning.hpp"
#include "util/rng.hpp"

namespace cpkcore {

namespace detail {
/// Fork-join three-way quicksort for oversized buckets. `depth` bounds the
/// recursion against adversarial pivots; at 0 (or below the cutoff) it
/// finishes with std::sort.
template <class It, class Less>
void sort_subtask(It lo, It hi, Less& less, int depth) {
  const std::size_t n = static_cast<std::size_t>(hi - lo);
  if (n <= sort_serial_cutoff() || depth == 0) {
    std::sort(lo, hi, less);
    return;
  }
  // Median-of-three pivot.
  auto mid = lo + static_cast<std::ptrdiff_t>(n / 2);
  auto med3 = [&](It a, It b, It c) {
    if (less(*b, *a)) std::swap(a, b);
    if (less(*c, *b)) {
      b = c;
      if (less(*b, *a)) b = a;
    }
    return b;
  };
  const auto pivot = *med3(lo, mid, hi - 1);
  It m1 = std::partition(lo, hi, [&](const auto& x) { return less(x, pivot); });
  It m2 =
      std::partition(m1, hi, [&](const auto& x) { return !less(pivot, x); });
  fork2([&] { sort_subtask(lo, m1, less, depth - 1); },
        [&] { sort_subtask(m2, hi, less, depth - 1); });
}
}  // namespace detail

template <class T, class Less = std::less<T>>
void parallel_sort(std::vector<T>& data, Less less = Less{}) {
  const std::size_t n = data.size();
  if (n < sort_serial_cutoff()) {
    std::sort(data.begin(), data.end(), less);
    return;
  }
  const std::size_t num_buckets =
      std::min<std::size_t>(256, std::max<std::size_t>(2, num_workers() * 4));
  const std::size_t oversample = 8;

  // 1. Choose pivots from a random sample.
  Xoshiro256 rng(0xC0FFEE123ULL + n);
  std::vector<T> sample(num_buckets * oversample);
  for (auto& s : sample) s = data[rng.next_below(n)];
  std::sort(sample.begin(), sample.end(), less);
  std::vector<T> pivots(num_buckets - 1);
  for (std::size_t i = 0; i + 1 < num_buckets; ++i) {
    pivots[i] = sample[(i + 1) * oversample];
  }

  auto bucket_of = [&](const T& x) -> std::size_t {
    return static_cast<std::size_t>(
        std::upper_bound(pivots.begin(), pivots.end(), x, less) -
        pivots.begin());
  };

  // 2. Per-block histograms.
  const std::size_t blocks = detail::default_blocks(n);
  const auto bounds = detail::block_bounds(n, blocks);
  std::vector<std::uint16_t> bucket_id(n);
  std::vector<std::size_t> hist(blocks * num_buckets, 0);
  parallel_for(0, blocks, [&](std::size_t b) {
    std::size_t* h = hist.data() + b * num_buckets;
    for (std::size_t i = bounds[b]; i < bounds[b + 1]; ++i) {
      const std::size_t k = bucket_of(data[i]);
      bucket_id[i] = static_cast<std::uint16_t>(k);
      ++h[k];
    }
  });

  // 3. Column-major exclusive scan of the (blocks x buckets) matrix so each
  // bucket's output region is contiguous.
  std::vector<std::size_t> offsets(blocks * num_buckets);
  std::size_t total = 0;
  std::vector<std::size_t> bucket_start(num_buckets + 1);
  for (std::size_t k = 0; k < num_buckets; ++k) {
    bucket_start[k] = total;
    for (std::size_t b = 0; b < blocks; ++b) {
      offsets[b * num_buckets + k] = total;
      total += hist[b * num_buckets + k];
    }
  }
  bucket_start[num_buckets] = total;

  // 4. Scatter.
  std::vector<T> out(n);
  parallel_for(0, blocks, [&](std::size_t b) {
    std::size_t* off = offsets.data() + b * num_buckets;
    for (std::size_t i = bounds[b]; i < bounds[b + 1]; ++i) {
      out[off[bucket_id[i]]++] = data[i];
    }
  });

  // 5. Sort each bucket. Grain 1 makes every bucket its own stealable task,
  // and oversized buckets fork further inside sort_subtask.
  parallel_for(
      0, num_buckets,
      [&](std::size_t k) {
        detail::sort_subtask(
            out.begin() + static_cast<std::ptrdiff_t>(bucket_start[k]),
            out.begin() + static_cast<std::ptrdiff_t>(bucket_start[k + 1]),
            less, /*depth=*/48);
      },
      /*grain=*/1);

  data = std::move(out);
}

/// Contiguous range [begin, end) of equal-key elements after grouping.
struct GroupRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
  friend bool operator==(const GroupRange&, const GroupRange&) = default;
};

/// Sorts `data` by key(x) and returns one range per distinct key, in key
/// order. This is the semisort work-horse used to aggregate per-vertex
/// updates so each vertex's state is mutated by exactly one task.
template <class T, class KeyFn>
std::vector<GroupRange> group_by_key(std::vector<T>& data, KeyFn key) {
  const std::size_t n = data.size();
  if (n == 0) return {};
  parallel_sort(data, [&](const T& a, const T& b) { return key(a) < key(b); });
  // Boundary detection: index i starts a group iff i == 0 or key changes.
  auto starts = parallel_pack<std::size_t>(
      n,
      [&](std::size_t i) { return i == 0 || key(data[i]) != key(data[i - 1]); },
      [](std::size_t i) { return i; });
  std::vector<GroupRange> groups(starts.size());
  parallel_for(0, starts.size(), [&](std::size_t g) {
    groups[g].begin = starts[g];
    groups[g].end = g + 1 < starts.size() ? starts[g + 1] : n;
  }, /*grain=*/serial_cutoff());
  return groups;
}

}  // namespace cpkcore
