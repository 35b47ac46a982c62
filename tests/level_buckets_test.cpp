// Direct unit tests for VertexBuckets — the PLDS's per-vertex level-
// partitioned adjacency. Exercises every transition the PLDS performs:
// neighbor inserts/erases at all relative levels, neighbor moves, own
// rises (with co-movers staying in `up`), own drops (bucket merge), and a
// randomized consistency check against a reference model.
// First include: the header must compile on its own.
#include "plds/level_buckets.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "util/rng.hpp"

namespace cpkcore {
namespace {

TEST(VertexBuckets, InsertPlacesByRelativeLevel) {
  VertexBuckets b;
  // Owner at level 3: neighbors below go into their level's set, others up.
  b.insert_neighbor(10, 0, 3);
  b.insert_neighbor(11, 2, 3);
  b.insert_neighbor(12, 3, 3);
  b.insert_neighbor(13, 9, 3);
  EXPECT_EQ(b.degree(), 4u);
  EXPECT_EQ(b.up_degree(), 2u);  // 12 and 13
  EXPECT_EQ(b.down_size(0), 1u);
  EXPECT_EQ(b.down_size(1), 0u);
  EXPECT_EQ(b.down_size(2), 1u);
  EXPECT_TRUE(b.contains(10, 0, 3));
  EXPECT_TRUE(b.contains(13, 9, 3));
  EXPECT_FALSE(b.contains(14, 1, 3));
}

TEST(VertexBuckets, CountAtOrAbove) {
  VertexBuckets b;
  b.insert_neighbor(1, 0, 4);
  b.insert_neighbor(2, 1, 4);
  b.insert_neighbor(3, 3, 4);
  b.insert_neighbor(4, 4, 4);
  b.insert_neighbor(5, 7, 4);
  EXPECT_EQ(b.count_at_or_above(4, 4), 2u);   // up only
  EXPECT_EQ(b.count_at_or_above(3, 4), 3u);   // + level 3
  EXPECT_EQ(b.count_at_or_above(1, 4), 4u);
  EXPECT_EQ(b.count_at_or_above(0, 4), 5u);
}

TEST(VertexBuckets, EraseFromEitherSide) {
  VertexBuckets b;
  b.insert_neighbor(1, 2, 5);
  b.insert_neighbor(2, 6, 5);
  b.erase_neighbor(1, 2, 5);
  EXPECT_EQ(b.degree(), 1u);
  EXPECT_FALSE(b.contains(1, 2, 5));
  b.erase_neighbor(2, 6, 5);
  EXPECT_EQ(b.degree(), 0u);
}

TEST(VertexBuckets, NeighborMovedAcrossBoundary) {
  VertexBuckets b;
  b.insert_neighbor(7, 1, 3);  // below
  EXPECT_EQ(b.up_degree(), 0u);
  b.neighbor_moved(7, 1, 3, 3);  // rises to my level -> joins up
  EXPECT_EQ(b.up_degree(), 1u);
  EXPECT_EQ(b.down_size(1), 0u);
  b.neighbor_moved(7, 3, 0, 3);  // drops to 0
  EXPECT_EQ(b.up_degree(), 0u);
  EXPECT_EQ(b.down_size(0), 1u);
}

TEST(VertexBuckets, OwnLevelUpDemotesStayingNeighbors) {
  VertexBuckets b;
  // Owner at 2; neighbors: one at 2 staying, one at 2 co-moving, one at 5.
  b.insert_neighbor(1, 2, 2);
  b.insert_neighbor(2, 2, 2);
  b.insert_neighbor(3, 5, 2);
  EXPECT_EQ(b.up_degree(), 3u);
  b.on_my_level_up(2, [](vertex_t w) { return w == 1; });  // 1 stays behind
  EXPECT_EQ(b.up_degree(), 2u);
  EXPECT_EQ(b.down_size(2), 1u);
  EXPECT_TRUE(b.contains(1, 2, 3));  // now viewed from level 3
  EXPECT_TRUE(b.contains(2, 3, 3));
}

TEST(VertexBuckets, OwnLevelDownMergesBuckets) {
  VertexBuckets b;
  // Owner at 5 with neighbors at 0, 2, 3, 4, 6.
  b.insert_neighbor(1, 0, 5);
  b.insert_neighbor(2, 2, 5);
  b.insert_neighbor(3, 3, 5);
  b.insert_neighbor(4, 4, 5);
  b.insert_neighbor(5, 6, 5);
  b.on_my_level_down(5, 2);
  // New level 2: up = neighbors at >= 2 (four of them), level 0 keeps 1.
  EXPECT_EQ(b.up_degree(), 4u);
  EXPECT_EQ(b.down_size(0), 1u);
  EXPECT_EQ(b.down_size(2), 0u);
  EXPECT_EQ(b.down_size(3), 0u);
  EXPECT_EQ(b.count_at_or_above(1, 2), 4u);
}

TEST(VertexBuckets, ForEachNeighborVisitsAllWithBucketLevels) {
  VertexBuckets b;
  b.insert_neighbor(1, 0, 4);
  b.insert_neighbor(2, 3, 4);
  b.insert_neighbor(3, 8, 4);
  std::map<vertex_t, level_t> seen;
  b.for_each_neighbor(4, [&](vertex_t w, level_t bucket) {
    seen[w] = bucket;
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[1], 0);
  EXPECT_EQ(seen[2], 3);
  EXPECT_EQ(seen[3], 4);  // up bucket reported as my level
}

TEST(VertexBuckets, RandomizedAgainstReferenceModel) {
  // Model: owner level + map neighbor -> level. Apply random ops to both
  // and compare every read against the model.
  Xoshiro256 rng(77);
  VertexBuckets b;
  level_t my_level = 0;
  std::map<vertex_t, level_t> ref;
  auto ref_at_or_above = [&](level_t j) {
    std::size_t c = 0;
    for (const auto& [w, lw] : ref) c += (lw >= j) ? 1 : 0;
    return c;
  };

  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.next_below(7));
    if (op == 0 || ref.empty()) {  // insert new neighbor
      const auto w = static_cast<vertex_t>(rng.next_below(500));
      if (ref.contains(w)) continue;
      const auto lw = static_cast<level_t>(rng.next_below(12));
      ref[w] = lw;
      b.insert_neighbor(w, lw, my_level);
    } else if (op == 1) {  // erase random neighbor
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng.next_below(ref.size())));
      b.erase_neighbor(it->first, it->second, my_level);
      ref.erase(it);
    } else if (op == 2) {  // neighbor moves
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng.next_below(ref.size())));
      const auto to = static_cast<level_t>(rng.next_below(12));
      b.neighbor_moved(it->first, it->second, to, my_level);
      it->second = to;
    } else if (op == 3 && my_level < 11) {  // own rise by one
      b.on_my_level_up(my_level, [&](vertex_t w) {
        return ref[w] == my_level;  // same-level neighbors stay behind
      });
      ++my_level;
    } else if (op == 4 && my_level > 0 && rng.next_below(2) == 0) {
      // own drop to a random lower level
      const auto to = static_cast<level_t>(rng.next_below(
          static_cast<std::uint64_t>(my_level)));
      b.on_my_level_down(my_level, to);
      my_level = to;
    } else if (op == 5 && my_level > 0 && rng.next_below(4) == 0) {
      b.on_my_level_down(my_level, 0);  // own drop to the bottom
      my_level = 0;
    } else if (op == 6) {  // erase every neighbor at the top down level
      level_t top = -1;
      for (const auto& [w, lw] : ref) {
        if (lw < my_level) top = std::max(top, lw);
      }
      std::erase_if(ref, [&](const auto& e) {
        if (e.second != top) return false;
        b.erase_neighbor(e.first, e.second, my_level);
        return true;
      });
    }

    if (step % 50 != 0) continue;
    ASSERT_EQ(b.degree(), ref.size()) << step;
    std::map<vertex_t, level_t> labels;
    b.for_each_neighbor(my_level, [&](vertex_t w, level_t bucket) {
      ASSERT_TRUE(labels.emplace(w, bucket).second) << step << " w=" << w;
    });
    ASSERT_EQ(labels.size(), ref.size()) << step;
    std::set<level_t> down_levels;
    for (const auto& [w, lw] : ref) {
      ASSERT_TRUE(b.contains(w, lw, my_level)) << step << " w=" << w;
      ASSERT_EQ(labels[w], std::min(lw, my_level)) << step << " w=" << w;
      if (lw < my_level) down_levels.insert(lw);
    }
    // One stored set per non-empty level: no empty level is kept.
    ASSERT_EQ(b.num_down_levels(), down_levels.size()) << step;
    ASSERT_EQ(b.up_degree(), ref_at_or_above(my_level)) << step;
    for (level_t j = 0; j <= my_level; ++j) {
      ASSERT_EQ(b.count_at_or_above(j, my_level), ref_at_or_above(j))
          << step << " j=" << j;
      if (j < my_level) {
        ASSERT_EQ(b.down_size(j), ref_at_or_above(j) - ref_at_or_above(j + 1))
            << step << " j=" << j;
      }
    }
    const auto lo = static_cast<level_t>(
        rng.next_below(static_cast<std::uint64_t>(my_level) + 1));
    const auto hi = static_cast<level_t>(
        lo + rng.next_below(static_cast<std::uint64_t>(my_level - lo) + 1));
    std::set<vertex_t> in_range;
    b.for_each_down_range(lo, hi, [&](vertex_t w) {
      ASSERT_TRUE(in_range.insert(w).second) << step << " w=" << w;
    });
    std::set<vertex_t> expect_range;
    for (const auto& [w, lw] : ref) {
      if (lw >= lo && lw < hi) expect_range.insert(w);
    }
    ASSERT_EQ(in_range, expect_range) << step << " [" << lo << ", " << hi
                                      << ")";
    // The desire walk against a per-level loop, under random thresholds.
    std::vector<std::size_t> need(static_cast<std::size_t>(my_level) + 1);
    for (auto& t : need) t = rng.next_below(ref.size() + 2);
    auto ok = [&](level_t d, std::size_t cnt) {
      return cnt >= need[static_cast<std::size_t>(d)];
    };
    level_t expect_desire = 0;
    for (level_t d = my_level; d >= 1 && expect_desire == 0; --d) {
      if (ok(d, ref_at_or_above(d - 1))) expect_desire = d;
    }
    ASSERT_EQ(b.desire_level(my_level, ok), expect_desire) << step;
  }
}

TEST(VertexBuckets, UpNeighborsSnapshot) {
  VertexBuckets b;
  b.insert_neighbor(3, 5, 2);
  b.insert_neighbor(9, 2, 2);
  b.insert_neighbor(1, 0, 2);
  auto up = b.up_neighbors();
  std::sort(up.begin(), up.end());
  EXPECT_EQ(up, (std::vector<vertex_t>{3, 9}));
}

}  // namespace
}  // namespace cpkcore
