// PLDS tests: structural validation (buckets + both invariants) after every
// batch, equivalence of membership with a mirror graph, determinism of the
// level-synchronous algorithm, and the coreness-approximation property
// across graph families and batch sizes (parameterized).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "core/cplds.hpp"
#include "graph/batch.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "kcore/peel.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/tuning.hpp"
#include "plds/plds.hpp"
#include "util/rng.hpp"

namespace cpkcore {
namespace {

void expect_within_bound(const PLDS& plds, const DynamicGraph& mirror,
                         const std::string& context) {
  const auto exact = exact_coreness(mirror);
  const auto& p = plds.params();
  const double c =
      (2.0 + 3.0 / p.lambda()) * std::pow(1.0 + p.delta(), 2);
  for (vertex_t v = 0; v < plds.num_vertices(); ++v) {
    const double est = plds.coreness_estimate(v);
    const double truth = std::max<double>(1.0, exact[v]);
    const double ratio = std::max(est / truth, truth / est);
    ASSERT_LE(ratio, c) << context << " vertex " << v << " level "
                        << plds.level(v) << " est " << est << " true "
                        << truth;
  }
}

TEST(Plds, EmptyStartsAtLevelZero) {
  PLDS plds(50, LDSParams::create(50));
  for (vertex_t v = 0; v < 50; ++v) EXPECT_EQ(plds.level(v), 0);
  std::string why;
  EXPECT_TRUE(plds.validate(&why)) << why;
}

TEST(Plds, SingleBatchInsertValidates) {
  PLDS plds(100, LDSParams::create(100));
  auto applied = plds.insert_batch(gen::erdos_renyi(100, 400, 1));
  EXPECT_EQ(applied.size(), 400u);
  EXPECT_EQ(plds.num_edges(), 400u);
  std::string why;
  EXPECT_TRUE(plds.validate(&why)) << why;
}

TEST(Plds, RejectsSelfLoopsAndDuplicates) {
  PLDS plds(10, LDSParams::create(10));
  auto applied = plds.insert_batch({{1, 2}, {2, 1}, {3, 3}, {1, 2}});
  EXPECT_EQ(applied.size(), 1u);
  applied = plds.insert_batch({{1, 2}, {2, 3}});
  EXPECT_EQ(applied.size(), 1u);
  EXPECT_TRUE(plds.has_edge(1, 2));
  EXPECT_TRUE(plds.has_edge(3, 2));
  EXPECT_FALSE(plds.has_edge(1, 3));
}

TEST(Plds, DeleteBatchRemovesAndValidates) {
  PLDS plds(100, LDSParams::create(100));
  auto edges = gen::erdos_renyi(100, 500, 2);
  plds.insert_batch(edges);
  std::vector<Edge> half(edges.begin(),
                         edges.begin() + static_cast<std::ptrdiff_t>(250));
  auto removed = plds.delete_batch(half);
  EXPECT_EQ(removed.size(), 250u);
  EXPECT_EQ(plds.num_edges(), 250u);
  std::string why;
  EXPECT_TRUE(plds.validate(&why)) << why;
  // Absent deletions are dropped.
  EXPECT_TRUE(plds.delete_batch(half).empty());
}

// A deletion batch holds both orientations of a present edge, a duplicate,
// a self loop and an absent edge: it applies each present edge once,
// returns it canonical and sorted, and lists each applied neighbor once.
TEST(Plds, DeleteBatchReturnsPresentEdgesCanonicalAndSorted) {
  PLDS plds(10, LDSParams::create(10));
  plds.insert_batch({{1, 2}, {2, 3}, {4, 1}, {5, 6}});
  const auto removed = plds.delete_batch(
      {{4, 1}, {2, 1}, {3, 2}, {1, 2}, {3, 2}, {7, 7}, {8, 9}});
  EXPECT_EQ(removed, (std::vector<Edge>{{1, 2}, {1, 4}, {2, 3}}));
  EXPECT_EQ(plds.num_edges(), 1u);
  EXPECT_TRUE(plds.has_edge(5, 6));
  auto batch_neighbors = [&](vertex_t v) {
    std::vector<vertex_t> out;
    plds.for_each_batch_neighbor(v, [&](vertex_t w) { out.push_back(w); });
    std::ranges::sort(out);
    return out;
  };
  EXPECT_EQ(batch_neighbors(1), (std::vector<vertex_t>{2, 4}));
  EXPECT_EQ(batch_neighbors(2), (std::vector<vertex_t>{1, 3}));
  EXPECT_EQ(batch_neighbors(3), (std::vector<vertex_t>{2}));
  EXPECT_EQ(batch_neighbors(4), (std::vector<vertex_t>{1}));
  for (const vertex_t v : {0, 5, 6, 7, 8, 9}) {
    EXPECT_TRUE(batch_neighbors(v).empty()) << "vertex " << v;
  }
  std::string why;
  EXPECT_TRUE(plds.validate(&why)) << why;
}

TEST(Plds, InsertThenDeleteEverythingReturnsToLevelZero) {
  PLDS plds(80, LDSParams::create(80));
  auto edges = gen::barabasi_albert(80, 4, 3);
  plds.insert_batch(edges);
  plds.delete_batch(edges);
  EXPECT_EQ(plds.num_edges(), 0u);
  std::string why;
  EXPECT_TRUE(plds.validate(&why)) << why;
  for (vertex_t v = 0; v < 80; ++v) {
    EXPECT_DOUBLE_EQ(plds.coreness_estimate(v), 1.0);
  }
}

TEST(Plds, HasEdgeMatchesMirrorUnderChurn) {
  constexpr vertex_t kN = 300;
  PLDS plds(kN, LDSParams::create(kN));
  DynamicGraph mirror(kN);
  Xoshiro256 rng(4);
  for (int round = 0; round < 10; ++round) {
    std::vector<Edge> batch;
    for (int i = 0; i < 500; ++i) {
      batch.push_back({static_cast<vertex_t>(rng.next_below(kN)),
                       static_cast<vertex_t>(rng.next_below(kN))});
    }
    if (round % 3 == 2) {
      auto removed = plds.delete_batch(batch);
      mirror.delete_batch(batch);
      EXPECT_EQ(plds.num_edges(), mirror.num_edges());
    } else {
      plds.insert_batch(batch);
      mirror.insert_batch(batch);
      EXPECT_EQ(plds.num_edges(), mirror.num_edges());
    }
    for (int probe = 0; probe < 200; ++probe) {
      const auto u = static_cast<vertex_t>(rng.next_below(kN));
      const auto v = static_cast<vertex_t>(rng.next_below(kN));
      ASSERT_EQ(plds.has_edge(u, v), mirror.has_edge(u, v));
    }
  }
}

TEST(Plds, LevelsAreDeterministicAcrossRuns) {
  auto run = [](std::size_t batch_size) {
    PLDS plds(200, LDSParams::create(200));
    auto stream = insertion_stream(gen::barabasi_albert(200, 5, 5),
                                   batch_size, 7);
    for (const auto& b : stream) plds.insert_batch(b.edges);
    std::vector<level_t> levels(200);
    for (vertex_t v = 0; v < 200; ++v) levels[v] = plds.level(v);
    return levels;
  };
  EXPECT_EQ(run(100), run(100));  // same batches, two executions
}

TEST(Plds, MarkHooksFireOncePerMovedVertexWithOldLevel) {
  constexpr vertex_t kN = 60;
  PLDS plds(kN, LDSParams::create(kN));
  // Atomic: is_marked reads a neighbor's count while its own mark may run
  // on another worker.
  std::vector<std::atomic<int>> marks(kN);
  std::vector<level_t> old_levels(kN, -1);
  std::atomic<int> total{0};
  PLDS::Hooks hooks;
  hooks.on_mark = [&](vertex_t v, level_t old_level,
                      std::span<const vertex_t>) {
    ++marks[v];
    old_levels[v] = old_level;
    total.fetch_add(1);
  };
  hooks.is_marked = [&](vertex_t v) { return marks[v].load() > 0; };
  plds.set_hooks(hooks);

  std::vector<level_t> before(kN);
  for (vertex_t v = 0; v < kN; ++v) before[v] = plds.level(v);
  plds.insert_batch(gen::complete(kN));

  EXPECT_GT(total.load(), 0);
  for (vertex_t v = 0; v < kN; ++v) {
    EXPECT_LE(marks[v].load(), 1) << v;
    if (marks[v].load() == 1) {
      // Old level recorded at mark time must be the pre-batch level.
      EXPECT_EQ(old_levels[v], before[v]) << v;
      EXPECT_GT(plds.level(v), before[v]) << v;
    } else {
      EXPECT_EQ(plds.level(v), before[v]) << v;
    }
  }
}

TEST(Plds, TriggerRuleRespectsLevelsPerPhase) {
  // Paper §5.2: insertion triggers are marked neighbors at the same or
  // higher level than the marked vertex (pre-move); deletion triggers are
  // marked neighbors strictly below level(v) - 1. Capture every hook call
  // and check both rules against levels at mark time.
  constexpr vertex_t kN = 200;
  PLDS plds(kN, LDSParams::create(kN));

  struct MarkRecord {
    vertex_t v;
    level_t old_level;
    std::vector<vertex_t> triggers;
  };
  std::vector<MarkRecord> records;
  std::mutex mu;
  std::vector<std::uint8_t> marked(kN, 0);
  bool deleting = false;

  PLDS::Hooks hooks;
  hooks.on_mark = [&](vertex_t v, level_t old_level,
                      std::span<const vertex_t> triggers) {
    std::lock_guard lock(mu);
    marked[v] = 1;
    // Check trigger levels NOW (triggers have not moved past this point in
    // the current step; earlier movers already sit at their new levels).
    for (vertex_t t : triggers) {
      const level_t lt = plds.level(t);
      if (deleting) {
        EXPECT_LT(lt, old_level - 1)
            << "deletion trigger " << t << " for " << v;
      } else {
        EXPECT_GE(lt, old_level)
            << "insertion trigger " << t << " for " << v;
      }
      EXPECT_TRUE(marked[t]) << "trigger " << t << " not marked";
    }
    records.push_back(
        {v, old_level, std::vector<vertex_t>(triggers.begin(),
                                             triggers.end())});
  };
  hooks.is_marked = [&](vertex_t v) {
    std::lock_guard lock(mu);
    return marked[v] != 0;
  };
  plds.set_hooks(hooks);

  auto edges = gen::disjoint_cliques(kN, 20);
  plds.insert_batch(edges);
  EXPECT_FALSE(records.empty());

  records.clear();
  std::fill(marked.begin(), marked.end(), 0);
  deleting = true;
  std::vector<Edge> del;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i % 190 != 0) del.push_back(edges[i]);
  }
  plds.delete_batch(del);
  EXPECT_FALSE(records.empty());
}

struct PldsCase {
  int family;
  std::size_t batch_size;
};

class PldsApprox
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(PldsApprox, InvariantsAndApproximationAcrossBatches) {
  const auto [family, batch_size] = GetParam();
  vertex_t n = 0;
  std::vector<Edge> edges;
  switch (family) {
    case 0:
      n = 400;
      edges = gen::erdos_renyi(n, 2400, 13);
      break;
    case 1:
      n = 400;
      edges = gen::barabasi_albert(n, 6, 14);
      break;
    case 2:
      n = 1024;
      edges = gen::rmat(10, 4000, 15);
      break;
    case 3:
      n = 400;
      edges = gen::grid_2d(20, 20, true);
      break;
    case 4:
      n = 120;
      edges = gen::disjoint_cliques(n, 12);
      break;
    default:
      FAIL();
  }
  PLDS plds(n, LDSParams::create(n));
  DynamicGraph mirror(n);

  auto ins = insertion_stream(edges, batch_size, 99);
  // Validation is O(n + m); for single-edge streams validate periodically.
  const std::size_t stride = ins.size() > 200 ? 23 : 1;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    plds.insert_batch(ins[i].edges);
    mirror.insert_batch(ins[i].edges);
    if (i % stride == 0 || i + 1 == ins.size()) {
      std::string why;
      ASSERT_TRUE(plds.validate(&why))
          << "insert batch " << i << ": " << why;
    }
  }
  expect_within_bound(plds, mirror, "after inserts");

  auto del = deletion_stream(edges, batch_size, 99);
  for (std::size_t i = 0; i < del.size(); ++i) {
    plds.delete_batch(del[i].edges);
    mirror.delete_batch(del[i].edges);
    if (i % stride == 0 || i + 1 == del.size()) {
      std::string why;
      ASSERT_TRUE(plds.validate(&why))
          << "delete batch " << i << ": " << why;
    }
    if (i == del.size() / 2) {
      expect_within_bound(plds, mirror, "mid deletes");
    }
  }
  EXPECT_EQ(plds.num_edges(), 0u);
}

const char* const kPldsFamilyNames[] = {"er", "ba", "rmat", "grid",
                                        "cliques"};

std::string plds_case_name(
    const ::testing::TestParamInfo<std::tuple<int, std::size_t>>& info) {
  return std::string(kPldsFamilyNames[std::get<0>(info.param)]) + "_b" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndBatchSizes, PldsApprox,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(std::size_t{1}, std::size_t{64},
                                         std::size_t{1000},
                                         std::size_t{1000000})),
    plds_case_name);

TEST(Plds, SlidingWindowChurnStaysValid) {
  constexpr vertex_t kN = 500;
  PLDS plds(kN, LDSParams::create(kN));
  auto edges = gen::barabasi_albert(kN, 6, 21);
  auto stream = sliding_window_stream(edges, 1200, 300, 5);
  for (const auto& b : stream) {
    if (b.kind == UpdateKind::kInsert) {
      plds.insert_batch(b.edges);
    } else {
      plds.delete_batch(b.edges);
    }
    std::string why;
    ASSERT_TRUE(plds.validate(&why)) << why;
  }
}

TEST(Plds, CappedLevelsStillValidate) {
  constexpr vertex_t kN = 300;
  PLDS plds(kN, LDSParams::create(kN, 0.2, 9.0, /*levels_per_group_cap=*/8));
  plds.insert_batch(gen::barabasi_albert(kN, 8, 30));
  std::string why;
  EXPECT_TRUE(plds.validate(&why)) << why;
}

// The core-batch stream at test size: a social graph in seeded order under
// the paper's "-opt 20" level cap, with a 10% hole sliding over the edge
// order; each step inserts the b absent edges at the hole's front and
// deletes the b present edges just past its end. One pass over the graph
// deletes and re-inserts every edge once.
constexpr vertex_t kGoldenN = 20000;

std::vector<Edge> golden_edges() {
  auto edges = gen::social(kGoldenN, 4, kGoldenN / 2000, 40, 0.9, 11);
  Xoshiro256 rng(12);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.next_below(i)]);
  }
  return edges;
}

/// Edges [from, from + len) of `edges`, mod its size.
std::vector<Edge> edge_range(const std::vector<Edge>& edges, std::size_t from,
                             std::size_t len) {
  std::vector<Edge> out;
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(edges[(from + i) % edges.size()]);
  }
  return out;
}

LDSParams golden_params() {
  return LDSParams::create(kGoldenN, kDefaultDelta, kDefaultLambda,
                           /*levels_per_group_cap=*/20);
}

/// Drives the stream with batches of 500 through `ds` (a PLDS or a CPLDS).
template <class DS>
void drive_golden_stream(DS& ds) {
  const auto edges = golden_edges();
  const std::size_t m = edges.size();
  const std::size_t hole = m / 10;
  const std::size_t b = 500;
  ds.insert_batch(edge_range(edges, hole, m - hole));
  for (std::size_t pos = 0; pos < m; pos += b) {
    ds.insert_batch(edge_range(edges, pos, b));
    ds.delete_batch(edge_range(edges, pos + hole, b));
  }
}

std::unique_ptr<PLDS> run_golden_stream() {
  auto plds = std::make_unique<PLDS>(kGoldenN, golden_params());
  drive_golden_stream(*plds);
  return plds;
}

// FNV-1a over the level array.
std::uint64_t level_digest(const PLDS& plds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (vertex_t v = 0; v < plds.num_vertices(); ++v) {
    const auto l = static_cast<std::uint32_t>(plds.level(v));
    for (int byte = 0; byte < 4; ++byte) {
      h = (h ^ ((l >> (8 * byte)) & 0xFFU)) * 0x100000001b3ULL;
    }
  }
  return h;
}

constexpr std::uint64_t kGoldenDigest = 0xd583864be6ad9a95ULL;

/// The serial cutoffs a golden run checks: the default, 1 (every step
/// forks) and one no step reaches (every step runs inline).
constexpr std::size_t kGoldenCutoffs[] = {0, 1, std::size_t{1} << 40};

// Golden levels: the digest was recorded from the dense per-level bucket
// layout this one replaced. Levels are a function of the stream alone, so
// it also holds at every worker count, and on both execution paths of a
// move step: a serial cutoff of 1 forks every step, and one no step
// reaches runs every step inline (0 restores the default).
TEST(Plds, GoldenSlidingWindowLevels) {
  // Resolve the sort cutoff first: it scales with serial_cutoff() when
  // CPKC_GRAIN is set, and must not pick up the overrides below.
  (void)sort_serial_cutoff();
  for (const std::size_t cutoff : kGoldenCutoffs) {
    set_serial_cutoff(cutoff);
    const auto plds = run_golden_stream();
    set_serial_cutoff(0);
    std::string why;
    ASSERT_TRUE(plds->validate(&why)) << "cutoff " << cutoff << ": " << why;
    EXPECT_EQ(level_digest(*plds), kGoldenDigest) << "cutoff " << cutoff;
  }
}

// The same stream through a CPLDS with dependency tracking on: the marking
// hooks run inside every move step, between the movers' marks and their
// neighbors' fix-ups, and must not change a level.
TEST(Plds, GoldenSlidingWindowLevelsThroughCplds) {
  (void)sort_serial_cutoff();
  for (const std::size_t cutoff : kGoldenCutoffs) {
    set_serial_cutoff(cutoff);
    CPLDS cplds(kGoldenN, golden_params());
    drive_golden_stream(cplds);
    set_serial_cutoff(0);
    std::string why;
    ASSERT_TRUE(cplds.plds().validate(&why))
        << "cutoff " << cutoff << ": " << why;
    EXPECT_EQ(level_digest(cplds.plds()), kGoldenDigest)
        << "cutoff " << cutoff;
  }
}

// Spawns of one 2000-edge sliding-window step (an insertion and a deletion
// batch) at the default cutoff on a 2-worker pool, after the batches that
// settle the bulk load (they move thousands of vertices in forked steps).
// Grouping the batch by endpoint at grain 1 forked ~3.3k tasks per batch
// here; the per-endpoint pass at the default grain and inline steps took
// 45 per batch (90 per step) on a 4-vCPU x86 VM.
TEST(Plds, SlidingWindowBatchSpawnsStayFew) {
  auto& sched = Scheduler::instance();
  const std::size_t workers = sched.num_workers();
  sched.set_num_workers(2);
  set_serial_cutoff(2048);  // the default, whatever CPKC_GRAIN says
  const auto edges = golden_edges();
  const std::size_t hole = edges.size() / 10;
  const std::size_t b = 2000;
  PLDS plds(kGoldenN, golden_params());
  plds.insert_batch(edge_range(edges, hole, edges.size() - hole));
  std::size_t pos = 0;
  for (; pos < 8 * b; pos += b) {
    plds.insert_batch(edge_range(edges, pos, b));
    plds.delete_batch(edge_range(edges, pos + hole, b));
  }
  const std::uint64_t before = sched.counters().spawns;
  plds.insert_batch(edge_range(edges, pos, b));
  plds.delete_batch(edge_range(edges, pos + hole, b));
  const std::uint64_t spawns = sched.counters().spawns - before;
  set_serial_cutoff(0);
  sched.set_num_workers(workers);
  EXPECT_LE(spawns, 200u);
  std::string why;
  EXPECT_TRUE(plds.validate(&why)) << why;
}

// The buckets store only non-empty levels, so their bytes are linear in
// n + m, not in the sum of the vertices' levels. On this stream they take
// ~62 B per vertex-or-edge; the dense per-level layout took ~747.
TEST(Plds, BucketBytesLinearInGraph) {
  const auto plds = run_golden_stream();
  const std::size_t n_plus_m = kGoldenN + plds->num_edges();
  EXPECT_LE(plds->bucket_bytes(), 128 * n_plus_m) << "n + m = " << n_plus_m;
}

}  // namespace
}  // namespace cpkcore
