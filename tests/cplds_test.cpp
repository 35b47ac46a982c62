// CPLDS tests — the paper's core claims (§4–§6):
//  * quiescent reads equal live levels; estimates stay within the bound;
//  * descriptors are all unmarked after every batch (root-first unmark);
//  * Lemma 6.3: endpoints of an applied batch edge that both move share a
//    dependency DAG;
//  * concurrent linearizable reads only ever observe pre-batch or
//    post-batch levels (never intermediate ones), checked against recorded
//    boundary snapshots;
//  * no new-old inversions within a DAG for reads issued by one thread;
//  * the NonSync baseline *does* observe intermediate levels on cascading
//    workloads (sanity check that the property being tested has teeth);
//  * final levels with concurrent readers match an unperturbed replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "core/cplds.hpp"
#include "core/read_modes.hpp"
#include "graph/batch.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "harness/driver.hpp"
#include "harness/workload.hpp"
#include "kcore/peel.hpp"
#include "util/rng.hpp"

namespace cpkcore {
namespace {

LDSParams small_params(vertex_t n) { return LDSParams::create(n); }

TEST(Cplds, QuiescentReadsMatchLiveLevels) {
  CPLDS ds(200, small_params(200));
  ds.insert_batch(gen::erdos_renyi(200, 800, 1));
  for (vertex_t v = 0; v < 200; ++v) {
    EXPECT_EQ(ds.read_level(v), ds.read_level_nonsync(v));
    EXPECT_DOUBLE_EQ(ds.read_coreness(v), ds.read_coreness_nonsync(v));
    EXPECT_DOUBLE_EQ(ds.read_coreness_sync(v), ds.read_coreness(v));
  }
}

TEST(Cplds, BatchNumberIncrementsPerBatch) {
  CPLDS ds(100, small_params(100));
  EXPECT_EQ(ds.batch_number(), 0u);
  ds.insert_batch({{0, 1}, {1, 2}});
  EXPECT_EQ(ds.batch_number(), 1u);
  ds.delete_batch({{0, 1}});
  EXPECT_EQ(ds.batch_number(), 2u);
}

TEST(Cplds, ApplyDispatchesOnKind) {
  CPLDS ds(100, small_params(100));
  UpdateBatch ins{UpdateKind::kInsert, {{0, 1}, {1, 2}}};
  EXPECT_EQ(ds.apply(ins).size(), 2u);
  UpdateBatch del{UpdateKind::kDelete, {{0, 1}}};
  EXPECT_EQ(ds.apply(del).size(), 1u);
  EXPECT_EQ(ds.num_edges(), 1u);
}

TEST(Cplds, EstimatesWithinBoundAfterBatches) {
  constexpr vertex_t kN = 400;
  CPLDS ds(kN, small_params(kN));
  DynamicGraph mirror(kN);
  auto edges = gen::barabasi_albert(kN, 6, 2);
  auto stream = insertion_stream(edges, 700, 3);
  const double c = (2.0 + 3.0 / 9.0) * 1.2 * 1.2;
  for (const auto& b : stream) {
    ds.insert_batch(b.edges);
    mirror.insert_batch(b.edges);
  }
  const auto exact = exact_coreness(mirror);
  for (vertex_t v = 0; v < kN; ++v) {
    const double est = ds.read_coreness(v);
    const double truth = std::max<double>(1.0, exact[v]);
    EXPECT_LE(std::max(est / truth, truth / est), c) << v;
  }
}

TEST(Cplds, AllDescriptorsUnmarkedAfterBatch) {
  constexpr vertex_t kN = 300;
  CPLDS::Options opt;
  opt.capture_dags = true;
  CPLDS ds(kN, small_params(kN), opt);
  ds.insert_batch(gen::barabasi_albert(kN, 8, 5));
  EXPECT_GT(ds.last_batch_stats().marked_vertices, 0u);
  // Every read must take the live path now (no marked descriptors), and the
  // PLDS must validate.
  for (vertex_t v = 0; v < kN; ++v) {
    EXPECT_EQ(ds.read_level(v), ds.read_level_nonsync(v));
  }
  std::string why;
  EXPECT_TRUE(ds.plds().validate(&why)) << why;
}

TEST(Cplds, MarkedCountMatchesCapturedDags) {
  constexpr vertex_t kN = 200;
  CPLDS::Options opt;
  opt.capture_dags = true;
  CPLDS ds(kN, small_params(kN), opt);
  ds.insert_batch(gen::complete(60));
  const auto& dags = ds.last_batch_dags();
  EXPECT_EQ(dags.size(), ds.last_batch_stats().marked_vertices);
  // Roots must be members of their own DAG set.
  for (const auto& [v, root] : dags) {
    EXPECT_GE(root, v == root ? v : 0u);
  }
}

// Lemma 6.3 on the most recent batch (needs Options::capture_dags): every
// applied batch edge whose endpoints both moved lies within one DAG.
// Returns the number of such edges.
std::size_t expect_co_moving_batch_edges_share_dags(
    const CPLDS& ds, const std::vector<Edge>& applied) {
  std::map<vertex_t, vertex_t> root_of;
  for (const auto& [v, root] : ds.last_batch_dags()) root_of[v] = root;
  std::size_t checked = 0;
  for (const Edge& e : applied) {
    const auto ru = root_of.find(e.u);
    const auto rv = root_of.find(e.v);
    if (ru == root_of.end() || rv == root_of.end()) continue;
    EXPECT_EQ(ru->second, rv->second)
        << "batch edge (" << e.u << "," << e.v << ") crosses DAGs";
    ++checked;
  }
  return checked;
}

TEST(Cplds, BatchEdgeEndpointsThatBothMoveShareADag) {
  // Lemma 6.3. Use a clique insertion: plenty of co-moving batch edges.
  constexpr vertex_t kN = 80;
  CPLDS::Options opt;
  opt.capture_dags = true;
  CPLDS ds(kN, small_params(kN), opt);
  const auto applied = ds.insert_batch(gen::complete(kN));
  EXPECT_GT(expect_co_moving_batch_edges_share_dags(ds, applied), 0u);
}

// Lemma 6.3 where the trigger rule cannot help. With 2 levels per group, a
// K_3 rests at level 0 and two K_4s rest at level 4 (Invariant 1 allows
// up-degree 2.33 in group 0, 2.8 in group 1, 3.36 in group 2). The batch
// joins the K_4s by (v, w), lifting both past level 4, and adds (u, v),
// lifting u to level 1 only. u is marked at step 0, while v is unmarked;
// v is marked at step 4 with u below it, outside the `up` its trigger scan
// reads. Only v's scan of its marked batch neighbors merges the two DAGs.
TEST(Cplds, BatchEdgeFromLowRiserToHighRiserSharesADag) {
  constexpr vertex_t kN = 11;
  CPLDS::Options opt;
  opt.capture_dags = true;
  CPLDS ds(kN, LDSParams::create(kN, kDefaultDelta, kDefaultLambda,
                                 /*levels_per_group_cap=*/2),
           opt);
  const vertex_t u = 0, v = 3, w = 7;
  std::vector<Edge> cliques;
  auto add_clique = [&](vertex_t first, vertex_t size) {
    for (vertex_t a = first; a < first + size; ++a) {
      for (vertex_t b = a + 1; b < first + size; ++b) cliques.push_back({a, b});
    }
  };
  add_clique(u, 3);
  add_clique(v, 4);
  add_clique(w, 4);
  ds.insert_batch(cliques);
  ASSERT_EQ(ds.read_level(u), 0);
  ASSERT_EQ(ds.read_level(v), 4);
  ASSERT_EQ(ds.read_level(w), 4);

  const auto applied = ds.insert_batch({{u, v}, {v, w}});
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(ds.read_level(u), 1);
  EXPECT_EQ(ds.read_level(v), 5);
  EXPECT_EQ(ds.read_level(w), 5);
  EXPECT_EQ(expect_co_moving_batch_edges_share_dags(ds, applied), 2u);
}

// Lemma 6.3 on every batch of a sliding-window stream over a social graph:
// alternating insertion and deletion batches, so both phases' marking runs.
TEST(Cplds, CoMovingBatchEdgesShareADagOnEveryStreamBatch) {
  constexpr vertex_t kN = 2000;
  CPLDS::Options opt;
  opt.capture_dags = true;
  CPLDS ds(kN, small_params(kN), opt);
  auto edges = gen::social(kN, 4, 2, 40, 0.9, 61);
  Xoshiro256 rng(62);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.next_below(i)]);
  }
  const std::size_t m = edges.size();
  const std::size_t hole = m / 10;
  const std::size_t b = 200;
  auto range = [&](std::size_t from, std::size_t len) {
    std::vector<Edge> out;
    for (std::size_t i = 0; i < len; ++i) out.push_back(edges[(from + i) % m]);
    return out;
  };
  ds.insert_batch(range(hole, m - hole));
  std::size_t checked = 0;
  for (std::size_t pos = 0; pos < m; pos += b) {
    checked += expect_co_moving_batch_edges_share_dags(
        ds, ds.insert_batch(range(pos, b)));
    checked += expect_co_moving_batch_edges_share_dags(
        ds, ds.delete_batch(range(pos + hole, b)));
  }
  EXPECT_GT(checked, 0u);
}

TEST(Cplds, DeletionMarksAndStaysConsistent) {
  constexpr vertex_t kN = 150;
  CPLDS::Options opt;
  opt.capture_dags = true;
  CPLDS ds(kN, small_params(kN), opt);
  auto edges = gen::disjoint_cliques(kN, 15);
  ds.insert_batch(edges);
  // Dissolve the cliques almost completely (coreness 14 -> 1): vertices
  // must cascade down many levels, so deletion-phase marking must fire.
  // (Deleting only half the edges legally moves nothing: Invariant 2 is a
  // lazy lower bound.)
  std::vector<Edge> del;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i % 105 != 0) del.push_back(edges[i]);  // keep 1 edge per clique
  }
  ds.delete_batch(del);
  EXPECT_GT(ds.last_batch_stats().marked_vertices, 0u);
  std::string why;
  EXPECT_TRUE(ds.plds().validate(&why)) << why;
}

// ---------------------------------------------------------------------------
// Concurrent linearizability checks
// ---------------------------------------------------------------------------

harness::WorkloadResult churn_with_readers(CPLDS& ds,
                                           const std::vector<UpdateBatch>& st,
                                           ReadMode mode,
                                           std::size_t readers = 4) {
  harness::WorkloadConfig cfg;
  cfg.mode = mode;
  cfg.reader_threads = readers;
  cfg.seed = 12345;
  cfg.sample_stride = 1;  // record every unambiguous read
  cfg.record_boundary_levels = true;
  return harness::run_workload(ds, st, cfg);
}

TEST(CpldsConcurrent, ReadsNeverObserveIntermediateLevels) {
  constexpr vertex_t kN = 2000;
  CPLDS ds(kN, small_params(kN));
  auto edges = gen::barabasi_albert(kN, 8, 7);
  auto stream = insertion_stream(edges, 2000, 9);
  auto result = churn_with_readers(ds, stream, ReadMode::kCplds);
  ASSERT_GT(result.samples.size(), 0u);
  const auto violations = harness::count_out_of_window_samples(
      result.samples, result.boundary_levels, result.window_base);
  EXPECT_EQ(violations, 0u)
      << "out of " << result.samples.size() << " sampled reads";
}

TEST(CpldsConcurrent, DagReadsNeverObserveIntermediateLevels) {
  // Algorithm 4 (the descriptor/DAG double-collect) keeps its own
  // linearizability guarantee independent of the published view.
  constexpr vertex_t kN = 2000;
  CPLDS ds(kN, small_params(kN));
  auto edges = gen::barabasi_albert(kN, 8, 7);
  auto stream = insertion_stream(edges, 2000, 9);
  auto result = churn_with_readers(ds, stream, ReadMode::kCpldsDag);
  ASSERT_GT(result.samples.size(), 0u);
  const auto violations = harness::count_out_of_window_samples(
      result.samples, result.boundary_levels, result.window_base);
  EXPECT_EQ(violations, 0u)
      << "out of " << result.samples.size() << " sampled reads";
}

TEST(CpldsConcurrent, DeletionReadsNeverObserveIntermediateLevels) {
  constexpr vertex_t kN = 2000;
  CPLDS ds(kN, small_params(kN));
  auto edges = gen::barabasi_albert(kN, 8, 17);
  ds.insert_batch(edges);
  auto stream = deletion_stream(edges, 2000, 19);
  auto result = churn_with_readers(ds, stream, ReadMode::kCplds);
  ASSERT_GT(result.samples.size(), 0u);
  const auto violations = harness::count_out_of_window_samples(
      result.samples, result.boundary_levels, result.window_base);
  EXPECT_EQ(violations, 0u);
}

TEST(CpldsConcurrent, SyncReadsAlsoLinearizable) {
  constexpr vertex_t kN = 1000;
  CPLDS ds(kN, small_params(kN));
  auto stream = insertion_stream(gen::barabasi_albert(kN, 6, 27), 1500, 29);
  auto result = churn_with_readers(ds, stream, ReadMode::kSyncReads, 2);
  const auto violations = harness::count_out_of_window_samples(
      result.samples, result.boundary_levels, result.window_base);
  EXPECT_EQ(violations, 0u);
}

TEST(CpldsConcurrent, NonSyncObservesIntermediateLevelsOnCascades) {
  // The checker's negative control: the paper's NonSync baseline reads the
  // live level array, so a long chain of dependent moves makes
  // intermediate levels visible to it. Inherently probabilistic, so retry
  // a few times.
  constexpr vertex_t kN = 3000;
  std::size_t violations = 0;
  for (int attempt = 0; attempt < 5 && violations == 0; ++attempt) {
    CPLDS ds(kN, small_params(kN));
    auto edges = gen::barabasi_albert(kN, 16, 100 + attempt);
    auto stream = insertion_stream(edges, 4000, 31 + attempt);
    harness::WorkloadConfig cfg;
    cfg.mode = ReadMode::kNonSync;
    cfg.reader_threads = 8;
    cfg.seed = 12345 + static_cast<std::uint64_t>(attempt);
    cfg.sample_stride = 1;
    cfg.record_boundary_levels = true;
    auto result = harness::run_workload(ds, stream, cfg);
    violations = harness::count_out_of_window_samples(
        result.samples, result.boundary_levels, result.window_base);
  }
  EXPECT_GT(violations, 0u)
      << "NonSync reads never observed an intermediate level; the "
         "linearizability checker may be vacuous";
}

TEST(CpldsConcurrent, FinalLevelsMatchUnperturbedReplay) {
  constexpr vertex_t kN = 1500;
  auto edges = gen::barabasi_albert(kN, 6, 47);
  auto stream = insertion_stream(edges, 1000, 49);

  CPLDS with_readers(kN, small_params(kN));
  churn_with_readers(with_readers, stream, ReadMode::kCplds, 6);

  CPLDS replay(kN, small_params(kN));
  for (const auto& b : stream) replay.insert_batch(b.edges);

  for (vertex_t v = 0; v < kN; ++v) {
    ASSERT_EQ(with_readers.read_level(v), replay.read_level(v)) << v;
  }
}

TEST(CpldsConcurrent, NoNewOldInversionWithinADagForOneThread) {
  // Reads issued sequentially by one thread: once it has seen the NEW level
  // of any vertex in DAG D (in batch window c), it must never see the OLD
  // level of another vertex of D within the same window.
  constexpr vertex_t kN = 1200;
  CPLDS::Options opt;
  opt.capture_dags = true;
  CPLDS ds(kN, small_params(kN), opt);
  auto edges = gen::barabasi_albert(kN, 12, 53);
  auto stream = insertion_stream(edges, edges.size(), 55);  // one big batch
  ASSERT_EQ(stream.size(), 1u);

  struct Obs {
    vertex_t v;
    level_t level;
    std::uint64_t window;
  };
  std::vector<Obs> observations;
  std::vector<level_t> before(kN);
  for (vertex_t v = 0; v < kN; ++v) before[v] = ds.read_level_nonsync(v);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    Xoshiro256 rng(57);
    while (!stop.load(std::memory_order_relaxed)) {
      const auto v = static_cast<vertex_t>(rng.next_below(kN));
      const std::uint64_t b1 = ds.batch_number();
      const level_t l = ds.read_level_dag(v);
      const std::uint64_t b2 = ds.batch_number();
      if (b1 == b2) observations.push_back({v, l, b1});
    }
  });
  ds.insert_batch(stream[0].edges);
  stop.store(true);
  reader.join();

  std::map<vertex_t, vertex_t> root_of;
  for (const auto& [v, root] : ds.last_batch_dags()) root_of[v] = root;
  std::vector<level_t> after(kN);
  for (vertex_t v = 0; v < kN; ++v) after[v] = ds.read_level_nonsync(v);

  // For each DAG, track whether a NEW observation has occurred; any OLD
  // observation afterwards (same window) is an inversion.
  std::map<vertex_t, bool> dag_saw_new;
  std::size_t moved_observations = 0;
  for (const Obs& o : observations) {
    if (o.window != 1) continue;  // only the batch's window
    const auto it = root_of.find(o.v);
    if (it == root_of.end()) continue;  // vertex did not move
    if (before[o.v] == after[o.v]) continue;
    ++moved_observations;
    const vertex_t dag = it->second;
    const bool is_new = o.level == after[o.v];
    const bool is_old = o.level == before[o.v];
    ASSERT_TRUE(is_new || is_old) << "intermediate level observed";
    if (is_new) {
      dag_saw_new[dag] = true;
    } else if (dag_saw_new.contains(dag) && dag_saw_new[dag]) {
      FAIL() << "new-old inversion in DAG rooted at " << dag << ": vertex "
             << o.v << " returned old level " << o.level
             << " after the DAG was already observed at a new level";
    }
  }
  // The batch is large; we expect at least some observations of movers.
  EXPECT_GT(moved_observations, 0u);
}

TEST(Cplds, AblationOptionsStillCorrect) {
  constexpr vertex_t kN = 800;
  for (const bool compression : {true, false}) {
    for (const bool early_exit : {true, false}) {
      CPLDS::Options opt;
      opt.path_compression = compression;
      opt.early_exit = early_exit;
      CPLDS ds(kN, small_params(kN), opt);
      auto stream =
          insertion_stream(gen::barabasi_albert(kN, 6, 61), 1200, 63);
      auto result = churn_with_readers(ds, stream, ReadMode::kCpldsDag, 3);
      const auto violations = harness::count_out_of_window_samples(
          result.samples, result.boundary_levels, result.window_base);
      EXPECT_EQ(violations, 0u)
          << "compression=" << compression << " early_exit=" << early_exit;
    }
  }
}

TEST(Cplds, DeleteVerticesIsolatesThem) {
  constexpr vertex_t kN = 300;
  CPLDS ds(kN, small_params(kN));
  ds.insert_batch(gen::erdos_renyi(kN, 1500, 71));
  const std::size_t before = ds.num_edges();
  const std::vector<vertex_t> victims = {3, 50, 51, 200};
  std::size_t incident = 0;
  for (vertex_t v : victims) incident += ds.plds().degree(v);
  auto removed = ds.delete_vertices(victims);
  EXPECT_GT(removed.size(), 0u);
  EXPECT_LE(removed.size(), incident);  // shared edges dedup
  EXPECT_EQ(ds.num_edges(), before - removed.size());
  for (vertex_t v : victims) {
    EXPECT_EQ(ds.plds().degree(v), 0u) << v;
    EXPECT_DOUBLE_EQ(ds.read_coreness(v), 1.0) << v;
  }
  std::string why;
  EXPECT_TRUE(ds.plds().validate(&why)) << why;
  // The ids stay usable: re-insert edges on a deleted vertex.
  ds.insert_batch({{3, 7}, {3, 9}});
  EXPECT_EQ(ds.plds().degree(3), 2u);
}

TEST(Cplds, ReadModeHelpers) {
  EXPECT_EQ(to_string(ReadMode::kCplds), "CPLDS");
  EXPECT_EQ(to_string(ReadMode::kCpldsDag), "CPLDS-DAG");
  EXPECT_EQ(to_string(ReadMode::kSyncReads), "SyncReads");
  EXPECT_EQ(to_string(ReadMode::kNonSync), "NonSync");
  EXPECT_EQ(parse_read_mode("cplds"), ReadMode::kCplds);
  EXPECT_EQ(parse_read_mode("dag"), ReadMode::kCpldsDag);
  EXPECT_EQ(parse_read_mode("cplds-dag"), ReadMode::kCpldsDag);
  EXPECT_EQ(parse_read_mode("sync"), ReadMode::kSyncReads);
  EXPECT_EQ(parse_read_mode("NonSync"), ReadMode::kNonSync);
  EXPECT_THROW(static_cast<void>(parse_read_mode("bogus")),
               std::invalid_argument);
}

}  // namespace
}  // namespace cpkcore
