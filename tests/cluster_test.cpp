// Cluster-layer tests: WAL log shipping, exact read replicas, idle apply
// threads freeing retired views, late-joiner catch-up from the on-disk WAL
// and its splice into the live stream, the sharded write plane
// (Partitioner, ShardGroup, per-partition replica bit-equivalence), the
// shard-aware router's cross-partition read-your-writes guarantee under
// concurrent writers + readers, its per-thread replica rotation, exact
// serve counts and sampled read latency, the P=1 regression guard against
// the unsharded topology, the per-shard queue-depth gauge, WAL durability
// levels, and LSN continuity across checkpoint + restart.
//
// Sharded topologies default to 2 partitions x 2 replicas; CI's sharded
// TSan leg pins that via CPKC_TEST_WRITE_SHARDS / CPKC_TEST_REPLICAS.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/log_ship.hpp"
#include "cluster/partition.hpp"
#include "cluster/replica.hpp"
#include "cluster/router.hpp"
#include "cluster/shard_group.hpp"
#include "graph/generators.hpp"
#include "service/kcore_service.hpp"
#include "util/rng.hpp"

namespace cpkcore {
namespace {

using cluster::ClusterConfig;
using cluster::LogShipper;
using cluster::Partitioner;
using cluster::Replica;
using cluster::Router;
using cluster::ShardGroup;
using service::KCoreService;
using service::ServiceConfig;
using service::Ticket;
using service::WalDurability;

std::size_t env_topology(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    const unsigned long parsed = std::strtoul(v, nullptr, 10);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

std::size_t test_write_shards() {
  return env_topology("CPKC_TEST_WRITE_SHARDS", 2);
}
std::size_t test_replicas() {
  return env_topology("CPKC_TEST_REPLICAS", 2);
}

class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_("/tmp/cpkc_cluster_" + std::to_string(::getpid()) + "_" +
              name) {
    std::filesystem::remove(path_);
  }
  ~TempPath() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::set<std::uint64_t> edge_keys(const CPLDS& ds) {
  std::set<std::uint64_t> keys;
  for (vertex_t v = 0; v < ds.num_vertices(); ++v) {
    for (vertex_t w : ds.plds().neighbors(v)) {
      if (w > v) keys.insert(Edge{v, w}.key());
    }
  }
  return keys;
}

/// The acceptance bar: after quiesce, a replica is *bit-identical* to the
/// primary — same edges, same levels, and therefore the same coreness
/// estimate under every ReadMode.
void expect_exact_replica(const KCoreService& primary, const Replica& rep) {
  ASSERT_EQ(primary.num_vertices(), rep.num_vertices());
  EXPECT_EQ(primary.num_edges(), rep.num_edges());
  EXPECT_EQ(edge_keys(primary.cplds()), edge_keys(rep.cplds()));
  for (vertex_t v = 0; v < primary.num_vertices(); ++v) {
    ASSERT_EQ(primary.cplds().plds().level(v), rep.cplds().plds().level(v))
        << "level mismatch at " << v;
    for (ReadMode mode :
         {ReadMode::kCplds, ReadMode::kNonSync, ReadMode::kSyncReads}) {
      ASSERT_EQ(primary.read_coreness(v, mode), rep.read_coreness(v, mode))
          << "coreness mismatch at " << v << " mode "
          << to_string(mode);
      ASSERT_EQ(primary.read_level(v, mode), rep.read_level(v, mode))
          << "read level mismatch at " << v;
    }
  }
  std::string why;
  EXPECT_TRUE(rep.cplds().plds().validate(&why)) << why;
}

TEST(Cluster, ReplicasMirrorPrimaryExactly) {
  constexpr vertex_t kN = 800;
  ServiceConfig cfg;
  cfg.num_vertices = kN;
  cfg.min_ops_per_cycle = 16;
  cfg.max_ops_per_cycle = 256;  // many cycles -> many shipped records
  KCoreService primary(cfg);
  LogShipper shipper(primary);
  Replica a(cfg);
  Replica b(cfg);
  a.start(shipper);
  b.start(shipper);

  for (const Edge& e : gen::barabasi_albert(kN, 5, 17)) {
    primary.submit_insert(e.u, e.v);
  }
  // Mix in deletions so replicas replay both batch kinds.
  for (vertex_t v = 0; v + 1 < 100; ++v) primary.submit_delete(v, v + 1);
  primary.drain();
  const std::uint64_t target = primary.commit_lsn();
  EXPECT_GT(target, 0u);
  ASSERT_TRUE(a.wait_for_lsn(target));
  ASSERT_TRUE(b.wait_for_lsn(target));

  expect_exact_replica(primary, a);
  expect_exact_replica(primary, b);
  EXPECT_GT(a.stats().applied_batches, 0u);
  a.stop();
  b.stop();
  primary.shutdown();
}

TEST(Cluster, IdleApplyThreadsFreeRetiredViews) {
  // Once the writes stop, the primary's and the replica's apply threads go
  // idle for a scan interval and free the views their last batches
  // retired, instead of holding them until the next write.
  constexpr vertex_t kN = 800;
  ServiceConfig cfg;
  cfg.num_vertices = kN;
  KCoreService primary(cfg);
  LogShipper shipper(primary);
  Replica replica(cfg);
  replica.start(shipper);
  for (const Edge& e : gen::barabasi_albert(kN, 5, 17)) {
    primary.submit_insert(e.u, e.v);
  }
  primary.drain();
  ASSERT_TRUE(replica.wait_for_lsn(primary.commit_lsn()));

  const auto limbo = [](const CPLDS& ds) {
    return ds.reclaimer().stats().limbo;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((limbo(primary.cplds()) > 0 || limbo(replica.cplds()) > 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(limbo(primary.cplds()), 0u);
  EXPECT_EQ(limbo(replica.cplds()), 0u);
  EXPECT_GT(primary.cplds().reclaimer().stats().freed, 0u);
  EXPECT_GT(replica.cplds().reclaimer().stats().freed, 0u);
  replica.stop();
  primary.shutdown();
}

TEST(Cluster, LateJoinerWithoutWalThrows) {
  // The shipper keeps no copy of shipped records: with no WAL behind the
  // primary, a joiner that missed any record cannot catch up and must
  // bootstrap from a snapshot instead.
  ServiceConfig cfg;
  cfg.num_vertices = 100;
  KCoreService primary(cfg);
  LogShipper shipper(primary);
  for (vertex_t v = 0; v + 1 < 20; ++v) primary.submit_insert(v, v + 1);
  primary.drain();
  ASSERT_GT(primary.commit_lsn(), 0u);

  Replica late(cfg);
  EXPECT_THROW(late.start(shipper), std::runtime_error);
  EXPECT_EQ(shipper.stats().subscribers, 0u);
  primary.shutdown();
}

TEST(Cluster, CatchupSplicesWritesCommittedDuringDiskReplay) {
  // Deterministic splice: the joiner's catch-up callback commits kLate more
  // records on the primary as soon as it sees its first disk record (no
  // shipper lock is held during catch-up, so this cannot deadlock). Those
  // records are past the WAL replay's splice point, so they can only reach
  // the joiner through its splice buffer. The delivered LSNs must be
  // gapless and strictly increasing through the primary's final commit.
  TempPath wal("splice.wal");
  ServiceConfig cfg;
  cfg.num_vertices = 300;
  cfg.wal_path = wal.str();
  KCoreService primary(cfg);
  LogShipper shipper(primary);
  for (vertex_t v = 0; v + 1 < 40; ++v) {
    primary.submit_insert(v, v + 1);
    primary.drain();  // one commit each
  }
  const std::uint64_t before_join = primary.commit_lsn();
  ASSERT_GT(before_join, 0u);

  constexpr vertex_t kLate = 5;
  std::mutex mu;  // the last record arrives live, on the apply thread
  std::vector<std::uint64_t> lsns;
  shipper.subscribe(0, [&](const cluster::ShippedRecord& rec) {
    std::unique_lock lock(mu);
    lsns.push_back(rec.lsn);
    if (lsns.size() > 1) return;
    lock.unlock();
    for (vertex_t i = 0; i < kLate; ++i) {
      primary.submit_insert(100 + i, 200 + i);
      primary.drain();
    }
  });
  const LogShipper::Stats st = shipper.stats();
  EXPECT_EQ(st.disk_records, before_join);
  EXPECT_GE(st.catchup_records - st.disk_records, kLate);
  EXPECT_EQ(st.catchup_records, primary.commit_lsn());

  // Live from here on: the next commit arrives once, right after the rest.
  primary.submit_insert(250, 251);
  primary.drain();
  primary.shutdown();
  std::lock_guard lock(mu);
  ASSERT_EQ(lsns.size(), primary.commit_lsn());
  for (std::size_t i = 0; i < lsns.size(); ++i) {
    ASSERT_EQ(lsns[i], i + 1) << "gap or duplicate at position " << i;
  }
}

TEST(Cluster, LateJoinerCatchesUpFromDiskUnderConcurrentWrites) {
  // A replica joins mid-stream while writers keep going: catch-up reads
  // the primary's on-disk WAL and splices into the live stream; after
  // quiesce it is exact under all three ReadModes (expect_exact_replica
  // checks them all).
  TempPath wal("latejoin.wal");
  constexpr vertex_t kN = 600;
  ServiceConfig cfg;
  cfg.num_vertices = kN;
  cfg.wal_path = wal.str();
  cfg.min_ops_per_cycle = 4;
  cfg.max_ops_per_cycle = 32;
  KCoreService primary(cfg);
  LogShipper shipper(primary);

  auto edges = gen::social(kN, 5, 4, 40, 0.9, 29);
  const std::size_t half = edges.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    primary.submit_insert(edges[i].u, edges[i].v);
  }
  primary.drain();

  // Writers stay hot while the late joiner subscribes.
  std::thread writer([&] {
    for (std::size_t i = half; i < edges.size(); ++i) {
      primary.submit_insert(edges[i].u, edges[i].v);
    }
  });
  Replica late(cfg);
  late.start(shipper);
  writer.join();
  primary.drain();
  ASSERT_TRUE(late.wait_for_lsn(primary.commit_lsn()));
  expect_exact_replica(primary, late);
  EXPECT_GT(shipper.stats().disk_records, 0u);
  late.stop();
  primary.shutdown();
}

TEST(Cluster, SubscribePastCompactionDemandsSnapshotBootstrap) {
  TempPath wal("compacted.wal");
  TempPath snap("compacted.snap");
  ServiceConfig cfg;
  cfg.num_vertices = 200;
  cfg.wal_path = wal.str();
  cfg.snapshot_path = snap.str();
  KCoreService primary(cfg);
  for (vertex_t v = 0; v + 1 < 100; ++v) primary.submit_insert(v, v + 1);
  primary.drain();
  primary.checkpoint();  // WAL truncated; base LSN > 0

  LogShipper shipper(primary);
  for (vertex_t v = 100; v + 1 < 120; ++v) primary.submit_insert(v, v + 1);
  primary.drain();
  Replica fresh(cfg);
  EXPECT_THROW(fresh.start(shipper), std::runtime_error);
  EXPECT_EQ(shipper.stats().subscribers, 0u);  // the failed joiner is gone
  primary.shutdown();
}

TEST(Cluster, RouterReadYourWritesUnderConcurrentLoad) {
  // The PR-4 acceptance demo, now on the assembled single-partition form
  // of the shard-aware router: 4 writers + 4 readers. Every read must be
  // served by a backend whose applied LSN is at or past the session's
  // cursor as observed before the read — a session never reads state older
  // than its last acked write.
  constexpr vertex_t kN = 1500;
  ServiceConfig cfg;
  cfg.num_vertices = kN;
  cfg.min_ops_per_cycle = 16;
  cfg.max_ops_per_cycle = 512;
  KCoreService primary(cfg);
  LogShipper shipper(primary);
  Replica r0(cfg);
  Replica r1(cfg);
  r0.start(shipper);
  r1.start(shipper);
  Router router(Partitioner(1),
                {Router::PartitionBackends{&primary, {&r0, &r1}, {}}});

  constexpr std::size_t kPairs = 4;
  constexpr std::size_t kOps = 1500;
  std::vector<std::unique_ptr<Router::Session>> sessions;
  for (std::size_t t = 0; t < kPairs; ++t) {
    sessions.push_back(router.make_session());
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> replica_served{0};

  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kPairs; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto v = static_cast<vertex_t>(rng.next_below(kN));
        // Sample the cursor BEFORE the read: the served LSN may only be
        // at or past it (the cursor can advance concurrently, which only
        // raises what the router must deliver).
        const std::uint64_t cursor = sessions[t]->last_lsn(0);
        const auto read = router.read_coreness(*sessions[t], v);
        if (read.parts[0].served_lsn < cursor) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        if (read.parts[0].backend != Router::kPrimary) {
          replica_served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kPairs; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(2000 + t);
      for (std::size_t i = 0; i < kOps; ++i) {
        const Edge e{static_cast<vertex_t>(rng.next_below(kN)),
                     static_cast<vertex_t>(rng.next_below(kN))};
        const std::uint64_t lsn =
            router.write(*sessions[t], {e, UpdateKind::kInsert});
        EXPECT_GE(sessions[t]->last_lsn(0), lsn);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(replica_served.load(), 0u)
      << "every read fell back to the primary; replica routing went "
         "untested";
  const auto stats = router.stats();
  EXPECT_EQ(stats.writes, kPairs * kOps);
  EXPECT_EQ(stats.reads, stats.primary_reads +
                             stats.partitions[0].replica_reads[0] +
                             stats.partitions[0].replica_reads[1]);

  // Quiesce: replicas converge to the primary's exact state.
  primary.drain();
  ASSERT_TRUE(r0.wait_for_lsn(primary.commit_lsn()));
  ASSERT_TRUE(r1.wait_for_lsn(primary.commit_lsn()));
  expect_exact_replica(primary, r0);
  expect_exact_replica(primary, r1);
  r0.stop();
  r1.stop();
  primary.shutdown();
}

TEST(Cluster, RouterFallsBackToPrimaryWhenNoReplicaQualifies) {
  ServiceConfig cfg;
  cfg.num_vertices = 100;
  KCoreService primary(cfg);
  LogShipper shipper(primary);
  Replica rep(cfg);  // never started: applied LSN pinned at 0
  Router router(Partitioner(1),
                {Router::PartitionBackends{&primary, {&rep}, {}}});

  Router::Session session(1);
  const std::uint64_t lsn = router.write_insert(session, 1, 2);
  EXPECT_GT(lsn, 0u);
  EXPECT_EQ(session.last_lsn(0), lsn);
  const auto read = router.read_coreness(session, 1);
  EXPECT_EQ(read.parts[0].backend, Router::kPrimary);
  EXPECT_GE(read.parts[0].served_lsn, lsn);

  // A fresh session has no freshness floor: the idle replica qualifies.
  const auto lazy = router.read_coreness(2);
  EXPECT_EQ(lazy.parts[0].backend, 0);
  EXPECT_EQ(router.stats().partitions[0].replica_reads[0], 1u);
  primary.shutdown();
}

TEST(Cluster, RouterRotatesEveryPartitionsReplicasFromOneThread) {
  // One thread's consecutive fan-out reads must start every partition on
  // each of its replicas in turn. A rotation that advanced once per
  // partition pick (instead of once per fan-out read) would start
  // partition 0 only on even values at P = 2, R = 2, and its replica 1
  // would never serve a session-less read.
  constexpr std::size_t kParts = 2;
  constexpr std::size_t kReps = 2;
  constexpr vertex_t kN = 200;
  ClusterConfig cfg;
  cfg.partitions = kParts;
  cfg.replicas = kReps;
  cfg.base.num_vertices = kN;
  ShardGroup group(cfg);
  Router router(group);
  for (const Edge& e : gen::barabasi_albert(kN, 3, 17)) {
    group.submit({e, UpdateKind::kInsert});
  }
  group.quiesce();

  constexpr std::size_t kReads = 64;
  for (std::size_t i = 0; i < kReads; ++i) {
    (void)router.read_coreness(static_cast<vertex_t>(i % kN));
  }
  const auto stats = router.stats();
  EXPECT_EQ(stats.reads, kReads);
  EXPECT_EQ(stats.primary_reads, 0u);
  for (std::size_t p = 0; p < kParts; ++p) {
    for (std::size_t r = 0; r < kReps; ++r) {
      EXPECT_EQ(stats.partitions[p].replica_reads[r], kReads / kReps)
          << "partition " << p << " replica " << r;
    }
  }
  group.shutdown();
}

TEST(Cluster, RouterStatsExactUnderConcurrentReaders) {
  // Serve counters are per-thread stripes and Stats::reads is derived
  // from partition 0's serves, so after the readers join every
  // partition's serves must add up to exactly the reads made — session
  // and session-less, coreness and level reads alike.
  const std::size_t kParts = test_write_shards();
  const std::size_t kReps = test_replicas();
  constexpr vertex_t kN = 600;
  ClusterConfig cfg;
  cfg.partitions = kParts;
  cfg.replicas = kReps;
  cfg.base.num_vertices = kN;
  ShardGroup group(cfg);
  Router router(group);
  const auto session = router.make_session();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> writes{0};
  std::thread writer([&] {
    Xoshiro256 rng(5);
    while (!stop.load(std::memory_order_relaxed)) {
      const Edge e{static_cast<vertex_t>(rng.next_below(kN)),
                   static_cast<vertex_t>(rng.next_below(kN))};
      (void)router.write(*session, {e, UpdateKind::kInsert});
      writes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  while (writes.load() == 0) std::this_thread::yield();
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kReadsPerReader = 5000;
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(300 + t);
      for (std::size_t i = 0; i < kReadsPerReader; ++i) {
        const auto v = static_cast<vertex_t>(rng.next_below(kN));
        switch (i % 4) {
          case 0: (void)router.read_coreness(*session, v); break;
          case 1: (void)router.read_coreness(v); break;
          case 2: (void)router.read_level(*session, v); break;
          default: (void)router.read_level(v);
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  const auto stats = router.stats();
  EXPECT_EQ(stats.reads, kReaders * kReadsPerReader);
  EXPECT_EQ(stats.writes, writes.load());
  for (std::size_t p = 0; p < kParts; ++p) {
    std::uint64_t serves = stats.partitions[p].primary_reads;
    for (const std::uint64_t r : stats.partitions[p].replica_reads) {
      serves += r;
    }
    EXPECT_EQ(serves, stats.reads) << "partition " << p;
  }
  EXPECT_EQ(stats.primary_reads + stats.replica_reads, stats.reads * kParts);
  group.shutdown();
}

TEST(Cluster, RouterSamplesReadLatency) {
  // Each thread times its first fan-out read and then one in every
  // kReadLatencySampleEvery; the serve counters count every read.
  ClusterConfig cfg;
  cfg.partitions = 2;
  cfg.replicas = 1;
  cfg.base.num_vertices = 100;
  ShardGroup group(cfg);
  group.submit_insert(1, 2);
  group.quiesce();

  Router once(group);
  std::thread([&] { (void)once.read_coreness(1); }).join();
  EXPECT_EQ(once.read_latency().count(), 1u);
  EXPECT_EQ(once.stats().reads, 1u);

  // 33 reads at the default 1 in 16: reads 1, 17 and 33 are timed.
  constexpr std::uint64_t kReads = 2 * Router::kReadLatencySampleEvery + 1;
  Router many(group);
  std::thread([&] {
    for (std::uint64_t i = 0; i < kReads; ++i) (void)many.read_coreness(1);
  }).join();
  EXPECT_EQ(many.read_latency().count(), 3u);
  const auto stats = many.stats();
  EXPECT_EQ(stats.reads, kReads);
  EXPECT_EQ(stats.primary_reads + stats.replica_reads, 2 * kReads);
  group.shutdown();
}

TEST(Cluster, ShardGroupRoutesEveryEdgeToExactlyOnePartition) {
  const std::size_t kParts = std::max<std::size_t>(2, test_write_shards());
  constexpr vertex_t kN = 600;
  ClusterConfig cfg;
  cfg.partitions = kParts;
  cfg.base.num_vertices = kN;
  ShardGroup group(cfg);
  ASSERT_EQ(group.num_partitions(), kParts);

  const auto edges = gen::erdos_renyi(kN, 4000, 51);
  std::set<std::uint64_t> distinct;
  for (const Edge& e : edges) {
    if (!e.is_self_loop()) distinct.insert(e.canonical().key());
    // submit() reports the partition it routed to: the Partitioner's owner.
    EXPECT_EQ(group.submit({e, UpdateKind::kInsert}).partition,
              group.partitioner().partition_of(e));
  }
  group.drain();

  // Disjoint ownership: each edge lives on exactly one partition, so the
  // partition edge counts add up to the distinct non-loop edges submitted.
  std::size_t total = 0;
  for (std::size_t p = 0; p < kParts; ++p) {
    EXPECT_GT(group.primary(p).num_edges(), 0u)
        << "partition " << p << " received no edges: the hash partitioner "
        << "is not spreading the write load";
    total += group.primary(p).num_edges();
  }
  EXPECT_EQ(total, distinct.size());
  EXPECT_EQ(group.num_edges(), distinct.size());

  // Ownership agrees with the (stateless, deterministic) Partitioner.
  for (std::size_t i = 0; i < edges.size(); i += 97) {
    const Edge e = edges[i].canonical();
    if (e.is_self_loop()) continue;
    const std::size_t owner = group.partitioner().partition_of(e);
    for (std::size_t p = 0; p < kParts; ++p) {
      EXPECT_EQ(group.primary(p).cplds().plds().has_edge(e.u, e.v),
                p == owner)
          << "edge (" << e.u << "," << e.v << ") vs partition " << p;
    }
  }
  group.shutdown();
}

TEST(Cluster, ShardedReplicasBitIdenticalPerPartitionAfterQuiesce) {
  // The sharded half of the PR-4 acceptance bar: under concurrent open-loop
  // writers (inserts and deletes), every partition's replicas converge to
  // that partition's exact primary state once quiesced.
  const std::size_t kParts = test_write_shards();
  const std::size_t kReps = test_replicas();
  constexpr vertex_t kN = 700;
  ClusterConfig cfg;
  cfg.partitions = kParts;
  cfg.replicas = kReps;
  cfg.base.num_vertices = kN;
  cfg.base.min_ops_per_cycle = 16;
  cfg.base.max_ops_per_cycle = 256;  // many cycles -> many shipped records
  ShardGroup group(cfg);

  constexpr std::size_t kWriters = 4;
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(7000 + t);
      std::vector<Edge> inserted;
      for (std::size_t i = 0; i < 2000; ++i) {
        if (!inserted.empty() && rng.next_double() < 0.25) {
          const std::size_t j = rng.next_below(inserted.size());
          group.submit({inserted[j], UpdateKind::kDelete});
          inserted[j] = inserted.back();
          inserted.pop_back();
        } else {
          const Edge e{static_cast<vertex_t>(rng.next_below(kN)),
                       static_cast<vertex_t>(rng.next_below(kN))};
          group.submit({e, UpdateKind::kInsert});
          if (!e.is_self_loop()) inserted.push_back(e.canonical());
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  group.quiesce();

  for (std::size_t p = 0; p < kParts; ++p) {
    // Replicas subscribed before the first commit: they rode the live
    // stream, and no record was served through catch-up.
    const LogShipper::Stats st = group.shipper(p).stats();
    EXPECT_GT(st.shipped_records, 0u);
    EXPECT_EQ(st.subscribers, kReps);
    EXPECT_EQ(st.catchup_records, 0u);
    for (std::size_t r = 0; r < kReps; ++r) {
      expect_exact_replica(group.primary(p), group.replica(p, r));
    }
  }
  group.shutdown();
}

TEST(Cluster, ShardedRouterCrossPartitionReadYourWrites) {
  // The sharded acceptance demo: 4 writers + 4 readers through the
  // shard-aware router over a P x R ShardGroup. A session's cursor is now
  // an LSN *vector*; every fan-out read must be served, per partition, by
  // a backend at or past that partition's cursor entry as observed before
  // the read — a session never observes state older than its own acked
  // writes on any partition.
  const std::size_t kParts = test_write_shards();
  const std::size_t kReps = test_replicas();
  constexpr vertex_t kN = 1200;
  ClusterConfig cfg;
  cfg.partitions = kParts;
  cfg.replicas = kReps;
  cfg.base.num_vertices = kN;
  cfg.base.min_ops_per_cycle = 16;
  cfg.base.max_ops_per_cycle = 512;
  ShardGroup group(cfg);
  Router router(group);

  constexpr std::size_t kPairs = 4;
  constexpr std::size_t kOps = 1200;
  std::vector<std::unique_ptr<Router::Session>> sessions;
  for (std::size_t t = 0; t < kPairs; ++t) {
    sessions.push_back(router.make_session());
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> replica_served{0};

  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kPairs; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto v = static_cast<vertex_t>(rng.next_below(kN));
        // Sample the whole cursor vector BEFORE the read; concurrent
        // writes only raise entries, which only raises what the router
        // must deliver.
        const std::vector<std::uint64_t> cursor =
            sessions[t]->lsn_vector();
        const auto read = router.read_coreness(*sessions[t], v);
        for (std::size_t p = 0; p < read.parts.size(); ++p) {
          if (read.parts[p].served_lsn < cursor[p]) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          if (read.parts[p].backend != Router::kPrimary) {
            replica_served.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kPairs; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(2000 + t);
      for (std::size_t i = 0; i < kOps; ++i) {
        const Edge e{static_cast<vertex_t>(rng.next_below(kN)),
                     static_cast<vertex_t>(rng.next_below(kN))};
        const std::size_t owner = router.partitioner().partition_of(e);
        const std::uint64_t lsn =
            router.write(*sessions[t], {e, UpdateKind::kInsert});
        EXPECT_GE(sessions[t]->last_lsn(owner), lsn);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(replica_served.load(), 0u)
      << "every partition-read fell back to its primary; replica routing "
         "went untested";
  const auto stats = router.stats();
  EXPECT_EQ(stats.writes, kPairs * kOps);
  EXPECT_EQ(stats.primary_reads + stats.replica_reads,
            stats.reads * kParts);
  for (std::size_t p = 0; p < kParts; ++p) {
    EXPECT_GT(stats.partitions[p].writes, 0u)
        << "partition " << p << " owned no writes";
  }

  // Quiesce: every partition's replicas converge to their primary.
  group.quiesce();
  for (std::size_t p = 0; p < kParts; ++p) {
    for (std::size_t r = 0; r < kReps; ++r) {
      expect_exact_replica(group.primary(p), group.replica(p, r));
    }
  }
  group.shutdown();
}

TEST(Cluster, PartitionCountOneMatchesUnshardedService) {
  // Regression guard: a 1-partition ShardGroup behind the shard-aware
  // router IS the unsharded PR-4 topology — same LSN stream, same CPLDS
  // state, same read values. Both sides get a deterministic identical
  // batch schedule: one ingest shard (global FIFO), a pinned cycle budget,
  // and every op enqueued while applies are paused.
  constexpr vertex_t kN = 400;
  const auto base_cfg = [] {
    ServiceConfig cfg;
    cfg.num_vertices = kN;
    cfg.num_shards = 1;
    cfg.min_ops_per_cycle = 64;
    cfg.max_ops_per_cycle = 64;
    return cfg;
  };
  KCoreService svc(base_cfg());
  ClusterConfig ccfg;
  ccfg.partitions = 1;
  ccfg.replicas = 1;
  ccfg.base = base_cfg();
  ShardGroup group(ccfg);
  Router router(group);
  const auto session = router.make_session();
  ASSERT_EQ(session->num_partitions(), 1u);

  svc.pause_applies();
  group.primary(0).pause_applies();
  for (const Edge& e : gen::barabasi_albert(kN, 4, 31)) {
    svc.submit({e, UpdateKind::kInsert});
    group.submit({e, UpdateKind::kInsert});
  }
  for (vertex_t v = 0; v + 1 < 60; ++v) {
    svc.submit({{v, v + 1}, UpdateKind::kDelete});
    group.submit({{v, v + 1}, UpdateKind::kDelete});
  }
  svc.resume_applies();
  group.primary(0).resume_applies();
  svc.drain();
  group.quiesce();

  // Identical LSN stream and bitwise-identical structure.
  EXPECT_EQ(svc.commit_lsn(), group.primary(0).commit_lsn());
  EXPECT_EQ(edge_keys(svc.cplds()), edge_keys(group.primary(0).cplds()));
  for (vertex_t v = 0; v < kN; ++v) {
    ASSERT_EQ(svc.cplds().plds().level(v),
              group.primary(0).cplds().plds().level(v))
        << "level mismatch at " << v;
  }
  // Fan-out reads over one partition reproduce the plain service reads
  // exactly (the sum/max aggregates are identities at P = 1).
  for (vertex_t v = 0; v < kN; v += 7) {
    const auto read = router.read_coreness(*session, v);
    ASSERT_EQ(read.parts.size(), 1u);
    EXPECT_EQ(read.value, svc.read_coreness(v));
    const auto level = router.read_level(*session, v);
    EXPECT_EQ(level.value, svc.read_level(v));
  }
  // ... and the single partition's replica mirrors it bitwise.
  expect_exact_replica(group.primary(0), group.replica(0, 0));
  svc.shutdown();
  group.shutdown();
}

TEST(Cluster, ScatterGatherReadsAndGlobalStatsAcrossPartitions) {
  const std::size_t kParts = test_write_shards();
  constexpr vertex_t kN = 500;
  ClusterConfig cfg;
  cfg.partitions = kParts;
  cfg.replicas = 1;
  cfg.base.num_vertices = kN;
  ShardGroup group(cfg);
  Router router(group);

  for (const Edge& e : gen::barabasi_albert(kN, 4, 61)) {
    group.submit({e, UpdateKind::kInsert});
  }
  std::thread writer([&] {
    Xoshiro256 rng(99);
    for (std::size_t i = 0; i < 3000; ++i) {
      const Edge e{static_cast<vertex_t>(rng.next_below(kN)),
                   static_cast<vertex_t>(rng.next_below(kN))};
      group.submit({e, UpdateKind::kInsert});
    }
  });
  writer.join();
  group.drain();

  // A fan-out read serves every partition once and sums their estimates.
  for (vertex_t v = 0; v < kN; v += 31) {
    const auto read = router.read_coreness(v);
    ASSERT_EQ(read.parts.size(), kParts);
    double sum = 0;
    for (const auto& part : read.parts) sum += part.value;
    EXPECT_DOUBLE_EQ(read.value, sum);
  }

  // Global stats gather at a cut sampled before the per-partition figures.
  const auto gs = group.global_stats();
  ASSERT_EQ(gs.cut.size(), kParts);
  ASSERT_EQ(gs.partitions.size(), kParts);
  ASSERT_EQ(gs.shippers.size(), kParts);
  EXPECT_EQ(gs.cut, group.commit_cut());
  EXPECT_EQ(gs.num_edges, group.num_edges());
  std::uint64_t acked = 0;
  for (const auto& part : gs.partitions) acked += part.acked_ops;
  EXPECT_EQ(gs.acked_ops, acked);
  group.shutdown();
}

TEST(Cluster, ShardDepthsGaugeReadsFrozenBacklog) {
  ServiceConfig cfg;
  cfg.num_vertices = 100;
  cfg.num_shards = 1;
  KCoreService svc(cfg);
  svc.pause_applies();  // freeze drains so queue growth is deterministic
  std::vector<Ticket> accepted;
  for (vertex_t v = 0; v < 8; ++v) {
    accepted.push_back(svc.submit_insert(v, v + 1));
  }
  auto stats = svc.stats();
  ASSERT_EQ(stats.shard_depths.size(), 1u);
  EXPECT_EQ(stats.shard_depths[0], 8u);

  svc.resume_applies();
  for (const Ticket& t : accepted) EXPECT_TRUE(svc.wait(t));
  EXPECT_EQ(svc.stats().shard_depths[0], 0u);
  EXPECT_EQ(svc.num_edges(), 8u);
  svc.shutdown();
}

TEST(Cluster, WalDurabilityLevelsReplayIdentically) {
  for (WalDurability durability :
       {WalDurability::kOsCache, WalDurability::kFdatasync,
        WalDurability::kFsync}) {
    TempPath wal("durability.wal");
    constexpr vertex_t kN = 200;
    auto edges = gen::barabasi_albert(kN, 3, 37);
    std::set<std::uint64_t> before;
    {
      ServiceConfig cfg;
      cfg.num_vertices = kN;
      cfg.wal_path = wal.str();
      cfg.wal_durability = durability;
      KCoreService svc(cfg);
      for (const Edge& e : edges) svc.submit_insert(e.u, e.v);
      svc.drain();
      before = edge_keys(svc.cplds());
      svc.simulate_crash();
    }
    ServiceConfig cfg;
    cfg.num_vertices = kN;
    cfg.wal_path = wal.str();
    cfg.wal_durability = durability;
    KCoreService svc(cfg);
    EXPECT_GT(svc.stats().replayed_batches, 0u);
    EXPECT_EQ(edge_keys(svc.cplds()), before);
    svc.shutdown();
  }
}

TEST(Cluster, LsnNumberingSurvivesCheckpointAndRestart) {
  TempPath wal("lsncont.wal");
  TempPath snap("lsncont.snap");
  ServiceConfig cfg;
  cfg.num_vertices = 300;
  cfg.wal_path = wal.str();
  cfg.snapshot_path = snap.str();
  std::uint64_t pre_crash_lsn = 0;
  {
    KCoreService svc(cfg);
    for (vertex_t v = 0; v + 1 < 100; ++v) svc.submit_insert(v, v + 1);
    svc.drain();
    svc.checkpoint();  // compaction must not rewind the LSN clock
    const std::uint64_t after_ckpt = svc.commit_lsn();
    Ticket t = svc.submit_insert(200, 201);
    std::uint64_t lsn = 0;
    ASSERT_TRUE(svc.wait(t, &lsn));
    EXPECT_GT(lsn, after_ckpt);
    pre_crash_lsn = svc.commit_lsn();
    svc.simulate_crash();
  }
  KCoreService svc(cfg);
  EXPECT_EQ(svc.commit_lsn(), pre_crash_lsn);
  std::uint64_t lsn = 0;
  Ticket t = svc.submit_insert(210, 211);
  ASSERT_TRUE(svc.wait(t, &lsn));
  EXPECT_GT(lsn, pre_crash_lsn);
  svc.shutdown();
}

TEST(Cluster, UnsubscribedReplicaStopsReceiving) {
  ServiceConfig cfg;
  cfg.num_vertices = 100;
  KCoreService primary(cfg);
  LogShipper shipper(primary);
  Replica rep(cfg);
  rep.start(shipper);
  primary.submit_insert(1, 2);
  primary.drain();
  ASSERT_TRUE(rep.wait_for_lsn(primary.commit_lsn()));
  const std::uint64_t at_stop = rep.applied_lsn();
  rep.stop();

  primary.submit_insert(2, 3);
  primary.drain();
  EXPECT_GT(primary.commit_lsn(), at_stop);
  EXPECT_EQ(rep.applied_lsn(), at_stop);
  EXPECT_EQ(shipper.stats().subscribers, 0u);
  primary.shutdown();
}

TEST(Cluster, EncodeOncePipelineCountsCodecInvocations) {
  // Encode-once, measured: with a binary WAL, one replica on the live
  // stream and one late joiner caught up from disk, the codec encodes each
  // batch exactly once (on the primary's apply thread) and decodes it
  // exactly once per replica — nothing between the group commit and
  // replica apply re-serializes.
  TempPath wal("encodeonce.wal");
  constexpr vertex_t kN = 400;
  ServiceConfig cfg;
  cfg.num_vertices = kN;
  cfg.wal_path = wal.str();
  cfg.min_ops_per_cycle = 4;
  cfg.max_ops_per_cycle = 64;
  KCoreService primary(cfg);
  service::reset_wal_codec_counters();

  LogShipper shipper(primary);
  Replica live(cfg);
  live.start(shipper);  // rides the live stream from LSN 0

  auto edges = gen::barabasi_albert(kN, 4, 53);
  const std::size_t half = edges.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    primary.submit_insert(edges[i].u, edges[i].v);
  }
  primary.drain();

  Replica late(cfg);
  late.start(shipper);  // catches up through on-disk frames

  for (std::size_t i = half; i < edges.size(); ++i) {
    primary.submit_insert(edges[i].u, edges[i].v);
  }
  primary.drain();
  ASSERT_TRUE(live.wait_for_lsn(primary.commit_lsn()));
  ASSERT_TRUE(late.wait_for_lsn(primary.commit_lsn()));
  EXPECT_GT(shipper.stats().disk_records, 0u);
  expect_exact_replica(primary, live);
  expect_exact_replica(primary, late);

  // Every committed record = one applied batch on the primary.
  const std::uint64_t records = primary.stats().batches;
  ASSERT_GT(records, 0u);
  const auto counters = service::wal_codec_counters();
  EXPECT_EQ(counters.encoded_frames, records)
      << "a consumer re-encoded: WAL append, live shipping, and disk "
         "catch-up must all reuse the apply thread's single encode";
  EXPECT_EQ(counters.decoded_batches, 2 * records)
      << "each of the 2 replicas must decode each record exactly once";
  live.stop();
  late.stop();
  primary.shutdown();
}

TEST(Cluster, LiveAndCatchupShipIdenticalFrameBytes) {
  // Replicas must decode the *same bytes* no matter which path delivered
  // them. Capture every shipped frame once through the live stream (a
  // subscriber from LSN 0, before any commit) and once through disk
  // catch-up (a joiner after the last commit), and compare both
  // bit-for-bit against the frames on disk.
  TempPath wal("bitident.wal");
  constexpr vertex_t kN = 300;
  ServiceConfig cfg;
  cfg.num_vertices = kN;
  cfg.wal_path = wal.str();
  cfg.min_ops_per_cycle = 4;
  cfg.max_ops_per_cycle = 32;
  KCoreService primary(cfg);
  LogShipper shipper(primary);

  std::mutex mu;
  std::map<std::uint64_t, std::vector<unsigned char>> live_bytes;
  const std::uint64_t live = shipper.subscribe(
      0, [&](const cluster::ShippedRecord& rec) {
        std::lock_guard lock(mu);
        live_bytes.emplace(rec.lsn, rec.frame->bytes());
      });
  for (const Edge& e : gen::barabasi_albert(kN, 4, 61)) {
    primary.submit_insert(e.u, e.v);
  }
  primary.drain();
  std::map<std::uint64_t, std::vector<unsigned char>> catchup_bytes;
  const std::uint64_t late = shipper.subscribe(
      0, [&](const cluster::ShippedRecord& rec) {
        catchup_bytes.emplace(rec.lsn, rec.frame->bytes());
      });
  shipper.unsubscribe(late);
  shipper.unsubscribe(live);
  EXPECT_EQ(shipper.stats().disk_records, primary.commit_lsn());

  std::map<std::uint64_t, std::vector<unsigned char>> wal_bytes;
  service::scan_wal_frames(cfg.wal_path, kN,
                           [&](const service::WalFramePtr& frame) {
                             wal_bytes.emplace(frame->lsn(), frame->bytes());
                           });
  ASSERT_FALSE(wal_bytes.empty());
  EXPECT_EQ(wal_bytes.size(), primary.commit_lsn());
  primary.shutdown();
  std::lock_guard lock(mu);
  EXPECT_EQ(live_bytes, wal_bytes);
  EXPECT_EQ(catchup_bytes, wal_bytes);
}

TEST(Cluster, ShipAtDurableReplicasConverge) {
  // ship_at = kDurable: records reach the shipper only once the async
  // engine's watermark covers them, so a replica can never apply bytes the
  // primary might lose in a crash. Replicas must still converge exactly —
  // the stream stays gapless and ordered, just delayed to durability.
  constexpr vertex_t kN = 500;
  TempPath wal("ship_at_durable.wal");
  ClusterConfig cfg;
  cfg.partitions = 1;
  cfg.replicas = 2;
  cfg.base.num_vertices = kN;
  cfg.base.wal_path = wal.str();
  cfg.base.wal_durability = WalDurability::kFdatasync;
  cfg.base.ship_at = service::ShipPoint::kDurable;
  cfg.base.min_ops_per_cycle = 16;
  cfg.base.max_ops_per_cycle = 256;
  {
    ShardGroup group(cfg);
    constexpr std::size_t kWriters = 2;
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        Xoshiro256 rng(7700 + t);
        std::vector<Edge> inserted;
        for (std::size_t i = 0; i < 1500; ++i) {
          if (!inserted.empty() && rng.next_double() < 0.25) {
            const std::size_t j = rng.next_below(inserted.size());
            group.submit({inserted[j], UpdateKind::kDelete});
            inserted[j] = inserted.back();
            inserted.pop_back();
          } else {
            const Edge e{static_cast<vertex_t>(rng.next_below(kN)),
                         static_cast<vertex_t>(rng.next_below(kN))};
            group.submit({e, UpdateKind::kInsert});
            if (!e.is_self_loop()) inserted.push_back(e.canonical());
          }
        }
      });
    }
    for (auto& w : writers) w.join();
    group.quiesce();
    EXPECT_GT(group.shipper(0).stats().shipped_records, 0u);
    const auto stats = group.global_stats();
    EXPECT_EQ(stats.partitions[0].wal_engine, "flusher");
    EXPECT_GT(stats.wal_flushes, 0u);
    EXPECT_GT(stats.wal_flush_bytes, 0u);
    for (std::size_t r = 0; r < cfg.replicas; ++r) {
      expect_exact_replica(group.primary(0), group.replica(0, r));
    }
    group.shutdown();
  }
  std::filesystem::remove(wal.str());
}

TEST(Cluster, ShardedClusterDurableBinaryWalConverges) {
  // The CI binary-WAL TSan leg runs this under the sharded env pins: every
  // partition group-commits a durable (kFdatasync) binary v4 WAL while
  // concurrent writers drive the encode-once fan-out, and every partition's
  // replicas converge to their primary bit-for-bit.
  const std::size_t kParts = test_write_shards();
  const std::size_t kReps = test_replicas();
  constexpr vertex_t kN = 500;
  TempPath wal("durable_v4.wal");
  ClusterConfig cfg;
  cfg.partitions = kParts;
  cfg.replicas = kReps;
  cfg.base.num_vertices = kN;
  cfg.base.wal_path = wal.str();
  cfg.base.wal_durability = WalDurability::kFdatasync;
  cfg.base.min_ops_per_cycle = 16;
  cfg.base.max_ops_per_cycle = 256;
  {
    ShardGroup group(cfg);
    constexpr std::size_t kWriters = 2;
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        Xoshiro256 rng(9100 + t);
        std::vector<Edge> inserted;
        for (std::size_t i = 0; i < 1500; ++i) {
          if (!inserted.empty() && rng.next_double() < 0.25) {
            const std::size_t j = rng.next_below(inserted.size());
            group.submit({inserted[j], UpdateKind::kDelete});
            inserted[j] = inserted.back();
            inserted.pop_back();
          } else {
            const Edge e{static_cast<vertex_t>(rng.next_below(kN)),
                         static_cast<vertex_t>(rng.next_below(kN))};
            group.submit({e, UpdateKind::kInsert});
            if (!e.is_self_loop()) inserted.push_back(e.canonical());
          }
        }
      });
    }
    for (auto& w : writers) w.join();
    group.quiesce();
    for (std::size_t p = 0; p < kParts; ++p) {
      for (std::size_t r = 0; r < kReps; ++r) {
        expect_exact_replica(group.primary(p), group.replica(p, r));
      }
    }
    group.shutdown();
  }
  for (std::size_t p = 0; p < kParts; ++p) {
    const std::string path = cluster::partition_path(wal.str(), p, kParts);
    EXPECT_EQ(service::read_wal_header(path).num_vertices, kN);
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace cpkcore
