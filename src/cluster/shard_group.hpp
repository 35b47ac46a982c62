// ShardGroup — the sharded write plane: P independent partition primaries,
// each with its own WAL, LSN stream, log shipper, and replica set.
//
//   edge op ──Partitioner──▶ partition p ──▶ primary_p (KCoreService)
//                                               │  WAL_p, LSNs_p
//                                               ▼
//                                           LogShipper_p ──▶ replica_p,0
//                                                            replica_p,1 ...
//
// PR 4 scaled reads (one primary, N exact replicas); the ShardGroup scales
// *writes* by partitioning the edge space across P primaries (edge-key hash
// via Partitioner), composing with the replica sets: every partition is the
// complete PR-4 topology over its own edge subset. Partitions share
// nothing — no cross-partition locks, logs, or LSN coordination — which is
// what lets write throughput scale with P, and what keeps per-partition
// guarantees intact: each partition's replicas stay bit-identical to their
// primary, and each partition's (snapshot_p, WAL_p) pair recovers it
// independently.
//
// Cross-partition state lives behind *vector cuts*: a per-partition LSN
// vector (cut[p] = an LSN on partition p's stream). commit_cut() samples
// the committed frontier; scatter-gather consumers (global stats, fan-out
// reads, checkpoint) record the cut they operated at. Because partitions
// are independent, a vector cut IS a consistent cut: no cross-partition
// ordering exists to violate.
//
// Threading: construction and shutdown() are single-threaded; everything
// else (submit/wait/drain, cut sampling, stats) is thread-safe, delegating
// to the per-partition services. The ShardGroup owns every component and
// tears them down in dependency order (replicas, shippers, primaries).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/log_ship.hpp"
#include "cluster/partition.hpp"
#include "cluster/replica.hpp"
#include "obs/metrics.hpp"
#include "service/kcore_service.hpp"

namespace cpkcore::cluster {

struct ClusterConfig {
  /// Write-plane width P: independent partition primaries. 1 = the
  /// unsharded PR-4 topology (and on-disk file layout).
  std::size_t partitions = 1;

  /// Read-plane depth R: exact replicas per partition. 0 = no replicas
  /// (reads fall back to the partition primaries).
  std::size_t replicas = 0;

  /// Template ServiceConfig applied to every partition primary.
  /// `num_vertices` is the *global* vertex space (every partition spans
  /// it); `wal_path` and `snapshot_path` are stems — partition p uses
  /// "<stem>.p<p>" when partitions > 1 (see partition_path), the stem
  /// itself when partitions == 1. When `base.metrics` is set, the group
  /// prefixes each partition's sources with "p<p>." (primary under
  /// "p<p>.service.", shipper under "p<p>.ship.", replica r under
  /// "p<p>.replica<r>.") and adds per-partition replica-lag gauges under
  /// "cluster.". When `base.health` is set, the same "p<p>." scheme names
  /// the health components (apply/WAL-flusher heartbeats, replica apply
  /// heartbeats "p<p>.replica<r>"), each tagged with its partition id for
  /// per-partition rollups. With replicas > 0 each partition also
  /// registers a report-only "p<p>.replica_lag" value probe (records the
  /// slowest replica trails its primary): it shows the lag in rollups and
  /// never leaves healthy.
  service::ServiceConfig base;
};

class ShardGroup {
 public:
  /// Builds every partition primary (cold, or warm from its own
  /// snapshot/WAL), its log shipper, and its `replicas` replicas, already
  /// subscribed. Throws what KCoreService / LogShipper / Replica
  /// construction throws; std::invalid_argument for partitions == 0.
  explicit ShardGroup(ClusterConfig config);
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  // ---------------- topology ----------------

  [[nodiscard]] std::size_t num_partitions() const {
    return primaries_.size();
  }
  /// Replicas per partition (uniform across partitions).
  [[nodiscard]] std::size_t num_replicas() const {
    return config_.replicas;
  }
  [[nodiscard]] const Partitioner& partitioner() const {
    return partitioner_;
  }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }

  [[nodiscard]] service::KCoreService& primary(std::size_t p) {
    return *primaries_[p];
  }
  [[nodiscard]] const service::KCoreService& primary(std::size_t p) const {
    return *primaries_[p];
  }
  [[nodiscard]] LogShipper& shipper(std::size_t p) { return *shippers_[p]; }
  [[nodiscard]] Replica& replica(std::size_t p, std::size_t r) {
    return *replicas_[p][r];
  }
  [[nodiscard]] const Replica& replica(std::size_t p, std::size_t r) const {
    return *replicas_[p][r];
  }
  /// Partition p's replica set as raw pointers (router construction).
  [[nodiscard]] std::vector<Replica*> replica_set(std::size_t p) const;

  // ---------------- write plane ----------------

  /// A routed submission: which partition took the op, and its ticket
  /// *on that partition's primary*.
  struct Submitted {
    std::size_t partition = 0;
    service::Ticket ticket;
  };

  /// Open-loop routed submission: hashes the op's edge to its owning
  /// partition and submits there. Thread-safe; throws what
  /// KCoreService::submit throws.
  Submitted submit(Update op);
  Submitted submit_insert(vertex_t u, vertex_t v) {
    return submit({{u, v}, UpdateKind::kInsert});
  }
  Submitted submit_delete(vertex_t u, vertex_t v) {
    return submit({{u, v}, UpdateKind::kDelete});
  }

  /// Blocks until the submission is acknowledged by its partition; on
  /// success optionally reports the partition-local acked LSN. False iff
  /// that partition's primary stopped first.
  bool wait(const Submitted& s, std::uint64_t* acked_lsn = nullptr) {
    return primaries_[s.partition]->wait(s.ticket, acked_lsn);
  }

  /// Blocks until every op submitted (to any partition) before the call is
  /// acknowledged.
  void drain();

  // ---------------- cross-partition cuts ----------------

  /// Samples the committed frontier: cut[p] = partition p's commit LSN.
  /// Any backend at-or-past its entry serves state no older than every
  /// write acked before the sample.
  [[nodiscard]] std::vector<std::uint64_t> commit_cut() const;

  /// drain() + wait_replicas_at(commit_cut()): on return every backend of
  /// every partition serves the same quiescent state. Returns the cut.
  /// Throws std::runtime_error if a replica stopped before reaching it
  /// (the quiescence guarantee would silently not hold otherwise).
  std::vector<std::uint64_t> quiesce();

  // ---------------- scatter-gather ----------------

  /// Cross-partition aggregate stats, stamped with the commit cut they
  /// were gathered at (sampled first, so every per-partition figure is
  /// at-or-past its cut entry).
  struct GlobalStats {
    std::vector<std::uint64_t> cut;  ///< per-partition commit LSNs
    std::size_t num_edges = 0;       ///< sum of partition edge counts
    std::uint64_t submitted_ops = 0;
    std::uint64_t acked_ops = 0;
    std::uint64_t applied_edges = 0;
    std::uint64_t batches = 0;
    std::uint64_t cycles = 0;
    /// Sum of per-partition WAL flush syscall counts / bytes (see
    /// ServiceStats::wal_flushes) — the cluster-wide durability pipeline
    /// cost, one aggregate to chart against acked_ops.
    std::uint64_t wal_flushes = 0;
    std::uint64_t wal_flush_bytes = 0;
    std::vector<service::ServiceStats> partitions;
    std::vector<LogShipper::Stats> shippers;
  };
  [[nodiscard]] GlobalStats global_stats() const;

  /// Total edges across partitions (each edge lives on exactly one).
  [[nodiscard]] std::size_t num_edges() const;
  [[nodiscard]] vertex_t num_vertices() const {
    return primaries_.front()->num_vertices();
  }

  // ---------------- replication lag ----------------

  /// Records partition p's slowest replica trails its primary's applied
  /// LSN by (0 with no replicas).
  [[nodiscard]] std::uint64_t replica_lag(std::size_t p) const;

  /// Max of replica_lag(p) over the partitions — the cluster-wide
  /// replication health signal.
  [[nodiscard]] std::uint64_t max_replica_lag() const;

  // ---------------- lifecycle ----------------

  /// Checkpoints every partition (snapshot_p + WAL_p truncation) and
  /// returns the vector of base LSNs the snapshots cover. Partitions
  /// checkpoint *concurrently* (one thread each): a checkpoint's cost is
  /// dominated by snapshot write + WAL fsync, so overlapping them takes
  /// the wall-clock from sum-of-partitions to slowest-partition. Each
  /// partition's checkpoint is internally update-quiescent; across
  /// partitions the cut is a vector cut — consistent because partitions
  /// share nothing, so restoring every (snapshot_p, WAL_p) pair reproduces
  /// a reachable global state. Throws std::logic_error when the config has
  /// no snapshot stem; rethrows the first per-partition failure after all
  /// partitions finish.
  std::vector<std::uint64_t> checkpoint();

  /// Graceful teardown in dependency order: replicas stop, shippers
  /// detach, primaries shut down (draining). Each stage runs its
  /// partitions concurrently — with a WAL flusher a primary's
  /// shutdown waits out its in-flight flush chain, and overlapping those
  /// drains keeps teardown at slowest-partition cost. Idempotent; the
  /// destructor calls it.
  void shutdown();

 private:
  /// Blocks until every replica of every partition has applied at least
  /// its partition's cut entry. False if any replica stopped first.
  bool wait_replicas_at(const std::vector<std::uint64_t>& cut) const;

  ClusterConfig config_;
  Partitioner partitioner_;
  // Declaration order is destruction-order-in-reverse: replicas_ destroys
  // first (stop() unsubscribes), then shippers_ (detach needs a live
  // primary), then primaries_.
  std::vector<std::unique_ptr<service::KCoreService>> primaries_;
  std::vector<std::unique_ptr<LogShipper>> shippers_;
  std::vector<std::vector<std::unique_ptr<Replica>>> replicas_;
  /// Per-partition replica-lag probes (base.health set, replicas > 0);
  /// their callbacks walk primaries_/replicas_, so shutdown() tombstones
  /// them before any component stops.
  std::vector<obs::HealthComponent*> lag_probes_;
  // Declared last: the cluster-level collect callbacks walk every
  // component above, so they must deregister first.
  obs::MetricsGroup metrics_;
};

}  // namespace cpkcore::cluster
