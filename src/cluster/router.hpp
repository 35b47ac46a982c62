// Router — the sharded cluster's front end: writes are routed to the
// owning partition's primary, reads fan out across partitions (each
// partition served by a replica that has caught up to the session's cursor
// *for that partition*, with primary fallback), and sessions get
// read-your-writes on every partition at once.
//
//   client session ──write(op)──▶ Router ──Partitioner──▶ primary_p
//        │                          │                        │ ack(lsn)
//        │◀── session.lsn[p] = lsn ─┘◀───────────────────────┘
//        │
//        └──read(session, v)──▶ Router ──▶ partition 0: backend ≥ lsn[0]
//                                  │       partition 1: backend ≥ lsn[1]
//                                  │       ...        (rotating replicas,
//                                  ▼                   primary fallback)
//                          combine per-partition estimates
//
// The session token generalizes PR 4's single LSN cursor to a *per-
// partition LSN vector*: writes advance only the owning partition's entry,
// and a fan-out read requires, per partition, a backend whose applied LSN
// has reached that partition's entry — so a session never observes state
// older than its own acked writes on any partition, while partitions the
// session never wrote to stay floor-0 and spread across all replicas.
//
// Vertex reads fan out because the edge-key partitioning spreads a
// vertex's incident edges across every partition (that is what spreads
// write load). The fan-out combines per-partition values: coreness
// estimates add (each partition holds a disjoint edge subset; the sum is
// an upper-bound-flavored aggregate, exact at P = 1), levels take the max.
// Per-partition values and serving backends are reported in the result for
// callers that want the raw cut.
//
// Thread-safety: the router is fully thread-safe. A Session may be shared
// by the threads of one logical client; its cursors only advance. Each
// part-read lands on a backend's wait-free read (ReadMode::kCplds's view,
// or kNonSync's live level); SyncReads still blocks per partition by
// design. The router's own bookkeeping stays off shared cache lines: the
// replica rotation is a thread-local counter, serve counts go to
// obs::Counter's per-thread stripes, and only a thread's first fan-out
// read and one in kReadLatencySampleEvery after it read the clock and
// take the latency histogram's stripe lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/partition.hpp"
#include "cluster/replica.hpp"
#include "cluster/shard_group.hpp"
#include "core/read_modes.hpp"
#include "obs/metrics.hpp"
#include "service/kcore_service.hpp"

namespace cpkcore::cluster {

class Router {
 public:
  /// Backend index for "served by the partition's primary".
  static constexpr int kPrimary = -1;

  /// Read-your-writes session token: one LSN cursor per partition, each
  /// carrying the session's last acked write on that partition (0 = never
  /// wrote there, any backend qualifies). Create one per logical client
  /// (make_session(), or construct with the partition count); shareable
  /// across that client's threads.
  class Session {
   public:
    explicit Session(std::size_t partitions)
        : partitions_(partitions),
          lsns_(std::make_unique<std::atomic<std::uint64_t>[]>(partitions)) {
      for (std::size_t p = 0; p < partitions; ++p) lsns_[p] = 0;
    }

    [[nodiscard]] std::size_t num_partitions() const { return partitions_; }

    [[nodiscard]] std::uint64_t last_lsn(std::size_t partition) const {
      return lsns_[partition].load(std::memory_order_acquire);
    }

    /// The full cursor vector (sampled per entry; entries only advance).
    [[nodiscard]] std::vector<std::uint64_t> lsn_vector() const {
      std::vector<std::uint64_t> out(partitions_);
      for (std::size_t p = 0; p < partitions_; ++p) out[p] = last_lsn(p);
      return out;
    }

   private:
    friend class Router;
    /// Monotone advance (concurrent writers on one session race benignly).
    void advance(std::size_t partition, std::uint64_t lsn) {
      auto& cell = lsns_[partition];
      std::uint64_t cur = cell.load(std::memory_order_relaxed);
      while (cur < lsn &&
             !cell.compare_exchange_weak(cur, lsn, std::memory_order_release,
                                         std::memory_order_relaxed)) {
      }
    }

    std::size_t partitions_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> lsns_;
  };

  /// One partition's contribution to a fan-out read.
  template <typename V>
  struct PartRead {
    V value{};
    /// The serving backend's applied LSN sampled before the read — a
    /// freshness lower bound, always >= the session's cursor for this
    /// partition at routing time.
    std::uint64_t served_lsn = 0;
    int backend = kPrimary;  ///< replica index within the partition, or
                             ///< kPrimary
  };

  template <typename V>
  struct Result {
    V value{};  ///< combined across partitions (sum / max; see file header)
    std::vector<PartRead<V>> parts;  ///< one entry per partition
  };
  using ReadResult = Result<double>;
  using LevelResult = Result<level_t>;

  struct PartitionStats {
    std::uint64_t writes = 0;         ///< routed writes owned here
    std::uint64_t primary_reads = 0;  ///< part-reads the primary served
    std::vector<std::uint64_t> replica_reads;
  };
  struct Stats {
    std::uint64_t writes = 0;  ///< total routed writes
    /// Fan-out read operations. Each serves every partition exactly once,
    /// so this is partition 0's primary plus replica serves; it is exact
    /// once the readers are quiescent.
    std::uint64_t reads = 0;
    std::uint64_t primary_reads = 0;  ///< partition-serves, aggregated
    std::uint64_t replica_reads = 0;  ///< partition-serves, aggregated
    /// Partition-serves where an LSN-eligible replica was passed over
    /// because the health plane classified it stalled (the read landed on
    /// another replica or the primary instead).
    std::uint64_t reads_rerouted_unhealthy = 0;
    std::vector<PartitionStats> partitions;
  };

  /// One partition's backends as the router sees them. The router holds
  /// pointers; backends must outlive it.
  struct PartitionBackends {
    service::KCoreService* primary = nullptr;
    std::vector<Replica*> replicas;  ///< may be empty (primary serves all)
    /// Parallel to `replicas` (or empty / nullptr entries = no health
    /// plane): each replica's watchdog handle, read lock-free per pick so
    /// a stalled replica stops serving reads. HealthMonitor keeps the
    /// pointers valid past replica teardown (tombstones read healthy).
    std::vector<const obs::HealthComponent*> replica_health;
  };

  /// Production form: route over a ShardGroup's partitions (the group must
  /// outlive the router).
  explicit Router(ShardGroup& group);

  /// Assembled form (tests, bespoke topologies): explicit backends per
  /// partition; the partitioner's width must match.
  Router(Partitioner partitioner, std::vector<PartitionBackends> partitions);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Fresh session sized to this router's partition count.
  [[nodiscard]] std::unique_ptr<Session> make_session() const {
    return std::make_unique<Session>(num_partitions());
  }

  // ---------------- writes ----------------

  /// Routes the op to its owning partition's primary, waits for the ack,
  /// and advances the session's cursor *for that partition* to the acked
  /// LSN, which is returned. Throws std::runtime_error when the primary
  /// stopped before acknowledging (outcome unknown — the cursor is not
  /// advanced).
  std::uint64_t write(Session& session, Update op);
  std::uint64_t write_insert(Session& session, vertex_t u, vertex_t v) {
    return write(session, {{u, v}, UpdateKind::kInsert});
  }
  std::uint64_t write_delete(Session& session, vertex_t u, vertex_t v) {
    return write(session, {{u, v}, UpdateKind::kDelete});
  }

  // ---------------- reads ----------------

  /// Fan-out read honoring the session's per-partition cursors.
  [[nodiscard]] ReadResult read_coreness(
      const Session& session, vertex_t v,
      ReadMode mode = ReadMode::kCplds) const;
  [[nodiscard]] LevelResult read_level(
      const Session& session, vertex_t v,
      ReadMode mode = ReadMode::kCplds) const;

  /// Session-less fan-out reads: no freshness floor on any partition.
  [[nodiscard]] ReadResult read_coreness(
      vertex_t v, ReadMode mode = ReadMode::kCplds) const;
  [[nodiscard]] LevelResult read_level(
      vertex_t v, ReadMode mode = ReadMode::kCplds) const;

  // ---------------- inspection ----------------

  [[nodiscard]] std::size_t num_partitions() const { return parts_.size(); }
  [[nodiscard]] std::size_t num_replicas(std::size_t partition) const {
    return parts_[partition].replicas.size();
  }
  [[nodiscard]] service::KCoreService& primary(std::size_t partition) {
    return *parts_[partition].primary;
  }
  [[nodiscard]] const Partitioner& partitioner() const {
    return partitioner_;
  }
  [[nodiscard]] Stats stats() const;

  /// Each reader thread times its first fan-out read and then one in
  /// every kReadLatencySampleEvery; the rest skip the clock.
  static constexpr std::uint32_t kReadLatencySampleEvery = 16;

  /// Merged histogram of the sampled fan-out reads' end-to-end times,
  /// whichever backends served them. Metrics only: it is exported as
  /// "<prefix>read_latency_ns" and nothing in the router acts on it.
  [[nodiscard]] LatencyHistogram read_latency() const {
    return read_latency_.merged();
  }

  /// Registers the router's counters and read-latency histogram with a
  /// metrics registry under `prefix` (RAII-deregistered when the router
  /// dies). Safe to call once; null registry no-ops.
  void register_metrics(obs::MetricsRegistry* registry,
                        std::string prefix = "router.");

 private:
  /// Per-partition serve counters, striped so the writer's and each
  /// reader's increments land on their own cache lines.
  struct PartState {
    obs::Counter writes;
    obs::Counter primary_reads;
    std::unique_ptr<obs::Counter[]> replica_reads;
  };

  /// Picks a backend of `partition` whose applied LSN is >= min_lsn: the
  /// first eligible replica starting at (rotation + partition) mod the
  /// replica count, primary fallback. Writes the sampled LSN (the
  /// freshness lower bound) to *served_lsn.
  int pick_backend(std::size_t partition, std::uint64_t min_lsn,
                   std::uint64_t rotation, std::uint64_t* served_lsn) const;

  /// The shared fan-out skeleton: for each partition, pick a backend at or
  /// past min_lsn_for(p), read through it, fold the value into the
  /// combined result. Defined in the .cpp (all instantiations live there).
  template <typename V, typename MinLsn, typename Combine,
            typename ReplicaRead, typename PrimaryRead>
  Result<V> fan_out(MinLsn min_lsn_for, Combine combine,
                    ReplicaRead on_replica, PrimaryRead on_primary) const;

  Partitioner partitioner_;
  std::vector<PartitionBackends> parts_;
  std::unique_ptr<PartState[]> state_;
  mutable std::atomic<std::uint64_t> rerouted_unhealthy_{0};
  /// Striped: sampled fan-out reads record concurrently from any reader
  /// thread.
  mutable obs::StripedHistogram read_latency_;
  // Declared last: deregisters before the members its collector reads.
  obs::MetricsGroup metrics_;
};

}  // namespace cpkcore::cluster
