// KCoreService — the ingest-and-query serving layer over the CPLDS.
//
// The CPLDS threading contract allows one driver thread to feed batches
// while any number of readers query. This facade turns that into a service:
//
//   clients ──submit──▶ sharded ingest buffers ──drain──▶ coalescer
//                                                            │
//   clients ◀─ticket ack─ apply thread ◀─apply batches─ WAL (group commit)
//                                │
//                                └──▶ commit listener (cluster log shipping)
//
//  * Ingest: any number of client threads submit individual insert/delete
//    edge ops; each op lands in a shard chosen by its edge key (so all ops
//    on one edge share a shard and keep their submission order) and returns
//    a Ticket that can be waited on for "applied" acknowledgment. Shards
//    are unbounded; per-shard queue depths are exposed in ServiceStats
//    (and the shard_depth_max gauge) so a backlog is visible.
//  * Coalescing: a single background apply thread drains the shards —
//    bounded by an adaptive op budget targeting a configured apply latency —
//    and canonicalizes the stream into deduplicated homogeneous batches.
//  * LSNs: every committed batch gets the next log sequence number; the
//    per-cycle group commit publishes them to the WAL and then to the
//    registered commit listener (the cluster layer's log shipper). An op's
//    acknowledgment carries the LSN its cycle committed at, which is what
//    read-your-writes sessions pin their reads to.
//  * Durability: with a WAL configured, batches are appended and group-
//    committed (one commit per drain cycle, at the configured WalDurability
//    level); on construction the service warm-restarts from the snapshot
//    (if present) plus the committed WAL suffix, resuming LSN numbering
//    where the log left off. checkpoint() compacts by streaming a snapshot
//    from a consistent cut, pausing updates only to copy the edge set and
//    to swap in the compacted WAL.
//  * Pipelined commit: with a WAL the cycle splits into *applied* (CPLDS
//    mutated, frame staged to the WAL flusher and — at
//    ShipPoint::kApplied — handed to the shipper) and *durable* (the
//    flusher's watermark reached the cycle's last LSN). At kOsCache
//    tickets still ack at applied; at the sync levels the ack, the
//    commit-LSN advance, and (at ShipPoint::kDurable) the shipping are
//    deferred to the watermark via the flusher's completion callback — so
//    cycle N+1 applies while cycle N's flush is in flight, and no ack ever
//    precedes its durability point. The committed-prefix replay guarantee
//    is unchanged: replay truncates to what actually hit the disk.
//  * Encode-once: with a binary WAL and/or a commit listener, the apply
//    thread encodes each committed batch into a WalFrame exactly once; the
//    WAL appends those bytes and the listener (the cluster layer's log
//    shipper) receives the same frame by shared_ptr.
//  * Acknowledgment: a ticket is acked once its drain cycle has been
//    logged and applied; ops that coalesce into no-ops (duplicates,
//    self-loops, already-present edges) ack like any other. Per-shard acks
//    are monotone in submission order.
//  * Reads: any thread, at any time, through all three ReadModes.
//
// Durability is one-way: acked ops always survive restart. An un-acked op
// usually does not (never logged), but one caught between the group commit
// and its ack IS replayed on restart even though wait() reported failure —
// so treat wait() == false as "outcome unknown", as with any durable
// system's in-doubt window, not as "safe to blindly resubmit".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/reclaim.hpp"
#include "core/read_modes.hpp"
#include "core/snapshot.hpp"
#include "obs/metrics.hpp"
#include "service/coalescer.hpp"
#include "service/wal.hpp"
#include "util/cacheline.hpp"
#include "util/latency_histogram.hpp"
#include "util/types.hpp"

namespace cpkcore::service {

/// When committed batches are handed to the commit listener (the cluster
/// layer's log shipper). kApplied (the default, PR 6 behavior) ships as
/// soon as the cycle is staged — replicas track the primary's apply and may
/// briefly run ahead of durability; kDurable ships only once the cycle's
/// WAL bytes reached their durability point, so a replica can never have
/// applied a record a primary crash could un-commit.
enum class ShipPoint { kApplied, kDurable };

struct ServiceConfig {
  /// Vertex-id space. Ignored (the snapshot's count wins) when warm-
  /// restarting from an existing snapshot file.
  vertex_t num_vertices = 0;

  /// CPLDS parameters (also used to rebuild from snapshot/WAL).
  double delta = kDefaultDelta;
  double lambda = kDefaultLambda;
  int levels_per_group_cap = kDefaultLevelsPerGroupCap;
  CPLDS::Options cplds{};

  /// Ingest shards. More shards = less submit contention.
  std::size_t num_shards = 8;

  /// Durability. Empty path = feature off.
  std::string wal_path;
  std::string snapshot_path;
  WalDurability wal_durability = WalDurability::kOsCache;
  /// Where committed batches are handed to the commit listener.
  ShipPoint ship_at = ShipPoint::kApplied;

  /// Adaptive drain budget: per-cycle op count is steered so one cycle's
  /// apply time lands near the target, within [min_ops, max_ops].
  std::uint64_t target_apply_ns = 5'000'000;  // 5 ms
  std::size_t min_ops_per_cycle = 64;
  std::size_t max_ops_per_cycle = 1u << 20;

  /// Flight-recorder metrics: when set, the service registers its stats as
  /// a collect source under `metrics_prefix` for the registry's lifetime
  /// overlap with the service (RAII-deregistered on destruction). Null =
  /// metrics off (the default keeps single-purpose tests quiet).
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "service.";

  /// Health plane (optional): with a monitor set, the service registers
  /// the apply thread's heartbeat as "<health_prefix>apply" (idle while
  /// parked on the ingest cv, beaten per drain cycle), passes the monitor
  /// through to the WAL for its flusher-thread heartbeat. Null = health
  /// plane off.
  obs::HealthMonitor* health = nullptr;
  std::string health_prefix;  ///< usually "" or "p<p>."
  int health_partition = -1;  ///< partition id for rollups (-1 = none)
};

/// Handle for one submitted op: shard + 1-based per-shard sequence number.
struct Ticket {
  std::uint32_t shard = 0;
  std::uint64_t seq = 0;
};

/// Counters and latency histograms, snapshot via KCoreService::stats().
struct ServiceStats {
  std::uint64_t submitted_ops = 0;   ///< ops accepted by submit()
  std::uint64_t acked_ops = 0;       ///< ops acknowledged (logged + applied)
  std::uint64_t applied_edges = 0;   ///< edges the CPLDS actually applied
  std::uint64_t batches = 0;         ///< homogeneous batches applied
  std::uint64_t cycles = 0;          ///< drain cycles (= group commits)
  std::uint64_t replayed_batches = 0;  ///< WAL batches replayed at startup
  std::uint64_t commit_lsn = 0;      ///< last group-committed LSN
  std::uint64_t applied_lsn = 0;     ///< last LSN applied to the CPLDS
  std::uint64_t durable_lsn = 0;     ///< WAL durable watermark
  double apply_seconds = 0.0;        ///< total time inside CPLDS::apply
  std::size_t batch_budget = 0;      ///< current adaptive per-cycle budget
  std::uint64_t wal_flushes = 0;     ///< completed WAL flushes
  std::uint64_t wal_flush_bytes = 0;  ///< bytes those flushes made durable
  std::size_t wal_flush_depth = 0;   ///< gauge: commits in the flusher queue
  std::size_t wal_inflight_bytes = 0;  ///< gauge: bytes of those commits
  std::string wal_engine = "none";   ///< "flusher" with a WAL, else "none"
  std::vector<std::size_t> shard_depths;  ///< queue-depth gauge per shard
  LatencyHistogram ack_latency;      ///< submit() -> acknowledgment, ns
  LatencyHistogram apply_latency;    ///< per-batch CPLDS::apply, ns
  /// submit() -> applied-to-the-CPLDS, ns: the ack-vs-apply split. At
  /// kOsCache the two histograms coincide; at a sync durability level the
  /// gap between them is the durability pipeline.
  LatencyHistogram applied_latency;
  /// applied -> acked per cycle, ns: how long acks trailed the apply while
  /// the flush was in flight (~0 when acks are inline).
  LatencyHistogram durable_lag;
  /// Non-empty iff the apply thread died on an error (e.g. WAL I/O
  /// failure): the service is stopped, un-acked waiters were released with
  /// wait() == false, and new submissions throw.
  std::string apply_error;
};

class KCoreService {
 public:
  /// Called by the apply thread for every committed batch, after the group
  /// commit and before the batch is applied/acked. The listener receives
  /// the encoded frame — the exact bytes the WAL just committed (the apply
  /// thread encodes each batch once and fans the frame out to both) — and
  /// shares ownership; it must not block. See set_commit_listener.
  using CommitListener = std::function<void(const WalFramePtr&)>;

  /// Builds the structure (cold start, or warm restart from
  /// config.snapshot_path + committed config.wal_path suffix) and starts
  /// the background apply thread. Throws std::runtime_error on IO errors,
  /// std::invalid_argument on a missing vertex count.
  explicit KCoreService(ServiceConfig config);
  ~KCoreService();

  KCoreService(const KCoreService&) = delete;
  KCoreService& operator=(const KCoreService&) = delete;

  // ---------------- ingest ----------------

  /// Thread-safe; never blocks on queue depth (shards are unbounded).
  /// Throws std::out_of_range for invalid vertex ids and
  /// std::runtime_error once the service has stopped.
  Ticket submit(Update op);
  Ticket submit_insert(vertex_t u, vertex_t v) {
    return submit({{u, v}, UpdateKind::kInsert});
  }
  Ticket submit_delete(vertex_t u, vertex_t v) {
    return submit({{u, v}, UpdateKind::kDelete});
  }

  /// Blocks until the ticket's op is acknowledged; on success optionally
  /// reports the LSN the op was acknowledged at (the commit LSN of its
  /// drain cycle, or a later one — always a valid read-your-writes cursor
  /// for this op). Returns false iff the service stopped (crash) before
  /// the op was acknowledged — in which case the op's outcome is unknown:
  /// usually dropped, but replayed on restart if the crash landed between
  /// its group commit and its ack.
  bool wait(const Ticket& ticket, std::uint64_t* acked_lsn = nullptr);

  [[nodiscard]] bool is_applied(const Ticket& ticket) const;

  /// Blocks until every op submitted before the call is acknowledged.
  void drain();

  // ---------------- reads ----------------

  [[nodiscard]] double read_coreness(vertex_t v,
                                     ReadMode mode = ReadMode::kCplds) const {
    return read_with_mode(*ds_, v, mode);
  }
  [[nodiscard]] level_t read_level(vertex_t v,
                                   ReadMode mode = ReadMode::kCplds) const {
    return read_level_with_mode(*ds_, v, mode);
  }

  // ---------------- replication ----------------

  /// Registers the (single) committed-batch subscriber — the cluster
  /// layer's log shipper; pass nullptr to detach. Returns the last LSN
  /// already shipped as of registration: every batch with a higher LSN
  /// will be delivered, every batch at or below it will not. Depending on
  /// ServiceConfig::ship_at the listener runs on the apply thread (cycle
  /// lock held) or on the WAL flusher thread: it must
  /// be fast and must not call back into this service.
  std::uint64_t set_commit_listener(CommitListener listener);

  /// Last group-committed / last applied LSN. On the primary, every acked
  /// write's LSN is <= applied_lsn() from the moment the ack is observable,
  /// so primary reads always satisfy read-your-writes. At the sync
  /// durability levels commit_lsn() advances at the durable watermark (it
  /// may trail applied_lsn() while a flush is in flight); at kOsCache it
  /// advances when the cycle stages its bytes.
  [[nodiscard]] std::uint64_t commit_lsn() const {
    return commit_lsn_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }

  /// The WAL durable watermark: every record at or below it completed the
  /// configured durability level (= commit_lsn() without a WAL or at
  /// kOsCache).
  [[nodiscard]] std::uint64_t durable_lsn() const;

  /// Blocks until the WAL watermark covers `lsn` (clamped to what has been
  /// staged). Returns false when it cannot get there — flusher failure or
  /// shutdown; callers treat that as "proceed and let the read-side error
  /// paths report the shortfall". Used by the cluster layer's disk
  /// catch-up, which must not scan the log for bytes still in flight.
  bool wait_wal_durable(std::uint64_t lsn);

  // ---------------- lifecycle ----------------

  /// Compaction, streaming from a consistent cut: briefly blocks updates to
  /// copy the live edge set and the cut LSN (a memory-bound pause), streams
  /// the snapshot to disk while updates keep committing, then briefly
  /// blocks again to publish the snapshot and rewrite the WAL down to the
  /// records past the cut. The update pause is proportional to the edge
  /// count (copy) plus the records committed during the stream (suffix
  /// rewrite) — never to the disk write of the snapshot itself. Readers are
  /// unaffected throughout. Throws std::logic_error when no snapshot path
  /// is configured.
  void checkpoint();

  /// Graceful shutdown: drains every pending op (logging + applying +
  /// acking it), then stops the apply thread. Idempotent.
  void shutdown();

  /// Test hook simulating a crash: stops the apply thread without draining.
  /// Pending (never-logged) ops are dropped; their wait() returns false.
  void simulate_crash();

  /// Fault-injection hook for the stall watchdog (tests, CLI `stall`):
  /// the next drain cycle sleeps `ms` on the apply thread *without*
  /// marking its heartbeat idle — exactly what a wedged apply (livelock,
  /// pathological batch, blocked syscall) looks like to the
  /// HealthMonitor. One-shot: the hook disarms as the cycle consumes it.
  void debug_inject_apply_stall(std::uint64_t ms) {
    inject_stall_ms_.store(ms, std::memory_order_relaxed);
  }

  /// Maintenance/test hook: holds the apply thread between drain cycles
  /// (submits keep queueing, reads keep serving). When pause_applies()
  /// returns, no further ops will be drained until resume_applies();
  /// shutdown()/simulate_crash() override a pause. Tests use it to make
  /// queue growth and batching deterministic.
  void pause_applies();
  void resume_applies();

  // ---------------- inspection ----------------

  [[nodiscard]] vertex_t num_vertices() const { return ds_->num_vertices(); }
  [[nodiscard]] std::size_t num_edges() const { return ds_->num_edges(); }
  [[nodiscard]] std::size_t pending_ops() const {
    return pending_ops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

  /// Zeroes every counter and histogram (replayed_batches included), e.g.
  /// to measure a workload phase without a preload phase polluting the
  /// latency percentiles. Call at a quiescent point (after drain()). LSNs
  /// are cursors, not counters; they are unaffected.
  void reset_stats();

  /// Quiescent-only access (tests, validation).
  [[nodiscard]] const CPLDS& cplds() const { return *ds_; }

 private:
  struct PendingOp {
    Update op;
    std::uint64_t submit_ns = 0;
  };

  struct alignas(kCacheLine) Shard {
    std::mutex mu;
    std::condition_variable ack_cv;
    // Deque, not vector: drains erase a prefix each cycle, which must stay
    // O(taken) under backlog, not O(backlog).
    std::deque<PendingOp> pending;      // ops not yet drained (under mu)
    std::uint64_t submitted = 0;        // last issued seq (under mu)
    std::uint64_t drained = 0;          // last seq taken by the apply thread
    std::atomic<std::uint64_t> applied{0};  // last acked seq
    // LSN the acked prefix was committed at; written under mu before
    // `applied`'s release store, so a reader that observed its seq acked
    // reads an LSN at or after its op's cycle.
    std::atomic<std::uint64_t> acked_lsn{0};
  };

  /// One drained cycle's deferred-ack state, queued until the WAL durable
  /// watermark covers upto_lsn (sync durability levels); acked inline
  /// otherwise.
  struct PendingCycle {
    std::uint64_t upto_lsn = 0;   ///< durable once the watermark reaches it
    std::uint64_t cycle_lsn = 0;  ///< LSN the cycle's ops ack at
    std::uint64_t applied_ns = 0;  ///< when the apply finished (lag split)
    struct ShardCut {
      std::size_t shard = 0;
      std::uint64_t upto = 0;
    };
    std::vector<ShardCut> drains;         ///< per-shard ack frontiers
    std::vector<std::uint64_t> submit_ns;  ///< per-op stamps (ack latency)
    std::vector<WalFramePtr> frames;  ///< ship-at-durable: held until then
  };

  [[nodiscard]] std::size_t shard_of(const Edge& e) const;

  void apply_loop();
  /// One drain-coalesce-log-apply-ack cycle; returns ops processed.
  std::size_t run_cycle();
  void stop(bool drain_first);
  /// WAL flusher completion callback (runs on the flusher thread):
  /// advances commit_lsn_ at the sync levels and delivers every pending
  /// cycle the watermark now covers; an error fails the service like an
  /// apply-thread error.
  void on_durable(std::uint64_t lsn, const std::string* error);
  /// Ships (at ShipPoint::kDurable), records ack stats, and acks one
  /// cycle's shards. Caller holds pending_mu_ — every ack, inline or
  /// deferred, serializes through it, keeping per-shard acks monotone with
  /// two acker threads.
  void deliver_cycle(PendingCycle& cycle, std::uint64_t acked_at);
  void fail_from_durability(const std::string& what);

  ServiceConfig config_;
  /// Declared before ds_: the CPLDS destructor may still reference its
  /// reclaimer, and retired views are freed by the reclaimer's destructor.
  concurrent::Reclaimer reclaimer_;
  std::unique_ptr<CPLDS> ds_;
  WriteAheadLog wal_;
  std::unique_ptr<Shard[]> shards_;
  std::size_t num_shards_ = 0;

  // Ingest -> apply-thread signaling (Dekker-style sleep flag so submit()
  // skips the mutex unless the apply thread is actually parked).
  std::mutex ingest_mu_;
  std::condition_variable ingest_cv_;
  std::atomic<std::size_t> pending_ops_{0};
  std::atomic<bool> apply_sleeping_{false};
  bool stop_requested_ = false;   // under ingest_mu_
  bool crash_requested_ = false;  // under ingest_mu_
  std::atomic<bool> stopped_{false};  ///< accepting no more submissions
  std::atomic<bool> dead_{false};     ///< apply thread exited
  std::atomic<bool> paused_{false};   ///< pause_applies() in effect

  // Serializes drain cycles against checkpoint() and listener swaps.
  // Lock order (outer to inner): apply_mu_ > pending_mu_ > ship_mu_ >
  // stats_mu_ > Shard::mu. The durability completion thread starts at
  // pending_mu_ and NEVER takes apply_mu_ (shutdown waits out the flusher
  // while holding it).
  std::mutex apply_mu_;
  /// Written under apply_mu_ + ship_mu_ both; readable under either (the
  /// apply thread reads it under apply_mu_, the completion thread under
  /// ship_mu_).
  CommitListener commit_listener_;

  /// Cycles applied but not yet durable, in commit order (under
  /// pending_mu_). Non-empty only at the sync durability levels.
  std::mutex pending_mu_;
  std::deque<PendingCycle> pending_;

  /// Shipping cursor: last LSN past the configured ship point (advances
  /// whether or not a listener is attached, so set_commit_listener's
  /// returned cursor is exact). Under ship_mu_.
  std::mutex ship_mu_;
  std::uint64_t shipped_lsn_ = 0;

  // LSN cursors. next_lsn_ is apply-thread-only (plus the constructor);
  // the atomics mirror it for cross-thread reads.
  std::uint64_t next_lsn_ = 0;
  std::atomic<std::uint64_t> commit_lsn_{0};
  std::atomic<std::uint64_t> applied_lsn_{0};

  AdaptiveBatchSizer sizer_;
  std::size_t drain_start_ = 0;  ///< rotating drain fairness (apply thread)
  /// Most recent applied->acked lag (ns), fed to the sizer so the batch
  /// budget backs off when the durability pipeline is the bottleneck.
  std::atomic<std::uint64_t> last_ack_lag_ns_{0};

  /// Health plane (config_.health != nullptr): the apply thread's
  /// heartbeat. Tombstoned in stop(); the monitor keeps the pointer valid
  /// after that.
  obs::HealthComponent* apply_heartbeat_ = nullptr;
  /// debug_inject_apply_stall: ms the next cycle busy-sleeps (one-shot).
  std::atomic<std::uint64_t> inject_stall_ms_{0};

  mutable std::mutex stats_mu_;
  ServiceStats stats_;  // guarded by stats_mu_ (atomic counters kept aside)
  std::atomic<std::uint64_t> submitted_ops_{0};
  /// flush_stats() totals as of the last reset_stats(), so stats() reports
  /// per-phase flush counts like every other counter.
  std::atomic<std::uint64_t> flush_baseline_{0};
  std::atomic<std::uint64_t> flush_bytes_baseline_{0};

  std::thread apply_thread_;

  // Declared last: deregisters before any member the collect callback
  // reads is destroyed.
  obs::MetricsGroup metrics_;
};

}  // namespace cpkcore::service
