// Replica — a read-only follower holding an exact copy of the primary's
// level data structure.
//
// A Replica owns its own CPLDS (built with the same structural parameters
// as the primary) and a background apply thread that consumes the shipped
// commit stream in LSN order. Since the CPLDS is a deterministic function
// of the committed batch stream, a caught-up replica's coreness estimates
// are bit-identical to the primary's — replicas scale *reads*, with the
// same three ReadModes the primary serves, at the cost of replication lag
// (tracked as applied_lsn).
//
//   LogShipper ──callback──▶ queue ──apply thread──▶ CPLDS ◀── readers
//                                        │
//                                        └──▶ applied_lsn (router routing)
//
// Threading: the apply thread is the replica CPLDS's single update driver;
// any number of reader threads may query concurrently (the CPLDS contract).
// start()/stop() are not thread-safe against each other.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "cluster/log_ship.hpp"
#include "core/read_modes.hpp"
#include "service/kcore_service.hpp"

namespace cpkcore::cluster {

class Replica {
 public:
  struct Stats {
    std::uint64_t applied_lsn = 0;
    std::uint64_t applied_batches = 0;
    std::uint64_t applied_edges = 0;
    std::size_t queue_depth = 0;   ///< shipped but not yet applied
    double apply_seconds = 0.0;
  };

  /// Builds an empty replica mirroring the primary's structural parameters
  /// (num_vertices, delta, lambda, level cap, CPLDS options); the config's
  /// service-only fields (shards, WAL/snapshot paths, budgets) are ignored.
  /// Pass the same ServiceConfig the primary was built from so the streams
  /// replay identically.
  explicit Replica(const service::ServiceConfig& like);
  ~Replica() { stop(); }

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Health plane (optional): registers this replica's apply thread as a
  /// heartbeat component (idle while parked on an empty queue, beaten per
  /// shipped record). Call before start(); stop() tombstones the
  /// component. The handle from health_component() stays valid for the
  /// monitor's lifetime — the Router caches it to skip stalled replicas.
  void register_health(obs::HealthMonitor& monitor, std::string name,
                       int partition = -1);
  [[nodiscard]] const obs::HealthComponent* health_component() const {
    return heartbeat_;
  }

  /// Starts the apply thread and subscribes to the shipper from this
  /// replica's applied LSN (0 for a fresh replica — a late joiner catches
  /// up through the shipper's ring/WAL path). Throws what subscribe()
  /// throws; the shipper must outlive this replica's stop().
  void start(LogShipper& shipper);

  /// Unsubscribes and joins the apply thread after it finishes the queue
  /// already shipped. Idempotent; called by the destructor.
  void stop();

  // ---------------- reads ----------------

  [[nodiscard]] double read_coreness(vertex_t v,
                                     ReadMode mode = ReadMode::kCplds) const {
    return read_with_mode(*ds_, v, mode);
  }
  [[nodiscard]] level_t read_level(vertex_t v,
                                   ReadMode mode = ReadMode::kCplds) const {
    return read_level_with_mode(*ds_, v, mode);
  }

  // ---------------- replication cursor ----------------

  /// Last LSN fully applied to this replica's CPLDS.
  [[nodiscard]] std::uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }

  /// Blocks until applied_lsn() >= lsn. Returns false if the replica
  /// stopped first.
  bool wait_for_lsn(std::uint64_t lsn) const;

  // ---------------- inspection ----------------

  [[nodiscard]] vertex_t num_vertices() const { return ds_->num_vertices(); }
  [[nodiscard]] std::size_t num_edges() const { return ds_->num_edges(); }
  [[nodiscard]] Stats stats() const;

  /// Quiescent-only access (tests, validation).
  [[nodiscard]] const CPLDS& cplds() const { return *ds_; }

 private:
  void enqueue(const ShippedRecord& record);
  void apply_loop();

  /// Declared before ds_ (destroyed after it): per-replica reclaimer
  /// behind the wait-free read path.
  concurrent::Reclaimer reclaimer_;
  std::unique_ptr<CPLDS> ds_;
  LogShipper* shipper_ = nullptr;
  std::uint64_t subscription_ = 0;
  bool started_ = false;

  /// Health plane (register_health): the apply thread's heartbeat,
  /// tombstoned by stop(). The monitor outlives the handle's use.
  obs::HealthMonitor* health_ = nullptr;
  obs::HealthComponent* heartbeat_ = nullptr;

  mutable std::mutex mu_;
  mutable std::condition_variable queue_cv_;    // apply thread wakeups
  mutable std::condition_variable applied_cv_;  // wait_for_lsn wakeups
  std::deque<ShippedRecord> queue_;  // under mu_
  bool stop_requested_ = false;      // under mu_
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> applied_lsn_{0};

  std::uint64_t applied_batches_ = 0;  // under mu_
  std::uint64_t applied_edges_ = 0;    // under mu_
  double apply_seconds_ = 0.0;         // under mu_

  std::thread apply_thread_;
};

}  // namespace cpkcore::cluster
