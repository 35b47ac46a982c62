// HealthMonitor — the stall watchdog of the health plane.
//
// Every long-lived pipeline thread (apply, WAL flusher/reaper, replica
// appliers) registers a heartbeat *component* and stamps it from its loop:
// beat() on progress, idle() before parking on a condition variable,
// busy() when it wakes with work. A watchdog thread classifies each
// component from its heartbeat age — a parked thread is healthy no matter
// how old its last beat; a *busy* thread whose beat has aged past the
// thresholds is degraded, then stalled. Value *probes* (the cluster's
// replica lag) are report-only: the watchdog samples them into the rollup,
// and they always read healthy.
//
//   apply thread ──beat()/idle()/busy()──▶ Component (atomics, no locks)
//   shard group ──register_probe(lag_fn)──▶ Component (sampled value)
//                                              │ watchdog thread
//                                              ▼ (check every interval/2)
//        rollup(): overall + per-partition + per-component states
//              │                   │
//   /healthz (503 iff stalled)   Router::pick_backend (skips stalled
//   state-transition events        replicas)
//     into the EventLog
//
// Components are arena-allocated and *tombstoned* on unregister — the
// pointer stays valid for the monitor's lifetime (Router caches replica
// handles; a torn-down replica just reads as inactive), but a tombstoned
// probe's callback never runs again (unregister excludes a concurrent
// check under the monitor lock, mirroring MetricsRegistry::remove_source).
//
// Detection bound: a stall is flagged once a busy component's beat age
// exceeds stalled_after_intervals (default 2) heartbeat intervals, and the
// watchdog checks at least every interval — so detection lands within 3
// intervals of the last beat, the bound tests/health_test.cpp pins.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cpkcore::obs {

class EventLog;

enum class HealthState { kHealthy, kDegraded, kStalled };

[[nodiscard]] const char* health_state_name(HealthState s);

struct HealthMonitorOptions {
  /// Expected heartbeat cadence. Threads usually beat much faster (once
  /// per cycle/batch); the interval is the unit the age thresholds and
  /// the detection bound are expressed in.
  std::uint64_t heartbeat_interval_ms = 200;

  /// Busy heartbeat age (in intervals) past which a thread component is
  /// degraded / stalled. stalled >= degraded; the watchdog checks every
  /// interval/2, so detection <= stalled_after + 1/2 intervals.
  double degraded_after_intervals = 1.0;
  double stalled_after_intervals = 2.0;

  /// Journal for state-transition events (nullptr = the process-wide
  /// EventLog::instance()).
  EventLog* events = nullptr;

  /// Tests drive check_now() manually with the thread off.
  bool start_thread = true;
};

class HealthMonitor;

/// One monitored component. Thread components stamp the heartbeat
/// atomics from their loops (lock-free, relaxed); probe components hold
/// a sample callback instead. State is cached by the watchdog so
/// readers (Router, /healthz) pay one relaxed load. Namespace-scope so
/// layers can forward-declare it and plumb handles without including
/// this header.
class HealthComponent {
 public:
  /// Stamp progress (marks busy).
  void beat() {
    last_beat_ns_.store(now_ns(), std::memory_order_relaxed);
    idle_.store(false, std::memory_order_relaxed);
  }

  /// About to park (cv wait, empty queue): age stops counting.
  void idle() {
    last_beat_ns_.store(now_ns(), std::memory_order_relaxed);
    idle_.store(true, std::memory_order_relaxed);
  }

  /// Woke with work: equivalent to beat(), kept for call-site clarity.
  void busy() { beat(); }

  [[nodiscard]] HealthState state() const {
    return static_cast<HealthState>(state_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int partition() const { return partition_; }
  [[nodiscard]] bool active() const {
    return active_.load(std::memory_order_acquire);
  }

 private:
  friend class HealthMonitor;
  static std::uint64_t now_ns();

  std::string name_;
  int partition_ = -1;  ///< -1 = cluster-wide / unpartitioned
  bool is_probe_ = false;
  std::function<double()> probe_;  ///< under monitor mu_ (probe only)
  std::atomic<std::uint64_t> last_beat_ns_{0};
  std::atomic<bool> idle_{true};
  std::atomic<int> state_{0};  ///< cached HealthState
  std::atomic<bool> active_{true};
};

class HealthMonitor {
 public:
  using Options = HealthMonitorOptions;
  using Component = HealthComponent;

  explicit HealthMonitor(Options options = {});
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Registers a heartbeat component for a long-lived thread. The handle
  /// stays valid for the monitor's lifetime; unregister() tombstones it.
  Component* register_thread(std::string name, int partition = -1);

  /// Registers a report-only value probe: `value` is sampled on the
  /// watchdog thread each check and shown in the rollup
  /// (ComponentStatus::value); the probe always reads healthy.
  /// ShardGroup's "p<p>.replica_lag" probes show the replica lag this way.
  Component* register_probe(std::string name, int partition,
                            std::function<double()> value);

  /// Tombstones: excluded from rollups, probe callback never runs again
  /// after return, pointer stays valid (reads as inactive/healthy).
  void unregister(Component* component);

  struct ComponentStatus {
    std::string name;
    int partition = -1;
    HealthState state = HealthState::kHealthy;
    bool idle = false;
    bool is_probe = false;
    double beat_age_ms = 0.0;  ///< thread components
    double value = 0.0;        ///< probe components (last sample)
  };

  struct Rollup {
    HealthState overall = HealthState::kHealthy;
    /// Worst state per partition id (index = partition; partitions with
    /// no components read healthy). Unpartitioned components only feed
    /// `overall`.
    std::vector<HealthState> partitions;
    std::vector<ComponentStatus> components;

    [[nodiscard]] bool any_stalled() const {
      return overall == HealthState::kStalled;
    }
    /// {"status":"ok|degraded|stalled","partitions":[...],
    ///  "components":[{...}]}
    [[nodiscard]] std::string to_json() const;
  };

  /// Re-evaluates every component now and returns the rollup (what the
  /// watchdog does on its own each check interval). Emits transition
  /// events. Safe from any thread.
  Rollup check_now();

  /// The most recent evaluation without re-probing.
  [[nodiscard]] Rollup rollup() const;

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  void run();
  Rollup evaluate_locked();

  Options options_;

  mutable std::mutex mu_;
  // unique_ptr arena: Component addresses are stable and outlive
  // unregister (tombstone) so cached handles never dangle.
  std::vector<std::unique_ptr<Component>> components_;  // under mu_
  Rollup last_rollup_;                                  // under mu_

  std::condition_variable cv_;
  bool stop_requested_ = false;  // under mu_
  std::thread thread_;
};

}  // namespace cpkcore::obs
