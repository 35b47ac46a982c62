#include "cluster/shard_group.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "obs/health.hpp"

namespace cpkcore::cluster {

namespace {

/// Runs fn(p) for every p in [0, count) on one thread per partition and
/// joins; the first exception (by partition index) is rethrown after every
/// partition has finished, so a failure never leaves a sibling mid-flight.
/// count <= 1 runs inline.
void for_each_partition(std::size_t count,
                        const std::function<void(std::size_t)>& fn) {
  if (count <= 1) {
    if (count == 1) fn(0);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    threads.emplace_back([&, p] {
      try {
        fn(p);
      } catch (...) {
        errors[p] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

ShardGroup::ShardGroup(ClusterConfig config)
    : config_(std::move(config)), partitioner_(config_.partitions) {
  const std::size_t p_count = config_.partitions;
  primaries_.reserve(p_count);
  for (std::size_t p = 0; p < p_count; ++p) {
    service::ServiceConfig cfg = config_.base;
    cfg.wal_path = partition_path(config_.base.wal_path, p, p_count);
    cfg.snapshot_path =
        partition_path(config_.base.snapshot_path, p, p_count);
    // Disambiguate the P primaries in one registry: partition p's sources
    // land under "p<p>.<base prefix>".
    if (cfg.metrics != nullptr) {
      // Built by append (not `"p" + ...`): GCC 12's -Wrestrict misfires on
      // the const char* + rvalue-string overload under -Werror.
      std::string prefix = "p";
      prefix += std::to_string(p);
      prefix += '.';
      prefix += config_.base.metrics_prefix;
      cfg.metrics_prefix = std::move(prefix);
    }
    if (cfg.health != nullptr) {
      // Same "p<p>." scheme for the health plane: partition p's apply
      // thread registers as "p<p>.apply", its WAL flusher thread as
      // "p<p>.wal_flusher", all tagged partition p.
      std::string hp = "p";
      hp += std::to_string(p);
      hp += '.';
      cfg.health_prefix = std::move(hp);
      cfg.health_partition = static_cast<int>(p);
    }
    primaries_.push_back(
        std::make_unique<service::KCoreService>(std::move(cfg)));
  }
  shippers_.reserve(p_count);
  for (std::size_t p = 0; p < p_count; ++p) {
    std::string ship_comp = "p";
    ship_comp += std::to_string(p);
    ship_comp += ".ship";
    shippers_.push_back(
        std::make_unique<LogShipper>(*primaries_[p], std::move(ship_comp)));
  }
  replicas_.resize(p_count);
  for (std::size_t p = 0; p < p_count; ++p) {
    replicas_[p].reserve(config_.replicas);
    for (std::size_t r = 0; r < config_.replicas; ++r) {
      // Mirror the primary's structural parameters. num_vertices comes
      // from the live primary, not the template config: a warm restart
      // from a snapshot may override the configured count.
      service::ServiceConfig like = config_.base;
      like.num_vertices = primaries_[p]->num_vertices();
      replicas_[p].push_back(std::make_unique<Replica>(like));
      // Heartbeat before start(): the apply thread stamps the handle from
      // its first iteration.
      if (config_.base.health != nullptr) {
        std::string rn = "p";
        rn += std::to_string(p);
        rn += ".replica";
        rn += std::to_string(r);
        replicas_[p].back()->register_health(
            *config_.base.health, std::move(rn), static_cast<int>(p));
      }
      // Fresh replicas subscribe from LSN 0; a primary warm-restarted with
      // history behind it serves the catch-up from its WAL (or throws
      // "bootstrap from snapshot" if compacted — surfaced to the caller).
      replicas_[p].back()->start(*shippers_[p]);
    }
  }
  // Replica-lag probes: sampled on the watchdog thread, report-only
  // (never unhealthy). Tombstoned first in shutdown()
  // — the callbacks walk primaries_/replicas_.
  if (config_.base.health != nullptr && config_.replicas > 0) {
    lag_probes_.reserve(p_count);
    for (std::size_t p = 0; p < p_count; ++p) {
      std::string pn = "p";
      pn += std::to_string(p);
      pn += ".replica_lag";
      lag_probes_.push_back(config_.base.health->register_probe(
          std::move(pn), static_cast<int>(p),
          [this, p]() -> double {
            return static_cast<double>(replica_lag(p));
          }));
    }
  }
  // Cluster-level sources: per-partition shipper + replica stats and the
  // replica-lag gauges (primaries registered themselves above). All of
  // them read components this group owns, so the group (via metrics_,
  // declared last) deregisters them before any component dies.
  if (config_.base.metrics != nullptr) {
    metrics_ = obs::MetricsGroup(config_.base.metrics, "");
    for (std::size_t p = 0; p < p_count; ++p) {
      std::string pp = "p";
      pp += std::to_string(p);
      pp += '.';
      metrics_.collect([this, p, pp](obs::MetricsSink& sink) {
        const LogShipper::Stats st = shippers_[p]->stats();
        sink.counter(pp + "ship.shipped_records",
                     static_cast<double>(st.shipped_records));
        sink.counter(pp + "ship.catchup_records",
                     static_cast<double>(st.catchup_records));
        sink.counter(pp + "ship.disk_records",
                     static_cast<double>(st.disk_records));
        sink.gauge(pp + "ship.subscribers",
                   static_cast<double>(st.subscribers));
        for (std::size_t r = 0; r < replicas_[p].size(); ++r) {
          const std::string rp = pp + "replica" + std::to_string(r) + ".";
          const Replica::Stats rs = replicas_[p][r]->stats();
          sink.counter(rp + "applied_batches",
                       static_cast<double>(rs.applied_batches));
          sink.counter(rp + "applied_edges",
                       static_cast<double>(rs.applied_edges));
          sink.gauge(rp + "applied_lsn",
                     static_cast<double>(rs.applied_lsn));
          sink.gauge(rp + "queue_depth",
                     static_cast<double>(rs.queue_depth));
        }
        sink.gauge(pp + "replica_lag",
                   static_cast<double>(replica_lag(p)));
      });
    }
    metrics_.collect([this](obs::MetricsSink& sink) {
      sink.gauge("cluster.partitions",
                 static_cast<double>(primaries_.size()));
      sink.gauge("cluster.replicas_per_partition",
                 static_cast<double>(config_.replicas));
      sink.gauge("cluster.max_replica_lag",
                 static_cast<double>(max_replica_lag()));
    });
  }
}

ShardGroup::~ShardGroup() { shutdown(); }

std::vector<Replica*> ShardGroup::replica_set(std::size_t p) const {
  std::vector<Replica*> out;
  out.reserve(replicas_[p].size());
  for (const auto& r : replicas_[p]) out.push_back(r.get());
  return out;
}

ShardGroup::Submitted ShardGroup::submit(Update op) {
  const std::size_t p = partitioner_.partition_of(op);
  return Submitted{p, primaries_[p]->submit(op)};
}

void ShardGroup::drain() {
  for (auto& primary : primaries_) primary->drain();
}

std::vector<std::uint64_t> ShardGroup::commit_cut() const {
  std::vector<std::uint64_t> cut;
  cut.reserve(primaries_.size());
  for (const auto& primary : primaries_) cut.push_back(primary->commit_lsn());
  return cut;
}

bool ShardGroup::wait_replicas_at(
    const std::vector<std::uint64_t>& cut) const {
  bool ok = true;
  for (std::size_t p = 0; p < replicas_.size(); ++p) {
    for (const auto& r : replicas_[p]) {
      ok = r->wait_for_lsn(cut[p]) && ok;
    }
  }
  return ok;
}

std::vector<std::uint64_t> ShardGroup::quiesce() {
  drain();
  std::vector<std::uint64_t> cut = commit_cut();
  if (!wait_replicas_at(cut)) {
    throw std::runtime_error(
        "ShardGroup::quiesce: a replica stopped before reaching the "
        "committed cut");
  }
  return cut;
}

ShardGroup::GlobalStats ShardGroup::global_stats() const {
  GlobalStats out;
  // The cut is sampled before the gather: every per-partition figure below
  // covers at least the state at its cut entry (counters only grow).
  out.cut = commit_cut();
  out.partitions.reserve(primaries_.size());
  out.shippers.reserve(shippers_.size());
  for (std::size_t p = 0; p < primaries_.size(); ++p) {
    out.num_edges += primaries_[p]->num_edges();
    service::ServiceStats stats = primaries_[p]->stats();
    out.submitted_ops += stats.submitted_ops;
    out.acked_ops += stats.acked_ops;
    out.applied_edges += stats.applied_edges;
    out.batches += stats.batches;
    out.cycles += stats.cycles;
    out.wal_flushes += stats.wal_flushes;
    out.wal_flush_bytes += stats.wal_flush_bytes;
    out.partitions.push_back(std::move(stats));
    out.shippers.push_back(shippers_[p]->stats());
  }
  return out;
}

std::uint64_t ShardGroup::replica_lag(std::size_t p) const {
  if (replicas_[p].empty()) return 0;
  // Sample the primary first: its applied LSN only grows, so a replica
  // racing past the sampled value reads as lag 0, never as negative.
  const std::uint64_t primary_lsn = primaries_[p]->applied_lsn();
  std::uint64_t slowest = primary_lsn;
  for (const auto& r : replicas_[p]) {
    slowest = std::min(slowest, r->applied_lsn());
  }
  return primary_lsn - slowest;
}

std::uint64_t ShardGroup::max_replica_lag() const {
  std::uint64_t worst = 0;
  for (std::size_t p = 0; p < replicas_.size(); ++p) {
    worst = std::max(worst, replica_lag(p));
  }
  return worst;
}

std::size_t ShardGroup::num_edges() const {
  std::size_t total = 0;
  for (const auto& primary : primaries_) total += primary->num_edges();
  return total;
}

std::vector<std::uint64_t> ShardGroup::checkpoint() {
  if (config_.base.snapshot_path.empty()) {
    throw std::logic_error(
        "ShardGroup::checkpoint requires ClusterConfig::base.snapshot_path");
  }
  std::vector<std::uint64_t> cut(primaries_.size(), 0);
  // One thread per partition: a checkpoint is snapshot write + WAL fsync,
  // so overlapping them costs slowest-partition instead of the sum.
  for_each_partition(primaries_.size(), [&](std::size_t p) {
    primaries_[p]->checkpoint();
    // The partition's snapshot covers exactly its post-checkpoint commit
    // LSN (checkpoint() is update-quiescent per partition).
    cut[p] = primaries_[p]->commit_lsn();
  });
  return cut;
}

void ShardGroup::shutdown() {
  // Tombstone the lag probes first: their callbacks walk every primary
  // and replica, and unregister() excludes a concurrent watchdog check, so
  // after this loop no probe callback can touch a stopping component.
  if (config_.base.health != nullptr) {
    for (obs::HealthComponent* probe : lag_probes_) {
      config_.base.health->unregister(probe);
    }
    lag_probes_.clear();
  }
  // Stage by dependency (replicas, shippers, primaries), each stage
  // overlapped across partitions — a primary's shutdown drains its WAL
  // flusher, and those waits should run concurrently, not in sequence.
  for_each_partition(replicas_.size(), [&](std::size_t p) {
    for (auto& r : replicas_[p]) r->stop();
  });
  for (auto& s : shippers_) s->detach();
  for_each_partition(primaries_.size(),
                     [&](std::size_t p) { primaries_[p]->shutdown(); });
}

}  // namespace cpkcore::cluster
