#include "cluster/router.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/health.hpp"
#include "util/timer.hpp"

namespace cpkcore::cluster {

namespace {

// Per reader thread, shared by every router the thread reads through.
// The rotation advances once per fan-out read, so partition p's first
// replica tried cycles through all of its replicas over consecutive reads
// of one thread. The countdown reaches 0 on a thread's first read and on
// every kReadLatencySampleEvery-th read after it: those reads are timed.
thread_local std::uint64_t t_rotation = 0;
thread_local std::uint32_t t_reads_until_timed = 0;

std::vector<Router::PartitionBackends> backends_of(ShardGroup& group) {
  std::vector<Router::PartitionBackends> parts;
  parts.reserve(group.num_partitions());
  for (std::size_t p = 0; p < group.num_partitions(); ++p) {
    Router::PartitionBackends part{&group.primary(p), group.replica_set(p),
                                   {}};
    // Snapshot the health handles at construction: they are stable for
    // the monitor's lifetime (tombstoned, never freed), so the router
    // reads them lock-free even across replica teardown.
    part.replica_health.reserve(part.replicas.size());
    for (const Replica* r : part.replicas) {
      part.replica_health.push_back(r->health_component());
    }
    parts.push_back(std::move(part));
  }
  return parts;
}

}  // namespace

Router::Router(ShardGroup& group)
    : Router(group.partitioner(), backends_of(group)) {}

Router::Router(Partitioner partitioner,
               std::vector<PartitionBackends> partitions)
    : partitioner_(partitioner), parts_(std::move(partitions)) {
  if (parts_.empty() || partitioner_.num_partitions() != parts_.size()) {
    throw std::invalid_argument(
        "Router: partitioner width must match the backend list");
  }
  for (const PartitionBackends& part : parts_) {
    if (part.primary == nullptr) {
      throw std::invalid_argument("Router: every partition needs a primary");
    }
  }
  state_ = std::make_unique<PartState[]>(parts_.size());
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    const std::size_t n = parts_[p].replicas.size();
    if (n == 0) continue;
    state_[p].replica_reads = std::make_unique<obs::Counter[]>(n);
  }
}

std::uint64_t Router::write(Session& session, Update op) {
  const std::size_t p = partitioner_.partition_of(op);
  const service::Ticket ticket = parts_[p].primary->submit(op);
  std::uint64_t lsn = 0;
  if (!parts_[p].primary->wait(ticket, &lsn)) {
    throw std::runtime_error(
        "Router: partition primary stopped before acknowledging the write");
  }
  session.advance(p, lsn);
  state_[p].writes.add();
  return lsn;
}

int Router::pick_backend(std::size_t partition, std::uint64_t min_lsn,
                         std::uint64_t rotation,
                         std::uint64_t* served_lsn) const {
  const PartitionBackends& part = parts_[partition];
  const std::size_t n = part.replicas.size();
  if (n > 0) {
    const std::size_t start = n == 1 ? 0 : (rotation + partition) % n;
    bool skipped_stalled = false;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = start + i < n ? start + i : start + i - n;
      // Sampled before the read: applied LSNs only grow, so the state the
      // read observes is at least this fresh.
      const std::uint64_t lsn = part.replicas[r]->applied_lsn();
      if (lsn < min_lsn) continue;
      // Health gate: a replica the watchdog classifies stalled (apply
      // thread wedged — its applied LSN may be fresh but will not stay
      // that way) stops taking reads; degraded still serves. One relaxed
      // load of the cached state — no lock on the read path.
      const obs::HealthComponent* hc =
          r < part.replica_health.size() ? part.replica_health[r] : nullptr;
      if (hc != nullptr && hc->state() == obs::HealthState::kStalled) {
        skipped_stalled = true;
        continue;
      }
      if (skipped_stalled) {
        rerouted_unhealthy_.fetch_add(1, std::memory_order_relaxed);
      }
      *served_lsn = lsn;
      return static_cast<int>(r);
    }
    if (skipped_stalled) {
      rerouted_unhealthy_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Primary fallback. Every acked write on this partition was applied
  // before its ack became observable, so the primary's applied LSN
  // satisfies any session cursor derived from acks against it.
  *served_lsn = part.primary->applied_lsn();
  return kPrimary;
}

template <typename V, typename MinLsn, typename Combine, typename ReplicaRead,
          typename PrimaryRead>
Router::Result<V> Router::fan_out(MinLsn min_lsn_for, Combine combine,
                                  ReplicaRead on_replica,
                                  PrimaryRead on_primary) const {
  const bool timed = t_reads_until_timed == 0;
  t_reads_until_timed =
      timed ? kReadLatencySampleEvery - 1 : t_reads_until_timed - 1;
  const std::uint64_t start_ns = timed ? now_ns() : 0;
  const std::uint64_t rotation = t_rotation++;
  Result<V> result;
  result.parts.resize(parts_.size());
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    PartRead<V>& part = result.parts[p];
    // Session cursors are always serveable (the primary applied every
    // acked write before its ack became observable), so the first pick
    // stands.
    part.backend =
        pick_backend(p, min_lsn_for(p), rotation, &part.served_lsn);
    if (part.backend == kPrimary) {
      state_[p].primary_reads.add();
      part.value = on_primary(*parts_[p].primary);
    } else {
      const auto r = static_cast<std::size_t>(part.backend);
      state_[p].replica_reads[r].add();
      part.value = on_replica(*parts_[p].replicas[r]);
    }
    result.value = p == 0 ? part.value : combine(result.value, part.value);
  }
  if (timed) read_latency_.record(now_ns() - start_ns);
  return result;
}

Router::ReadResult Router::read_coreness(const Session& session, vertex_t v,
                                         ReadMode mode) const {
  return fan_out<double>(
      [&](std::size_t p) { return session.last_lsn(p); },
      [](double a, double b) { return a + b; },
      [&](const Replica& r) { return r.read_coreness(v, mode); },
      [&](const service::KCoreService& s) {
        return s.read_coreness(v, mode);
      });
}

Router::LevelResult Router::read_level(const Session& session, vertex_t v,
                                       ReadMode mode) const {
  return fan_out<level_t>(
      [&](std::size_t p) { return session.last_lsn(p); },
      [](level_t a, level_t b) { return std::max(a, b); },
      [&](const Replica& r) { return r.read_level(v, mode); },
      [&](const service::KCoreService& s) { return s.read_level(v, mode); });
}

Router::ReadResult Router::read_coreness(vertex_t v, ReadMode mode) const {
  return fan_out<double>(
      [](std::size_t) { return std::uint64_t{0}; },
      [](double a, double b) { return a + b; },
      [&](const Replica& r) { return r.read_coreness(v, mode); },
      [&](const service::KCoreService& s) {
        return s.read_coreness(v, mode);
      });
}

Router::LevelResult Router::read_level(vertex_t v, ReadMode mode) const {
  return fan_out<level_t>(
      [](std::size_t) { return std::uint64_t{0}; },
      [](level_t a, level_t b) { return std::max(a, b); },
      [&](const Replica& r) { return r.read_level(v, mode); },
      [&](const service::KCoreService& s) { return s.read_level(v, mode); });
}

void Router::register_metrics(obs::MetricsRegistry* registry,
                              std::string prefix) {
  if (registry == nullptr) return;
  metrics_ = obs::MetricsGroup(registry, std::move(prefix));
  metrics_.collect([this](obs::MetricsSink& sink) {
    const Stats st = stats();
    sink.counter("writes", static_cast<double>(st.writes));
    sink.counter("reads", static_cast<double>(st.reads));
    sink.counter("primary_reads", static_cast<double>(st.primary_reads));
    sink.counter("replica_reads", static_cast<double>(st.replica_reads));
    sink.counter("reads_rerouted_unhealthy",
                 static_cast<double>(st.reads_rerouted_unhealthy));
    sink.histogram("read_latency_ns", read_latency_);
  });
}

Router::Stats Router::stats() const {
  Stats out;
  out.reads_rerouted_unhealthy =
      rerouted_unhealthy_.load(std::memory_order_relaxed);
  out.partitions.resize(parts_.size());
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    PartitionStats& ps = out.partitions[p];
    ps.writes = state_[p].writes.value();
    ps.primary_reads = state_[p].primary_reads.value();
    ps.replica_reads.resize(parts_[p].replicas.size());
    for (std::size_t r = 0; r < ps.replica_reads.size(); ++r) {
      ps.replica_reads[r] = state_[p].replica_reads[r].value();
      out.replica_reads += ps.replica_reads[r];
    }
    out.writes += ps.writes;
    out.primary_reads += ps.primary_reads;
  }
  // Every fan-out read serves each partition exactly once.
  const PartitionStats& first = out.partitions[0];
  out.reads = std::accumulate(first.replica_reads.begin(),
                              first.replica_reads.end(), first.primary_reads);
  return out;
}

}  // namespace cpkcore::cluster
