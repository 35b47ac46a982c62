// Serving-layer throughput: sweeps client (submitter) thread counts and
// reports acked submit throughput and submit->ack latency percentiles, with
// CPKC_READERS reader threads running linearizable reads alongside. One
// JSON line per cell via emit_json_line, so the perf trajectory of the
// ingest -> coalesce -> WAL -> apply path is diffable across PRs.
//
// With --replicas N (or CPKC_SERVICE_REPLICAS=N) the bench instead sweeps
// the read-scaling *cluster* layer: 0..N read replicas behind the
// session-aware router (single write partition), reporting routed read
// throughput vs replica count, one JSON line per replica count.
//
// With --write-shards P (or CPKC_WRITE_SHARDS=P) it sweeps the *sharded
// write plane*: 1..P partition primaries behind a ShardGroup at a fixed
// client count, reporting aggregate submit throughput and merged ack p99
// vs P — the write-scaling curve. Combine with --replicas R to give every
// partition R replicas (R is then fixed, not swept).
//
// With --readers N,N,... (or CPKC_READER_SWEEP) it runs the *reader-scaling*
// sweep behind BENCH_read_path.json: at each reader count, a timed read
// window (CPKC_READ_SECONDS, default 2) under continuous ingest, A/B-ing
// the locked SyncReads baseline and the Algorithm 4 DAG read against the
// wait-free CPLDS view read. Reports read_ops_per_s / read_p50_ns /
// read_p99_ns plus acked_ops_per_s and reclaimer counters.
//
// Environment (on top of bench_common's knobs):
//   CPKC_SERVICE_OPS       ops per client thread        (default 50000)
//   CPKC_SERVICE_WAL       1 = log to a WAL in /tmp     (default 1)
//   CPKC_SERVICE_REPLICAS  max replica count to sweep   (default 0 = off)
//   CPKC_WRITE_SHARDS      max partition count to sweep (default 0 = off)
//   CPKC_CLUSTER_WRITERS   writer threads in the replica sweep (default 2)
//   CPKC_WAL_DURABILITY    "os_cache" | "fdatasync" | "fsync": per-commit
//                          durability level (default: ServiceConfig's).
//   CPKC_WAL_ENGINE        consumed by the service layer itself (see
//                          wal_async.hpp): "sync" pins the PR-6 synchronous
//                          commit path, "flusher"/"io_uring" pin an async
//                          engine, unset/"auto" probes. Every JSON line
//                          reports which engine actually ran (wal_engine)
//                          plus the flush-pipeline counters, so the
//                          sync-vs-async comparison is self-describing.
//
// Flight recorder (see src/obs/):
//   --sample PATH / CPKC_SAMPLE_JSON   stream MetricsRegistry snapshots to
//                          PATH as JSON lines while the sweep runs (the
//                          StatsSampler time series; final sample on exit).
//   CPKC_SAMPLE_MS         sampling interval (default 200)
//   CPKC_TRACE=1           record pipeline trace events (runtime gate)
//   CPKC_TRACE_FILE        write the Chrome trace-event JSON here on exit
//                          (load in Perfetto; implies nothing unless
//                          CPKC_TRACE is also set)
//   --http-port N / CPKC_HTTP_PORT   serve /metrics /vars /events (and a
//                          monitor-less /healthz) on 127.0.0.1:N for the
//                          duration of the sweep (0 = ephemeral; the bound
//                          port is printed to stderr) — curl the live
//                          registry mid-cell instead of waiting for the
//                          JSON lines
// Every JSON line additionally reports the scheduler's work-stealing
// activity over the cell (sched_spawns / sched_steals deltas).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/partition.hpp"
#include "cluster/router.hpp"
#include "cluster/shard_group.hpp"
#include "graph/generators.hpp"
#include "harness/service_workload.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "parallel/scheduler.hpp"
#include "service/kcore_service.hpp"

namespace {

using namespace cpkcore;

std::size_t ops_per_client() {
  return bench::env_size("CPKC_SERVICE_OPS", 50000);
}

// Not env_size: that helper ignores non-positive values, and 0 is exactly
// how this knob is turned off.
bool wal_enabled() {
  if (const char* v = std::getenv("CPKC_SERVICE_WAL")) {
    return std::strtol(v, nullptr, 10) != 0;
  }
  return true;
}

service::WalDurability wal_durability() {
  if (const char* v = std::getenv("CPKC_WAL_DURABILITY")) {
    if (std::strcmp(v, "fsync") == 0) return service::WalDurability::kFsync;
    if (std::strcmp(v, "fdatasync") == 0) {
      return service::WalDurability::kFdatasync;
    }
    if (std::strcmp(v, "os_cache") == 0) {
      return service::WalDurability::kOsCache;
    }
  }
  return service::ServiceConfig{}.wal_durability;
}

std::string durability_label(service::WalDurability level) {
  switch (level) {
    case service::WalDurability::kOsCache:
      return "os_cache";
    case service::WalDurability::kFdatasync:
      return "fdatasync";
    case service::WalDurability::kFsync:
      return "fsync";
  }
  return "unknown";
}

void remove_partition_wals(const std::string& stem, std::size_t partitions) {
  for (std::size_t p = 0; p < partitions; ++p) {
    std::filesystem::remove(cluster::partition_path(stem, p, partitions));
  }
}

/// Parses a comma-separated list of positive counts ("1,2,4,8,16").
std::vector<std::size_t> parse_count_list(const char* s) {
  std::vector<std::size_t> out;
  while (*s != '\0') {
    char* end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 10);
    if (end == s) break;
    if (v > 0) out.push_back(static_cast<std::size_t>(v));
    s = (*end == ',') ? end + 1 : end;
  }
  return out;
}

/// Scheduler work-stealing activity over one cell: samples the process-wide
/// scheduler's counters at construction and reports the growth since.
struct SchedDelta {
  Scheduler::SchedulerCounters start = Scheduler::instance().counters();

  [[nodiscard]] std::int64_t spawns() const {
    return static_cast<std::int64_t>(Scheduler::instance().counters().spawns -
                                     start.spawns);
  }
  [[nodiscard]] std::int64_t steals() const {
    return static_cast<std::int64_t>(Scheduler::instance().counters().steals -
                                     start.steals);
  }
};

void run_cell(std::size_t clients) {
  const auto n = static_cast<vertex_t>(
      100000 * bench::env_size("CPKC_SCALE", 1));
  const std::string wal_path = "/tmp/cpkc_service_throughput.wal";
  std::filesystem::remove(wal_path);

  service::ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.levels_per_group_cap = bench::opt_cap();
  if (wal_enabled()) cfg.wal_path = wal_path;
  cfg.wal_durability = wal_durability();
  cfg.metrics = &obs::MetricsRegistry::instance();
  service::KCoreService svc(cfg);

  // Preload half the edges so updates hit a nontrivial structure, then
  // zero the stats so the reported percentiles cover only the measured
  // workload, not ~2n single-threaded preload acks.
  for (const Edge& e : gen::barabasi_albert(n / 2, 4, 7)) {
    svc.submit_insert(e.u, e.v);
  }
  svc.drain();
  svc.reset_stats();
  const SchedDelta sched;

  harness::ServiceWorkloadConfig wl;
  wl.submitter_threads = clients;
  wl.reader_threads = bench::reader_threads();
  wl.ops_per_thread = ops_per_client();
  wl.delete_fraction = 0.2;
  wl.seed = 7;
  const auto result = harness::run_service_workload(svc, wl);
  const auto stats = svc.stats();
  const std::int64_t sched_spawns = sched.spawns();
  const std::int64_t sched_steals = sched.steals();
  svc.shutdown();
  std::filesystem::remove(wal_path);

  bench::emit_json_line({
      {"bench", std::string("service_throughput")},
      {"clients", static_cast<std::int64_t>(clients)},
      {"readers", static_cast<std::int64_t>(wl.reader_threads)},
      {"wal", static_cast<std::int64_t>(wal_enabled() ? 1 : 0)},
      {"wal_durability", durability_label(wal_durability())},
      {"wal_engine", stats.wal_engine},
      {"wal_flushes", static_cast<std::int64_t>(stats.wal_flushes)},
      {"wal_flush_bytes", static_cast<std::int64_t>(stats.wal_flush_bytes)},
      {"durable_lag_p99_ns",
       static_cast<std::int64_t>(stats.durable_lag.p99_ns())},
      {"ops", static_cast<std::int64_t>(result.ops_submitted)},
      {"wall_s", result.wall_seconds},
      {"submit_ops_per_s", result.submit_throughput()},
      {"ack_p50_ns", static_cast<std::int64_t>(stats.ack_latency.p50_ns())},
      {"ack_p99_ns", static_cast<std::int64_t>(stats.ack_latency.p99_ns())},
      {"ack_mean_ns", stats.ack_latency.mean_ns()},
      {"read_p50_ns",
       static_cast<std::int64_t>(result.read_latency.p50_ns())},
      {"read_p99_ns",
       static_cast<std::int64_t>(result.read_latency.p99_ns())},
      {"reads", static_cast<std::int64_t>(result.total_reads)},
      {"cycles", static_cast<std::int64_t>(stats.cycles)},
      {"batches", static_cast<std::int64_t>(stats.batches)},
      {"final_batch_budget", static_cast<std::int64_t>(stats.batch_budget)},
      {"sched_spawns", sched_spawns},
      {"sched_steals", sched_steals},
  });
}

/// One reader-scaling leg: a timed read window (CPKC_READ_SECONDS, default
/// 2 s) with continuous writer-thread ingest, at a fixed reader count,
/// and read mode. The A/B behind BENCH_read_path.json: SyncReads is the
/// locked baseline, CPLDS the wait-free view read.
void run_read_scaling_cell(std::size_t readers, ReadMode mode) {
  const auto n = static_cast<vertex_t>(
      100000 * bench::env_size("CPKC_SCALE", 1));
  const std::string wal_path = "/tmp/cpkc_read_scaling.wal";
  std::filesystem::remove(wal_path);

  service::ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.levels_per_group_cap = bench::opt_cap();
  if (wal_enabled()) cfg.wal_path = wal_path;
  cfg.wal_durability = wal_durability();
  cfg.metrics = &obs::MetricsRegistry::instance();
  // The DAG cells reproduce the full pre-view default read path: Algorithm
  // 4 double-collect reads plus the write-side descriptor maintenance they
  // require.
  cfg.cplds.track_dependencies = (mode == ReadMode::kCpldsDag);
  // Open-loop writers run for the whole timed window; blocking admission
  // keeps their backlog (and thus the post-window drain) bounded instead
  // of letting 2 s of unthrottled submits queue minutes of apply work.
  cfg.max_pending_per_shard = 4096;
  cfg.admission = service::AdmissionPolicy::kBlock;
  service::KCoreService svc(cfg);

  for (const Edge& e : gen::barabasi_albert(n / 2, 4, 7)) {
    svc.submit_insert(e.u, e.v);
  }
  svc.drain();
  svc.reset_stats();

  harness::ReadScalingConfig wl;
  wl.reader_threads = readers;
  wl.writer_threads = bench::env_size("CPKC_CLUSTER_WRITERS", 2);
  wl.mode = mode;
  wl.read_seconds =
      static_cast<double>(bench::env_size("CPKC_READ_SECONDS", 2));
  wl.delete_fraction = 0.2;
  wl.seed = 7;
  const auto result = harness::run_read_scaling(svc, wl);
  const auto rs = svc.cplds().reclaimer().stats();
  // Apply duty over the whole run (window + drain): the fraction of wall
  // time the level structure was mutating, i.e. the fraction SyncReads
  // readers spend blocked. The wait-free read's advantage scales with it.
  const double apply_s = svc.stats().apply_seconds;
  svc.shutdown();
  std::filesystem::remove(wal_path);

  bench::emit_json_line({
      {"bench", std::string("read_scaling")},
      {"readers", static_cast<std::int64_t>(readers)},
      {"writers", static_cast<std::int64_t>(wl.writer_threads)},
      {"read_mode", std::string(to_string(mode))},
      {"wal", static_cast<std::int64_t>(wal_enabled() ? 1 : 0)},
      {"window_s", result.read_seconds},
      {"reads", static_cast<std::int64_t>(result.total_reads)},
      {"read_ops_per_s", result.read_throughput()},
      {"read_p50_ns",
       static_cast<std::int64_t>(result.read_latency.p50_ns())},
      {"read_p99_ns",
       static_cast<std::int64_t>(result.read_latency.p99_ns())},
      // The deep tail is where the read paths actually differ: a SyncReads
      // reader that lands inside a batch apply stalls for the rest of it
      // (ms scale), a view reader never blocks at all.
      {"read_p9999_ns",
       static_cast<std::int64_t>(result.read_latency.p9999_ns())},
      {"read_max_ns",
       static_cast<std::int64_t>(result.read_latency.max_ns())},
      {"ops", static_cast<std::int64_t>(result.ops_submitted)},
      {"acked_ops_per_s", result.write_throughput()},
      {"apply_s", apply_s},
      {"drain_s", result.drain_seconds},
      {"reclaim_epoch_advances",
       static_cast<std::int64_t>(rs.epoch_advances)},
      {"reclaim_retired", static_cast<std::int64_t>(rs.retired)},
      {"reclaim_freed", static_cast<std::int64_t>(rs.freed)},
      {"reclaim_lagging_readers",
       static_cast<std::int64_t>(rs.lagging_readers)},
  });
}

void run_replicated_cell(std::size_t replicas) {
  const auto n = static_cast<vertex_t>(
      100000 * bench::env_size("CPKC_SCALE", 1));
  const std::string wal_path = "/tmp/cpkc_service_throughput.wal";
  std::filesystem::remove(wal_path);

  cluster::ClusterConfig ccfg;
  ccfg.partitions = 1;
  ccfg.replicas = replicas;
  // All replicas subscribe at construction and none joins later, so a
  // small retention ring suffices (no unbounded growth across the sweep).
  ccfg.retain_records = 1024;
  ccfg.base.num_vertices = n;
  ccfg.base.levels_per_group_cap = bench::opt_cap();
  if (wal_enabled()) ccfg.base.wal_path = wal_path;
  ccfg.base.wal_durability = wal_durability();
  ccfg.base.metrics = &obs::MetricsRegistry::instance();
  cluster::ShardGroup group(ccfg);
  cluster::Router router(group);
  router.register_metrics(&obs::MetricsRegistry::instance());

  // Preload half the edges (replicas follow along through the shipper),
  // then wait for every replica to catch up so the measured phase starts
  // from identical backends.
  for (const Edge& e : gen::barabasi_albert(n / 2, 4, 7)) {
    group.submit_insert(e.u, e.v);
  }
  group.quiesce();
  group.primary(0).reset_stats();
  const SchedDelta sched;

  harness::ClusterWorkloadConfig wl;
  wl.writer_threads = bench::env_size("CPKC_CLUSTER_WRITERS", 2);
  wl.reader_threads = bench::reader_threads();
  wl.ops_per_thread = ops_per_client() / 10;  // writes are closed-loop here
  wl.delete_fraction = 0.2;
  wl.seed = 7;
  const auto result = harness::run_cluster_workload(router, wl);
  const auto rstats = router.stats();
  const std::int64_t sched_spawns = sched.spawns();
  const std::int64_t sched_steals = sched.steals();
  group.shutdown();
  std::filesystem::remove(wal_path);

  bench::emit_json_line({
      {"bench", std::string("cluster_read_throughput")},
      {"replicas", static_cast<std::int64_t>(replicas)},
      {"writers", static_cast<std::int64_t>(wl.writer_threads)},
      {"readers", static_cast<std::int64_t>(wl.reader_threads)},
      {"wal", static_cast<std::int64_t>(wal_enabled() ? 1 : 0)},
      {"writes", static_cast<std::int64_t>(result.ops_written)},
      {"wall_s", result.wall_seconds},
      {"reads_per_s", result.read_throughput()},
      {"writes_per_s", result.write_throughput()},
      {"reads", static_cast<std::int64_t>(result.total_reads)},
      {"primary_reads", static_cast<std::int64_t>(result.primary_reads)},
      {"replica_reads", static_cast<std::int64_t>(result.replica_reads)},
      {"read_p50_ns",
       static_cast<std::int64_t>(result.read_latency.p50_ns())},
      {"read_p99_ns",
       static_cast<std::int64_t>(result.read_latency.p99_ns())},
      {"router_writes", static_cast<std::int64_t>(rstats.writes)},
      {"sched_spawns", sched_spawns},
      {"sched_steals", sched_steals},
  });
}

void run_sharded_cell(std::size_t partitions, std::size_t replicas,
                      std::size_t clients) {
  const auto n = static_cast<vertex_t>(
      100000 * bench::env_size("CPKC_SCALE", 1));
  const std::string wal_stem = "/tmp/cpkc_sharded_throughput.wal";
  remove_partition_wals(wal_stem, partitions);

  cluster::ClusterConfig ccfg;
  ccfg.partitions = partitions;
  ccfg.replicas = replicas;
  ccfg.retain_records = 1024;
  ccfg.base.num_vertices = n;
  ccfg.base.levels_per_group_cap = bench::opt_cap();
  if (wal_enabled()) ccfg.base.wal_path = wal_stem;
  ccfg.base.wal_durability = wal_durability();
  ccfg.base.metrics = &obs::MetricsRegistry::instance();
  cluster::ShardGroup group(ccfg);

  // Preload half the edges across the partitions, quiesce, zero every
  // partition's stats so the merged percentiles cover only the measured
  // phase.
  for (const Edge& e : gen::barabasi_albert(n / 2, 4, 7)) {
    group.submit_insert(e.u, e.v);
  }
  group.quiesce();
  for (std::size_t p = 0; p < partitions; ++p) {
    group.primary(p).reset_stats();
  }
  const SchedDelta sched;

  harness::ShardedWorkloadConfig wl;
  wl.submitter_threads = clients;
  wl.reader_threads = bench::reader_threads();
  wl.ops_per_thread = ops_per_client();
  wl.delete_fraction = 0.2;
  wl.seed = 7;
  const auto result = harness::run_sharded_workload(group, wl);

  // Merge the per-partition ack histograms: the sweep reports the
  // client-observed ack distribution across the whole write plane.
  LatencyHistogram ack;
  LatencyHistogram durable_lag;
  std::uint64_t cycles = 0;
  std::uint64_t batches = 0;
  std::uint64_t wal_flushes = 0;
  std::uint64_t wal_flush_bytes = 0;
  std::string wal_engine = "none";
  for (std::size_t p = 0; p < partitions; ++p) {
    const auto stats = group.primary(p).stats();
    ack.merge(stats.ack_latency);
    durable_lag.merge(stats.durable_lag);
    cycles += stats.cycles;
    batches += stats.batches;
    wal_flushes += stats.wal_flushes;
    wal_flush_bytes += stats.wal_flush_bytes;
    // The engine kind is uniform across partitions (same config, same
    // runtime probe); partition 0 speaks for the plane.
    if (p == 0) wal_engine = stats.wal_engine;
  }
  std::uint64_t min_part = ~std::uint64_t{0};
  std::uint64_t max_part = 0;
  for (std::uint64_t ops : result.ops_per_partition) {
    min_part = std::min(min_part, ops);
    max_part = std::max(max_part, ops);
  }
  const std::int64_t sched_spawns = sched.spawns();
  const std::int64_t sched_steals = sched.steals();
  group.shutdown();
  remove_partition_wals(wal_stem, partitions);

  bench::emit_json_line({
      {"bench", std::string("sharded_write_throughput")},
      {"write_shards", static_cast<std::int64_t>(partitions)},
      {"replicas", static_cast<std::int64_t>(replicas)},
      {"clients", static_cast<std::int64_t>(clients)},
      {"readers", static_cast<std::int64_t>(wl.reader_threads)},
      {"wal", static_cast<std::int64_t>(wal_enabled() ? 1 : 0)},
      {"wal_durability", durability_label(wal_durability())},
      {"wal_engine", wal_engine},
      {"wal_flushes", static_cast<std::int64_t>(wal_flushes)},
      {"wal_flush_bytes", static_cast<std::int64_t>(wal_flush_bytes)},
      {"durable_lag_p99_ns",
       static_cast<std::int64_t>(durable_lag.p99_ns())},
      {"ops", static_cast<std::int64_t>(result.ops_submitted)},
      {"wall_s", result.wall_seconds},
      {"submit_ops_per_s", result.submit_throughput()},
      {"ack_p50_ns", static_cast<std::int64_t>(ack.p50_ns())},
      {"ack_p99_ns", static_cast<std::int64_t>(ack.p99_ns())},
      {"ack_mean_ns", ack.mean_ns()},
      {"reads", static_cast<std::int64_t>(result.total_reads)},
      {"read_p99_ns",
       static_cast<std::int64_t>(result.read_latency.p99_ns())},
      {"cycles", static_cast<std::int64_t>(cycles)},
      {"batches", static_cast<std::int64_t>(batches)},
      {"min_partition_ops", static_cast<std::int64_t>(min_part)},
      {"max_partition_ops", static_cast<std::int64_t>(max_part)},
      {"sched_spawns", sched_spawns},
      {"sched_steals", sched_steals},
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_replicas = bench::env_size("CPKC_SERVICE_REPLICAS", 0);
  std::size_t max_shards = bench::env_size("CPKC_WRITE_SHARDS", 0);
  std::vector<std::size_t> reader_sweep;
  if (const char* v = std::getenv("CPKC_READER_SWEEP")) {
    reader_sweep = parse_count_list(v);
  }
  std::string sample_path;
  if (const char* v = std::getenv("CPKC_SAMPLE_JSON")) sample_path = v;
  int http_port = -1;  // -1 = no exporter; 0 = ephemeral
  if (const char* v = std::getenv("CPKC_HTTP_PORT")) {
    http_port = static_cast<int>(std::strtoul(v, nullptr, 10));
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--replicas") == 0 && i + 1 < argc) {
      max_replicas = static_cast<std::size_t>(
          std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--write-shards") == 0 && i + 1 < argc) {
      max_shards = static_cast<std::size_t>(
          std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--readers") == 0 && i + 1 < argc) {
      reader_sweep = parse_count_list(argv[++i]);
    } else if (std::strcmp(argv[i], "--sample") == 0 && i + 1 < argc) {
      sample_path = argv[++i];
    } else if (std::strcmp(argv[i], "--http-port") == 0 && i + 1 < argc) {
      http_port = static_cast<int>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--replicas N] [--write-shards P] "
                   "[--readers N,N,...] [--sample PATH] [--http-port N]\n",
                   argv[0]);
      return 2;
    }
  }
  // Health plane: expose the live registry and event journal over HTTP
  // while the sweep runs (curl 127.0.0.1:<port>/metrics mid-cell). The
  // per-cell services register and deregister their sources process-wide,
  // so a scrape sees whatever cell is running.
  std::unique_ptr<obs::HttpExporter> exporter;
  if (http_port >= 0) {
    obs::HttpExporterOptions hopts;
    hopts.port = static_cast<std::uint16_t>(http_port);
    exporter = std::make_unique<obs::HttpExporter>(hopts);
    std::fprintf(stderr, "# http exporter on 127.0.0.1:%u\n",
                 static_cast<unsigned>(exporter->port()));
  }
  // Flight recorder: stream registry snapshots for the whole sweep (the
  // per-cell services/groups register and deregister their sources as
  // cells come and go). Destroyed after the sweep — the final sample
  // captures the end state.
  std::unique_ptr<obs::StatsSampler> sampler;
  if (!sample_path.empty()) {
    obs::SamplerOptions opts;
    opts.path = sample_path;
    opts.interval_ms = bench::env_size("CPKC_SAMPLE_MS", 200);
    sampler = std::make_unique<obs::StatsSampler>(std::move(opts));
  }
  const auto finish = [&]() {
    sampler.reset();  // final sample + flush before the trace dump
    if (const char* path = std::getenv("CPKC_TRACE_FILE")) {
      const obs::TraceStats ts = obs::trace_stats();
      if (obs::trace_write_chrome_json(path)) {
        std::fprintf(stderr,
                     "# trace: %llu events (%llu dropped) -> %s\n",
                     static_cast<unsigned long long>(ts.retained),
                     static_cast<unsigned long long>(ts.dropped), path);
      } else {
        std::fprintf(stderr, "# trace: failed to write %s\n", path);
      }
    }
    return 0;
  };
  if (!reader_sweep.empty()) {
    // Reader-scaling A/B at each reader count: the two pre-view baselines
    // (locked SyncReads quiescence reads and the old default Algorithm 4
    // DAG read with its write-side dependency tracking) vs the wait-free
    // view read.
    for (const std::size_t r : reader_sweep) {
      run_read_scaling_cell(r, ReadMode::kSyncReads);
      run_read_scaling_cell(r, ReadMode::kCpldsDag);
      run_read_scaling_cell(r, ReadMode::kCplds);
    }
    return finish();
  }
  if (max_shards > 0) {
    // Write-scaling sweep: 1..P partitions at a fixed client count; with
    // --replicas R alongside, every partition also drives R replicas.
    const std::size_t clients = bench::writer_workers();
    for (std::size_t p = 1; p <= max_shards; ++p) {
      run_sharded_cell(p, max_replicas, clients);
    }
    return finish();
  }
  if (max_replicas > 0) {
    // Replicated read-throughput sweep: 0 (router straight to primary)
    // up to N replicas.
    for (std::size_t r = 0; r <= max_replicas; ++r) run_replicated_cell(r);
    return finish();
  }
  const std::size_t max_clients = bench::writer_workers();
  std::vector<std::size_t> sweep;
  for (std::size_t c = 1; c <= max_clients; c *= 2) sweep.push_back(c);
  if (sweep.empty() || sweep.back() != max_clients) {
    sweep.push_back(max_clients);
  }
  for (std::size_t clients : sweep) run_cell(clients);
  return finish();
}
