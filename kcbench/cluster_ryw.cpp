// cluster-ryw: a ShardGroup of 2 partitions with 1 replica each, driven
// through the Router. A closed-loop writer (the main thread) holds a
// read-your-writes session; one closed-loop reader shares it and issues
// fan-out reads of uniform vertices, so every read carries a freshness
// floor per partition. Each primary keeps a binary WAL at os_cache, so
// writes ack at apply after their bytes are staged.
//
// It loads ship -> replica apply -> routed fan-out read under freshness
// floors, and each primary's WAL encode and write. The closed loop keeps
// 1-2 ops per cycle, so the coalescer does little.
//
// Metrics, as this workload defines them:
//   ack_p50_us / ack_p99_us  duration of one Router::write (submit + ack);
//                            p99 per round, median over rounds
//   acked_ops_per_s          closed-loop acked writes per second, median
//                            over rounds of a fixed number of writes
//   update_edges_per_s       applied edges / summed CPLDS::apply time over
//                            both partition primaries, median over rounds
//   coreness_err_*           per partition: each primary's estimates
//                            against exact peeling of that partition's
//                            edges (the router sums partition estimates)
#include <cmath>
#include <cstdio>
#include <filesystem>

#include <unistd.h>

#include "cluster/router.hpp"
#include "cluster/shard_group.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "kcore/peel.hpp"
#include "measure.hpp"
#include "parallel/scheduler.hpp"
#include "traffic.hpp"

namespace kcbench {
namespace {

using namespace cpkcore;
using cluster::Router;
using cluster::ShardGroup;

constexpr std::uint64_t kGraphSeed = 0x31133003;
constexpr int kLevelsPerGroupCap = 20;  // the paper's "-opt 20"
constexpr double kDeleteFrac = 0.3;
constexpr std::size_t kPartitions = 2;
constexpr std::size_t kReplicas = 1;

struct Sizes {
  vertex_t n;
  std::size_t writes_per_round;
  double round_s;                ///< nominal round length (sets round count)
  std::size_t warm_ops;          ///< set-up traffic sent back to back
};

// A round of 8000 closed-loop writes takes 0.65-0.9 s at the 9-12k acked
// writes/s of a 4-vCPU Xeon guest; its p99 rests on 80 slower writes. The
// stream inserts more than it deletes, so the graph, and the process's
// memory, grow with the number of rounds (~1.5 GB after 44 of them).
Sizes sizes(const Options& o) {
  if (o.small) return {3000, 200, 0.5, 500};
  return {60000, 8000, 0.8, 10000};
}

struct State {
  std::string dir;
  std::vector<Edge> preload;
  std::unique_ptr<MixedTraffic> traffic;
  std::unique_ptr<ShardGroup> group;
  ~State() {
    group.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

std::unique_ptr<State> build(const Options& o, int copy) {
  const Sizes z = sizes(o);
  auto s = std::make_unique<State>();
  s->dir = std::string(kOutDir) + "/cluster-ryw-" +
           std::to_string(::getpid()) + "-" + std::to_string(copy);
  std::filesystem::remove_all(s->dir);
  std::filesystem::create_directories(s->dir);
  s->preload = gen::social(z.n, 4, z.n / 2000, 40, 0.9, kGraphSeed);
  cluster::ClusterConfig c;
  c.partitions = kPartitions;
  c.replicas = kReplicas;
  c.base.num_vertices = z.n;
  c.base.levels_per_group_cap = kLevelsPerGroupCap;
  c.base.wal_path = s->dir + "/wal";
  c.base.snapshot_path = s->dir + "/snapshot";
  c.base.wal_durability = service::WalDurability::kOsCache;
  // Replicas start empty and follow the shipped log, so the preload goes
  // through the write path. Everything runs without a pool: with one, the
  // pool threads, 2 apply threads, 2 replica appliers and the submitter
  // shared 3 CPUs, and the preload took 4.3-9.4 s instead of 2.0-2.4 s.
  Scheduler::instance().set_num_workers(1);
  s->group = std::make_unique<ShardGroup>(c);
  for (const auto& e : s->preload) s->group->submit_insert(e.u, e.v);
  s->group->quiesce();
  // The warm-up sends the head of the writer's seeded stream back to back,
  // past the slow first ops after a bulk load.
  s->traffic = std::make_unique<MixedTraffic>(z.n, s->preload, kDeleteFrac,
                                              o.seed);
  for (std::size_t i = 0; i < z.warm_ops; ++i) {
    s->group->submit(s->traffic->next());
  }
  s->group->quiesce();
  return s;
}

/// Sum of the reclaimer stats of every primary and replica.
concurrent::Reclaimer::Stats reclaim_stats(ShardGroup& g) {
  concurrent::Reclaimer::Stats sum;
  auto add = [&](const concurrent::Reclaimer::Stats& s) {
    sum.retired += s.retired;
    sum.freed += s.freed;
    sum.lagging_readers += s.lagging_readers;
    sum.limbo += s.limbo;
  };
  for (std::size_t p = 0; p < g.num_partitions(); ++p) {
    add(g.primary(p).cplds().reclaimer().stats());
    for (std::size_t r = 0; r < g.num_replicas(); ++r) {
      add(g.replica(p, r).cplds().reclaimer().stats());
    }
  }
  return sum;
}

}  // namespace

int run_cluster_ryw(const Options& o) {
  Report report(o);
  const Sizes z = sizes(o);

  EndToEnd e2e;
  int copy = 0;
  auto state = timed_setups([&] { return build(o, copy++); }, &e2e.setup_s);
  ShardGroup& group = *state->group;
  Router router(group);

  const int rounds = std::max(o.trace ? 4 : 3,
                              static_cast<int>(std::lround(o.seconds / z.round_s)));
  // All inputs are generated before the clock starts.
  std::vector<Update> ops(z.writes_per_round * rounds);
  for (auto& op : ops) op = state->traffic->next();
  if (report.injecting("failed_ops")) ops[ops.size() / 2].edge.v = z.n + 7;
  const auto session = router.make_session();

  SpanLog spans;
  std::atomic<bool> tracing{false};

  // ---- reader: fan-out reads under the writer's session
  std::uint64_t ryw_violations = 0, read_count = 0;
  std::vector<double> staleness;
  staleness.reserve(1u << 20);  // filled inside timed blocks: no regrowth
  std::uint64_t inject_at = report.injecting("ryw") ? 1000 : ~std::uint64_t{0};
  auto read = [&](vertex_t v) {
    std::uint64_t floor[kPartitions];
    for (std::size_t p = 0; p < kPartitions; ++p) floor[p] = session->last_lsn(p);
    if (read_count == inject_at) floor[0] = ~std::uint64_t{0};
    const auto res = router.read_coreness(*session, v);
    for (std::size_t p = 0; p < kPartitions; ++p) {
      if (res.parts[p].served_lsn < floor[p]) ++ryw_violations;
    }
    if ((++read_count & 63) == 0 && staleness.size() + kPartitions <= staleness.capacity()) {
      for (std::size_t p = 0; p < kPartitions; ++p) {
        const std::uint64_t head = group.primary(p).applied_lsn();
        staleness.push_back(static_cast<double>(
            head > res.parts[p].served_lsn ? head - res.parts[p].served_lsn : 0));
      }
    }
    return res.value;
  };
  SpanLog::Buffer* read_spans = &spans.buffer();
  std::uint64_t read_req = 0;
  Reader<decltype(read)> reader(
      uniform_ring(z.n, o.seed ^ 0xBEEFULL), read,
      [&](vertex_t, double, std::uint64_t a, std::uint64_t b) {
        if (!tracing.load(std::memory_order_relaxed) || (++read_req & 1023))
          return;
        const auto root = read_spans->add(SpanLog::kRead, 0, read_req, a, b);
        read_spans->add(SpanLog::kRouterRead, root, read_req, a, b);
      });

  // ---- writer: closed loop, a fixed number of writes per round
  std::vector<double> ack_us;
  ack_us.reserve(ops.size());
  std::size_t failed = 0;
  SpanLog::Buffer& write_spans = spans.buffer();

  for (std::size_t p = 0; p < kPartitions; ++p) group.primary(p).reset_stats();
  const auto rstats0 = router.stats();
  const auto rec0 = reclaim_stats(group);
  const auto sched0 = Scheduler::instance().counters();
  std::vector<std::uint64_t> view0;
  for (std::size_t p = 0; p < kPartitions; ++p) {
    view0.push_back(group.primary(p).cplds().view_version());
  }
  reader.start();
  // Every write crosses from the writer to an apply thread and back: with
  // halted vCPUs, at 18-20% host steal time acked_ops_per_s fell from 16k
  // to 2.5k and ack_p99_us rose from 0.3 to 7.9 ms; with the spinners it
  // stayed at 11.6k and 0.4 ms. Reads pay for the busy CPUs: read_p50_ns
  // 400-460 -> 620-750 ns.
  auto spinners = std::make_unique<IdleSpinners>();
  const double cpu0 = cpu_seconds();
  const StealMeter steal;
  const std::uint64_t window0 = now_ns();

  std::vector<double> round_ops_per_s, round_edges_per_s, lag_samples;
  double limbo_peak = 0;
  for (int r = 0; r < rounds; ++r) {
    const bool traced = traced_round(o, r);
    tracing.store(traced);
    reader.set_round(r);
    const auto gs0 = group.global_stats();
    const std::uint64_t r0 = now_ns();
    for (std::size_t k = 0; k < z.writes_per_round; ++k) {
      const std::size_t i = static_cast<std::size_t>(r) * z.writes_per_round + k;
      const std::uint64_t t0 = now_ns();
      try {
        router.write(*session, ops[i]);
      } catch (const std::exception& e) {
        ++failed;
        std::fprintf(stderr, "kcbench: write refused: %s\n", e.what());
      }
      const std::uint64_t t1 = now_ns();
      ack_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      if (traced) {
        const auto root = write_spans.add(SpanLog::kOp, 0, i, t0, t1);
        write_spans.add(SpanLog::kRouterWrite, root, i, t0, t1);
      }
      if ((k & 63) == 0) {
        lag_samples.push_back(static_cast<double>(group.max_replica_lag()));
        limbo_peak = std::max(limbo_peak,
                              static_cast<double>(reclaim_stats(group).limbo));
      }
    }
    round_ops_per_s.push_back(static_cast<double>(z.writes_per_round) /
                              seconds_since(r0));
    const auto gs1 = group.global_stats();
    double edges = 0, apply_s = 0;
    for (std::size_t p = 0; p < kPartitions; ++p) {
      edges += static_cast<double>(gs1.partitions[p].applied_edges -
                                   gs0.partitions[p].applied_edges);
      apply_s += gs1.partitions[p].apply_seconds - gs0.partitions[p].apply_seconds;
    }
    round_edges_per_s.push_back(edges / apply_s);
  }
  reader.set_round(-1);
  const double window_s = seconds_since(window0);
  const double cores_used = (cpu_seconds() - cpu0) / window_s;
  const double steal_pct = steal.pct();
  // Before the benchmark's own correctness checks allocate.
  const double rss_mb = peak_rss_mb();
  reader.stop();
  const int spinner_count = spinners->count();
  spinners.reset();
  tracing.store(false);

  // ---- correctness at quiescence
  group.quiesce();
  const auto gs = group.global_stats();
  const auto rstats1 = router.stats();
  const auto rec1 = reclaim_stats(group);
  const auto sched1 = Scheduler::instance().counters();
  report.attempted = ops.size();
  report.failed = failed;

  std::uint64_t expected_acked = ops.size() - failed;
  if (report.injecting("acked")) ++expected_acked;
  report.gate("acked",
              gs.acked_ops == gs.submitted_ops && gs.acked_ops == expected_acked,
              std::to_string(gs.acked_ops) + " acked, " +
                  std::to_string(gs.submitted_ops) + " submitted, " +
                  std::to_string(expected_acked) + " written");
  std::vector<Edge> present = state->traffic->present();
  std::size_t expected_edges = present.size();
  if (report.injecting("edge_count")) ++expected_edges;
  report.gate("edge_count", group.num_edges() == expected_edges,
              std::to_string(group.num_edges()) + " edges vs " +
                  std::to_string(expected_edges) + " replayed");
  report.gate("ryw", ryw_violations == 0,
              std::to_string(ryw_violations) + " part-reads below the "
              "session cursor in " + std::to_string(read_count) + " reads");

  std::size_t mismatched = 0;
  for (std::size_t p = 0; p < kPartitions; ++p) {
    for (std::size_t rr = 0; rr < kReplicas; ++rr) {
      const auto& rep = group.replica(p, rr);
      if (rep.cplds().num_edges() != group.primary(p).num_edges()) ++mismatched;
      for (vertex_t v = 0; v < z.n; ++v) {
        level_t lv = rep.read_level(v);
        if (report.injecting("replica") && p == 0 && v == 0) ++lv;
        if (lv != group.primary(p).read_level(v)) ++mismatched;
      }
    }
  }
  report.gate("replica", mismatched == 0,
              std::to_string(mismatched) +
                  " replica levels or edge counts differ from the primary");

  ErrorStats err;
  double bound = 0;
  std::vector<std::vector<Edge>> part_edges(kPartitions);
  for (const auto& e : present) {
    part_edges[group.partitioner().partition_of(e)].push_back(e);
  }
  for (std::size_t p = 0; p < kPartitions; ++p) {
    auto exact = exact_coreness(CsrGraph::from_edges(z.n, std::move(part_edges[p])));
    if (report.injecting("coreness") && p == 0) exact[0] = exact[0] * 100 + 100;
    for (vertex_t v = 0; v < z.n; ++v) {
      err.add(group.primary(p).read_coreness(v), exact[v]);
    }
    bound = group.primary(p).cplds().params().approx_factor();
  }
  report.gate("coreness", err.max <= bound,
              "max error " + std::to_string(err.max) + " vs bound " +
                  std::to_string(bound));

  std::vector<double> round_ack_p99_us;
  for (int r = 0; r < rounds; ++r) {
    const auto b = ack_us.begin() + static_cast<std::ptrdiff_t>(r * z.writes_per_round);
    round_ack_p99_us.push_back(quantile(
        {b, b + static_cast<std::ptrdiff_t>(z.writes_per_round)}, 0.99));
  }
  double applied_edges = 0, apply_s = 0, batches = 0, cycles = 0, acked = 0;
  double wal_bytes = 0, wal_flushes = 0;
  LatencyHistogram apply_hist, lag_hist;
  for (const auto& st : gs.partitions) {
    applied_edges += static_cast<double>(st.applied_edges);
    apply_s += st.apply_seconds;
    batches += static_cast<double>(st.batches);
    cycles += static_cast<double>(st.cycles);
    acked += static_cast<double>(st.acked_ops);
    wal_bytes += static_cast<double>(st.wal_flush_bytes);
    wal_flushes += static_cast<double>(st.wal_flushes);
    apply_hist.merge(st.apply_latency);
    lag_hist.merge(st.durable_lag);
  }

  if (!o.trace) {
    e2e.peak_rss_mb = rss_mb;
    e2e.read_p50_ns = read_p50_ns(reader.rounds());
    e2e.read_p999_ns = read_p999_ns(reader.rounds());
    e2e.ack_p50_us = quantile(ack_us, 0.5);
    e2e.ack_p99_us = median(round_ack_p99_us);
    e2e.acked_ops_per_s = median(round_ops_per_s);
    e2e.update_edges_per_s = median(round_edges_per_s);
    e2e.coreness_err_avg = err.avg();
    e2e.coreness_err_max = err.max;
    emit(report, e2e);
  } else {
    batches = std::max(1.0, batches);
    cycles = std::max(1.0, cycles);
    acked = std::max(1.0, acked);
    double views = 0;
    for (std::size_t p = 0; p < kPartitions; ++p) {
      views += static_cast<double>(group.primary(p).cplds().view_version() - view0[p]);
    }
    const double primary_reads =
        static_cast<double>(rstats1.primary_reads - rstats0.primary_reads);
    const double replica_reads =
        static_cast<double>(rstats1.replica_reads - rstats0.replica_reads);
    PerLayer pl;
    pl.trace_overhead_pct = trace_overhead_pct(round_ops_per_s, o);
    pl.batches_per_cycle = batches / cycles;
    pl.ops_per_cycle = acked / cycles;
    pl.applied_edge_ratio = applied_edges / acked;
    pl.apply_p50_us = static_cast<double>(apply_hist.p50_ns()) * 1e-3;
    pl.apply_p99_us = static_cast<double>(apply_hist.p99_ns()) * 1e-3;
    pl.apply_busy_frac = apply_s / (window_s * kPartitions);
    pl.durable_lag_p99_us = static_cast<double>(lag_hist.p99_ns()) * 1e-3;
    pl.wal_bytes_per_op = wal_bytes / acked;
    pl.wal_flushes_per_cycle = wal_flushes / cycles;
    pl.view_publishes_per_batch = views / batches;
    pl.spawns_per_batch = static_cast<double>(sched1.spawns - sched0.spawns) / batches;
    pl.steals_per_batch = static_cast<double>(sched1.steals - sched0.steals) / batches;
    pl.reclaim_retired_per_batch = static_cast<double>(rec1.retired - rec0.retired) / batches;
    pl.reclaim_freed_per_batch = static_cast<double>(rec1.freed - rec0.freed) / batches;
    pl.reclaim_limbo_peak = limbo_peak;
    pl.reclaim_lagging_per_batch =
        static_cast<double>(rec1.lagging_readers - rec0.lagging_readers) / batches;
    pl.replica_lag_p99_records = quantile(lag_samples, 0.99);
    pl.replica_read_share =
        replica_reads / std::max(1.0, primary_reads + replica_reads);
    pl.read_staleness_p99_lsn = quantile(staleness, 0.99);
    pl.self_p50_us = spans.self_p50_us();
    emit(report, pl);
    char stats[768];
    std::snprintf(
        stats, sizeof stats,
        "{\"acked_ops\":%.0f,\"applied_edges\":%.0f,\"batches\":%.0f,"
        "\"cycles\":%.0f,\"apply_seconds\":%.6f,\"wal_flushes\":%.0f,"
        "\"wal_flush_bytes\":%.0f,\"router.reads\":%llu,"
        "\"router.primary_reads\":%.0f,\"router.replica_reads\":%.0f,"
        "\"reclaim.retired\":%llu,\"reclaim.freed\":%llu}",
        acked, applied_edges, batches, cycles, apply_s, wal_flushes, wal_bytes,
        static_cast<unsigned long long>(rstats1.reads - rstats0.reads),
        primary_reads, replica_reads,
        static_cast<unsigned long long>(rec1.retired - rec0.retired),
        static_cast<unsigned long long>(rec1.freed - rec0.freed));
    spans.write(std::string(kOutDir) + "/trace-cluster-ryw-seed" +
                    std::to_string(o.seed) + ".json",
                stats);
  }

  describe_common(
      report, o, 1, std::string(group.primary(0).cplds().reclaimer().name()),
      {{"writer", 1},
       {"reader", 1},
       {"apply", static_cast<int>(kPartitions)},
       {"replica_appliers", static_cast<int>(kPartitions * kReplicas)}},
      cores_used, steal_pct);
  report.describe_str("wal_engine", gs.partitions[0].wal_engine);
  report.describe_str("wal_durability", "os_cache");
  report.describe("idle_spinners", spinner_count);
  report.describe("vertices", z.n);
  report.describe("partitions", kPartitions);
  report.describe("replicas", kReplicas);
  report.describe("rounds", rounds);
  report.describe("reads", static_cast<double>(total_reads(reader.rounds())));
  return report.finish();
}

}  // namespace kcbench
