// Interactive CLI over the CPLDS: load or generate a graph, apply edge and
// vertex updates in batches, and query coreness estimates (with the exact
// oracle available for comparison). Reads commands from stdin; run with no
// arguments for a demo script.
//
//   $ ./example_dynamic_kcore_cli            # runs the built-in demo
//   $ echo "gen ba 1000 4 7
//           query 12
//           insert 12 13
//           exact 12
//           stats
//           quit" | ./example_dynamic_kcore_cli -
//
// Warm restart end to end (the serving layer's snapshot path):
//   --snapshot-load <path>   restore the graph from a snapshot at startup
//   --snapshot-save <path>   save a snapshot of the final graph on exit
//
// Replication and sharding end to end (the cluster layer): --replicas <r>
// and/or --write-shards <p> run the session's graph behind a ShardGroup —
// p partition primaries (edge-key hash partitioned write plane), each with
// r exact read replicas fed by WAL shipping — and the shard-aware router.
// insert/delete become routed writes (printing the owning partition and
// the acked partition LSN), query becomes a fan-out read (printing each
// partition's serving backend; the estimate is the cross-partition
// aggregate), and stats shows every partition's commit cursor, the
// session's LSN vector, and each replica's replication cursor. delv is not
// available in this mode (the serving layer ingests edge ops).
//
//   $ echo "gen ba 2000 4 7
//           insert 17 42
//           query 17
//           stats
//           quit" | ./example_dynamic_kcore_cli --write-shards 2 --replicas 2 -
//
//   $ echo "gen ba 1000 4 7
//           quit" | ./example_dynamic_kcore_cli --snapshot-save g.snap -
//   $ echo "stats
//           quit" | ./example_dynamic_kcore_cli --snapshot-load g.snap -
//
// Flight recorder (see src/obs/):
//   --metrics-out <path>   stream MetricsRegistry snapshots to <path> as
//                          JSON lines while the session runs (StatsSampler;
//                          final sample on exit). SIGUSR1 requests an
//                          immediate off-schedule sample — `kill -USR1
//                          <pid>` dumps the live state of a long session.
//   --sample-ms <n>        sampling interval (default 1000)
//   metrics                (command) print the current registry snapshot in
//                          Prometheus text exposition format
//
// Health plane (see src/obs/): a stall watchdog (HealthMonitor) always
// runs; cluster mode registers every pipeline thread with it.
//   --http-port <n>        serve the flight recorder and health plane over
//                          HTTP on 127.0.0.1:<n> (0 = ephemeral; the bound
//                          port is printed): GET /metrics (Prometheus),
//                          /healthz (503 when stalled), /vars (JSON),
//                          /events (journal tail)
//   health                 (command) print the watchdog rollup as JSON
//   stall <ms>             (command, cluster mode) inject an <ms> busy-sleep
//                          into partition 0's apply thread — the watchdog
//                          flags it stalled, /healthz flips 503, and it
//                          recovers on its own
//
// Commands:
//   gen ba <n> <edges_per_vertex> <seed>   generate Barabasi-Albert
//   gen er <n> <m> <seed>                  generate Erdos-Renyi
//   gen grid <side>                        generate triangulated grid
//   load <path>                            load an edge-list file
//   insert <u> <v> | delete <u> <v>        single-edge batch
//   batch insert|delete <u1> <v1> <u2> <v2> ...   multi-edge batch
//   delv <v> [...]                         delete vertices
//   query <v>                              approximate coreness (CPLDS read)
//   exact <v>                              exact coreness (full peel)
//   stats                                  n, m, batch number, max estimate
//   metrics                                registry snapshot (Prometheus)
//   health                                 watchdog rollup (JSON)
//   stall <ms>                             inject an apply-thread stall
//   quit
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/router.hpp"
#include "cluster/shard_group.hpp"
#include "core/cplds.hpp"
#include "core/snapshot.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "kcore/peel.hpp"
#include "obs/event_log.hpp"
#include "obs/health.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "service/kcore_service.hpp"

namespace {

using namespace cpkcore;

/// The session's flight-recorder sampler, reachable from the SIGUSR1
/// handler. request_sample() is async-signal-safe (it only sets an atomic
/// flag; the sampler thread does the work).
std::atomic<obs::StatsSampler*> g_sampler{nullptr};

void on_sigusr1(int) {
  if (obs::StatsSampler* s = g_sampler.load(std::memory_order_relaxed)) {
    s->request_sample();
  }
}

/// The session's stall watchdog (always on; cluster mode registers every
/// pipeline thread with it). Set once in main before any command runs.
obs::HealthMonitor* g_health = nullptr;

/// The `health` command: the watchdog rollup, re-evaluated now.
void print_health() {
  if (g_health == nullptr) {
    std::printf("no health monitor\n");
    return;
  }
  std::printf("%s\n", g_health->check_now().to_json().c_str());
}

/// The `metrics` command: one consistent snapshot of every registered
/// source, in Prometheus text exposition format (stable, greppable).
void print_metrics() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  if (snap.samples.empty()) {
    std::printf("no metrics registered (cluster mode registers the full "
                "pipeline; the scheduler always reports under sched_*)\n");
    return;
  }
  std::fputs(snap.to_prometheus().c_str(), stdout);
}

/// True iff `v` is a vertex id of an n-vertex graph; otherwise prints an
/// error and returns false. CPLDS::apply and delete_vertices index by id
/// without a range check (KCoreService checks at submit), so every id the
/// single-service mode reads from input passes through here first.
bool vertex_in_range(vertex_t v, vertex_t n) {
  if (v < n) return true;
  std::printf("error: vertex %u out of range (n=%u)\n", v, n);
  return false;
}

/// Reads the vertex argument of query/exact; prints an error and returns
/// nothing when it is missing or out of range.
std::optional<vertex_t> read_vertex_arg(std::istringstream& in,
                                        const std::string& cmd, vertex_t n) {
  vertex_t v;
  if (!(in >> v)) {
    std::printf("error: usage: %s <v>\n", cmd.c_str());
    return std::nullopt;
  }
  if (!vertex_in_range(v, n)) return std::nullopt;
  return v;
}

struct Session {
  std::unique_ptr<CPLDS> ds;
  std::unique_ptr<DynamicGraph> mirror;  // for the exact oracle

  void reset(vertex_t n, std::vector<Edge> edges) {
    ds = std::make_unique<CPLDS>(n, LDSParams::create(n));
    mirror = std::make_unique<DynamicGraph>(n);
    auto applied = ds->insert_batch(edges);
    mirror->insert_batch(applied);
    std::printf("graph ready: n=%u m=%zu\n", n, ds->num_edges());
  }

  /// Warm restart: adopt a CPLDS restored from a snapshot, rebuilding the
  /// exact-oracle mirror from its adjacency.
  void adopt(std::unique_ptr<CPLDS> restored) {
    ds = std::move(restored);
    mirror = std::make_unique<DynamicGraph>(ds->num_vertices());
    for (vertex_t v = 0; v < ds->num_vertices(); ++v) {
      for (vertex_t w : ds->plds().neighbors(v)) {
        if (w > v) mirror->insert_edge({v, w});
      }
    }
    std::printf("snapshot loaded: n=%u m=%zu\n", ds->num_vertices(),
                ds->num_edges());
  }

  bool ready() const { return ds != nullptr; }
};

/// --write-shards/--replicas mode: the same commands, served by a sharded
/// ShardGroup (partition primaries x replica sets) behind the shard-aware
/// router instead of a bare CPLDS. Heap-held (Router::Session is not
/// movable).
struct Cluster {
  std::size_t partitions;
  std::size_t num_replicas;
  std::unique_ptr<cluster::ShardGroup> group;
  std::unique_ptr<cluster::Router> router;
  std::unique_ptr<cluster::Router::Session> session;
  std::unique_ptr<DynamicGraph> mirror;  // for the exact oracle

  Cluster(std::size_t n_partitions, std::size_t n_replicas)
      : partitions(n_partitions), num_replicas(n_replicas) {}

  ~Cluster() { teardown(); }

  void teardown() {
    // The group tears its components down in dependency order (replicas,
    // shippers, primaries); the router only holds references into it.
    router.reset();
    session.reset();
    if (group) group->shutdown();
    group.reset();
  }

  void reset(vertex_t n, const std::vector<Edge>& edges) {
    teardown();
    cluster::ClusterConfig cfg;
    cfg.partitions = partitions;
    cfg.replicas = num_replicas;
    // Every replica subscribes at group construction, before any write,
    // and no one joins later — so the retention ring can stay small
    // instead of holding every batch ever committed for the session's
    // lifetime.
    cfg.retain_records = 1024;
    cfg.base.num_vertices = n;
    // Register the whole pipeline with the process registry so `metrics`
    // and --metrics-out see it (partition p under "p<p>.", router under
    // "router.").
    cfg.base.metrics = &obs::MetricsRegistry::instance();
    // ... and every pipeline thread with the watchdog, so `health`,
    // /healthz, and the router's stalled-replica gate see the real state.
    cfg.base.health = g_health;
    group = std::make_unique<cluster::ShardGroup>(cfg);
    router = std::make_unique<cluster::Router>(*group);
    router->register_metrics(&obs::MetricsRegistry::instance());
    session = router->make_session();
    mirror = std::make_unique<DynamicGraph>(n);
    for (const Edge& e : edges) {
      group->submit({e, UpdateKind::kInsert});
      mirror->insert_edge(e);
    }
    group->quiesce();
    std::printf(
        "cluster ready: n=%u m=%zu write_shards=%zu replicas=%zu/partition\n",
        n, group->num_edges(), partitions, num_replicas);
  }

  bool ready() const { return group != nullptr; }
};

const char* backend_name(int backend, std::string& scratch) {
  if (backend == cluster::Router::kPrimary) return "primary";
  scratch = "replica " + std::to_string(backend);
  return scratch.c_str();
}

/// Shared by both modes: parses the rest of a "gen ..."/"load ..." line
/// into a graph source. Prints its own diagnostics; returns nothing on a
/// malformed line (the caller just moves on, matching the other commands'
/// silent-on-parse-failure behavior).
std::optional<std::pair<vertex_t, std::vector<Edge>>> parse_graph_source(
    const std::string& cmd, std::istringstream& in) {
  if (cmd == "gen") {
    std::string family;
    in >> family;
    if (family == "ba") {
      vertex_t n;
      std::size_t epv;
      std::uint64_t seed;
      if (in >> n >> epv >> seed) {
        return {{n, gen::barabasi_albert(n, epv, seed)}};
      }
    } else if (family == "er") {
      vertex_t n;
      std::size_t m;
      std::uint64_t seed;
      if (in >> n >> m >> seed) return {{n, gen::erdos_renyi(n, m, seed)}};
    } else if (family == "grid") {
      vertex_t side;
      if (in >> side) {
        return {{static_cast<vertex_t>(side * side),
                 gen::grid_2d(side, side, true)}};
      }
    } else {
      std::printf("unknown family '%s' (ba|er|grid)\n", family.c_str());
    }
    return std::nullopt;
  }
  std::string path;  // cmd == "load"
  if (in >> path) {
    try {
      auto file = read_edge_list(path);
      return {{file.num_vertices, std::move(file.edges)}};
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
  }
  return std::nullopt;
}

bool handle_cluster(Cluster& c, const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd) || cmd[0] == '#') return true;
  if (cmd == "quit" || cmd == "exit") return false;

  if (cmd == "gen" || cmd == "load") {
    if (auto graph = parse_graph_source(cmd, in)) {
      c.reset(graph->first, graph->second);
    }
    return true;
  }
  if (!c.ready()) {
    std::printf("no graph loaded; use gen/load first\n");
    return true;
  }

  if (cmd == "insert" || cmd == "delete") {
    vertex_t u, v;
    if (in >> u >> v) {
      const Update op{{u, v},
                      cmd == "insert" ? UpdateKind::kInsert
                                      : UpdateKind::kDelete};
      try {
        const std::size_t p = c.group->partitioner().partition_of(op);
        const std::uint64_t lsn = c.router->write(*c.session, op);
        if (op.kind == UpdateKind::kInsert) {
          c.mirror->insert_edge(op.edge);
        } else {
          c.mirror->delete_edge(op.edge);
        }
        std::printf("%s (%u,%u): partition %zu acked at lsn %llu; m=%zu\n",
                    cmd.c_str(), u, v, p,
                    static_cast<unsigned long long>(lsn),
                    c.group->num_edges());
      } catch (const std::exception& e) {
        std::printf("error: %s\n", e.what());
      }
    }
    return true;
  }
  if (cmd == "batch") {
    std::string kind;
    in >> kind;
    const UpdateKind k =
        kind == "delete" ? UpdateKind::kDelete : UpdateKind::kInsert;
    vertex_t u, v;
    std::size_t count = 0;
    std::uint64_t lsn = 0;
    try {
      while (in >> u >> v) {
        lsn = c.router->write(*c.session, {{u, v}, k});
        if (k == UpdateKind::kInsert) {
          c.mirror->insert_edge({u, v});
        } else {
          c.mirror->delete_edge({u, v});
        }
        ++count;
      }
    } catch (const std::exception& e) {
      std::printf("error after %zu writes: %s\n", count, e.what());
      return true;
    }
    std::printf("batch %s: %zu routed writes, last lsn %llu; m=%zu\n",
                kind.c_str(), count, static_cast<unsigned long long>(lsn),
                c.group->num_edges());
    return true;
  }
  if (cmd == "delv") {
    std::printf("delv is not available with --replicas (edge-op ingest)\n");
    return true;
  }
  if (cmd == "query") {
    if (const auto arg = read_vertex_arg(in, cmd, c.group->num_vertices())) {
      const vertex_t v = *arg;
      const auto read = c.router->read_coreness(*c.session, v);
      std::printf("coreness_estimate(%u) = %.3f  (fan-out across %zu "
                  "partition%s)\n",
                  v, read.value, read.parts.size(),
                  read.parts.size() == 1 ? "" : "s");
      std::string scratch;
      for (std::size_t p = 0; p < read.parts.size(); ++p) {
        std::printf(
            "  partition %zu: %.3f served by %s at lsn %llu (session lsn "
            "%llu)\n",
            p, read.parts[p].value,
            backend_name(read.parts[p].backend, scratch),
            static_cast<unsigned long long>(read.parts[p].served_lsn),
            static_cast<unsigned long long>(c.session->last_lsn(p)));
      }
    }
    return true;
  }
  if (cmd == "exact") {
    if (const auto arg = read_vertex_arg(in, cmd, c.group->num_vertices())) {
      const vertex_t v = *arg;
      const auto coreness = exact_coreness(*c.mirror);
      const auto read = c.router->read_coreness(*c.session, v);
      std::printf("exact_coreness(%u) = %u  (estimate %.3f%s)\n", v,
                  coreness[v], read.value,
                  read.parts.size() > 1 ? ", cross-partition aggregate" : "");
    }
    return true;
  }
  if (cmd == "stats") {
    const auto rstats = c.router->stats();
    std::printf(
        "n=%u m=%zu write_shards=%zu writes=%llu reads=%llu "
        "primary_serves=%llu replica_serves=%llu\n",
        c.group->num_vertices(), c.group->num_edges(),
        c.group->num_partitions(),
        static_cast<unsigned long long>(rstats.writes),
        static_cast<unsigned long long>(rstats.reads),
        static_cast<unsigned long long>(rstats.primary_reads),
        static_cast<unsigned long long>(rstats.replica_reads));
    for (std::size_t p = 0; p < c.group->num_partitions(); ++p) {
      std::printf(
          "  partition %zu: m=%zu commit_lsn=%llu session_lsn=%llu "
          "writes=%llu\n",
          p, c.group->primary(p).num_edges(),
          static_cast<unsigned long long>(c.group->primary(p).commit_lsn()),
          static_cast<unsigned long long>(c.session->last_lsn(p)),
          static_cast<unsigned long long>(rstats.partitions[p].writes));
      for (std::size_t r = 0; r < c.group->num_replicas(); ++r) {
        std::printf(
            "    replica %zu: applied_lsn=%llu reads=%llu\n", r,
            static_cast<unsigned long long>(
                c.group->replica(p, r).applied_lsn()),
            static_cast<unsigned long long>(
                rstats.partitions[p].replica_reads[r]));
      }
    }
    return true;
  }
  if (cmd == "metrics") {
    print_metrics();
    return true;
  }
  if (cmd == "health") {
    print_health();
    return true;
  }
  if (cmd == "stall") {
    std::uint64_t ms = 0;
    if (in >> ms && ms > 0) {
      // Arm the one-shot injection, then poke partition 0's pipeline with
      // a duplicate insert (a structural no-op) so the apply thread runs a
      // cycle, beats, and busy-sleeps — exactly what a wedged apply looks
      // like to the watchdog. Fire-and-forget: the ack rides out the stall.
      c.group->primary(0).debug_inject_apply_stall(ms);
      c.group->primary(0).submit_insert(0, 1);
      c.mirror->insert_edge({0, 1});
      std::printf("stall armed: partition 0 apply thread sleeps %llu ms on "
                  "its next cycle (watch `health` / GET /healthz)\n",
                  static_cast<unsigned long long>(ms));
    } else {
      std::printf("usage: stall <ms>\n");
    }
    return true;
  }
  std::printf("unknown command '%s'\n", cmd.c_str());
  return true;
}

bool handle(Session& s, const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd) || cmd[0] == '#') return true;
  if (cmd == "quit" || cmd == "exit") return false;

  if (cmd == "gen" || cmd == "load") {
    if (auto graph = parse_graph_source(cmd, in)) {
      s.reset(graph->first, std::move(graph->second));
    }
    return true;
  }
  if (!s.ready()) {
    std::printf("no graph loaded; use gen/load first\n");
    return true;
  }

  const vertex_t n = s.ds->num_vertices();
  if (cmd == "insert" || cmd == "delete") {
    vertex_t u, v;
    if (in >> u >> v && vertex_in_range(u, n) && vertex_in_range(v, n)) {
      UpdateBatch b{cmd == "insert" ? UpdateKind::kInsert
                                    : UpdateKind::kDelete,
                    {{u, v}}};
      auto applied = s.ds->apply(b);
      if (b.kind == UpdateKind::kInsert) {
        s.mirror->insert_batch(applied);
      } else {
        s.mirror->delete_batch(applied);
      }
      std::printf("%s (%u,%u): %s; m=%zu\n", cmd.c_str(), u, v,
                  applied.empty() ? "no-op" : "ok", s.ds->num_edges());
    }
    return true;
  }
  if (cmd == "batch") {
    std::string kind;
    in >> kind;
    std::vector<Edge> edges;
    vertex_t u, v;
    while (in >> u >> v) edges.push_back({u, v});
    if (!std::all_of(edges.begin(), edges.end(), [n](const Edge& e) {
          return vertex_in_range(e.u, n) && vertex_in_range(e.v, n);
        })) {
      return true;
    }
    UpdateBatch b{kind == "delete" ? UpdateKind::kDelete
                                   : UpdateKind::kInsert,
                  std::move(edges)};
    auto applied = s.ds->apply(b);
    if (b.kind == UpdateKind::kInsert) {
      s.mirror->insert_batch(applied);
    } else {
      s.mirror->delete_batch(applied);
    }
    std::printf("batch %s: %zu applied; m=%zu\n", kind.c_str(),
                applied.size(), s.ds->num_edges());
    return true;
  }
  if (cmd == "delv") {
    std::vector<vertex_t> victims;
    vertex_t v;
    while (in >> v) victims.push_back(v);
    if (!std::all_of(victims.begin(), victims.end(),
                     [n](vertex_t w) { return vertex_in_range(w, n); })) {
      return true;
    }
    auto removed = s.ds->delete_vertices(victims);
    s.mirror->delete_batch(removed);
    std::printf("deleted %zu vertices (%zu incident edges); m=%zu\n",
                victims.size(), removed.size(), s.ds->num_edges());
    return true;
  }
  if (cmd == "query") {
    if (const auto arg = read_vertex_arg(in, cmd, n)) {
      const vertex_t v = *arg;
      std::printf("coreness_estimate(%u) = %.3f  (level %d)\n", v,
                  s.ds->read_coreness(v), s.ds->read_level(v));
    }
    return true;
  }
  if (cmd == "exact") {
    if (const auto arg = read_vertex_arg(in, cmd, n)) {
      const vertex_t v = *arg;
      const auto coreness = exact_coreness(*s.mirror);
      std::printf("exact_coreness(%u) = %u  (estimate %.3f)\n", v,
                  coreness[v], s.ds->read_coreness(v));
    }
    return true;
  }
  if (cmd == "stats") {
    double max_est = 0;
    for (vertex_t w = 0; w < s.ds->num_vertices(); ++w) {
      max_est = std::max(max_est, s.ds->read_coreness_nonsync(w));
    }
    std::printf("n=%u m=%zu batches=%llu max_estimate=%.3f approx_bound=%.2f\n",
                s.ds->num_vertices(), s.ds->num_edges(),
                static_cast<unsigned long long>(s.ds->batch_number()),
                max_est, s.ds->params().approx_factor());
    return true;
  }
  if (cmd == "metrics") {
    print_metrics();
    return true;
  }
  if (cmd == "health") {
    print_health();
    return true;
  }
  if (cmd == "stall") {
    std::printf("stall requires cluster mode (--write-shards/--replicas)\n");
    return true;
  }
  std::printf("unknown command '%s'\n", cmd.c_str());
  return true;
}

int run_demo(Session& s) {
  const char* script[] = {
      "gen ba 5000 4 7",   "query 17",        "insert 17 42",
      "query 17",          "exact 17",        "batch insert 1 2 2 3 3 1",
      "delv 42",           "query 42",        "stats",
  };
  for (const char* line : script) {
    std::printf("> %s\n", line);
    handle(s, line);
  }
  return 0;
}

int run_cluster_demo(Cluster& c) {
  const char* script[] = {
      "gen ba 2000 4 7", "query 17",  "insert 17 42", "query 17",
      "exact 17",        "stats",     "delete 17 42", "stats",
  };
  for (const char* line : script) {
    std::printf("> %s\n", line);
    handle_cluster(c, line);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot_load;
  std::string snapshot_save;
  std::string metrics_out;
  std::uint64_t sample_ms = 1000;
  int http_port = -1;  // -1 = no exporter; 0 = ephemeral
  bool interactive = false;
  std::size_t replicas = 0;
  std::size_t write_shards = 1;
  bool cluster_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--snapshot-load" && i + 1 < argc) {
      snapshot_load = argv[++i];
    } else if (arg == "--snapshot-save" && i + 1 < argc) {
      snapshot_save = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--sample-ms" && i + 1 < argc) {
      sample_ms = std::strtoull(argv[++i], nullptr, 10);
      if (sample_ms == 0) sample_ms = 1000;
    } else if (arg == "--http-port" && i + 1 < argc) {
      http_port = static_cast<int>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--replicas" && i + 1 < argc) {
      replicas = std::strtoul(argv[++i], nullptr, 10);
      cluster_mode = true;
    } else if (arg == "--write-shards" && i + 1 < argc) {
      write_shards = std::strtoul(argv[++i], nullptr, 10);
      cluster_mode = true;
    } else if (arg == "-") {
      interactive = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--snapshot-load <path>] "
                   "[--snapshot-save <path>] [--replicas <r>] "
                   "[--write-shards <p>] [--metrics-out <path>] "
                   "[--sample-ms <n>] [--http-port <n>] [-]\n",
                   argv[0]);
      return 2;
    }
  }

  // Health plane: the stall watchdog always runs (cluster mode registers
  // its pipeline threads below); the HTTP exporter is opt-in. Both outlive
  // every session object created later in main, so teardown unregisters
  // cleanly before the monitor dies.
  obs::HealthMonitor health_monitor;
  g_health = &health_monitor;
  std::unique_ptr<obs::HttpExporter> exporter;
  if (http_port >= 0) {
    obs::HttpExporterOptions hopts;
    hopts.port = static_cast<std::uint16_t>(http_port);
    hopts.health = &health_monitor;
    try {
      exporter = std::make_unique<obs::HttpExporter>(hopts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error starting --http-port exporter: %s\n",
                   e.what());
      return 1;
    }
    std::printf("http exporter on 127.0.0.1:%u "
                "(/metrics /healthz /vars /events)\n",
                static_cast<unsigned>(exporter->port()));
  }

  // Flight recorder: stream registry snapshots for the whole session;
  // SIGUSR1 dumps an off-schedule sample (handy on a long-running
  // interactive session). Destroyed on exit — the final sample captures
  // the end state.
  std::unique_ptr<obs::StatsSampler> sampler;
  if (!metrics_out.empty()) {
    obs::SamplerOptions sopts;
    sopts.path = metrics_out;
    sopts.interval_ms = sample_ms;
    try {
      sampler = std::make_unique<obs::StatsSampler>(std::move(sopts));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error opening --metrics-out: %s\n", e.what());
      return 1;
    }
    g_sampler.store(sampler.get(), std::memory_order_relaxed);
    std::signal(SIGUSR1, on_sigusr1);
  }
  // Un-publish (and quiet the signal) before the sampler dies, whatever
  // return path runs: declared after `sampler`, so this destructor runs
  // first.
  struct SamplerGuard {
    ~SamplerGuard() {
      if (g_sampler.exchange(nullptr, std::memory_order_relaxed) != nullptr) {
        std::signal(SIGUSR1, SIG_IGN);
      }
    }
  } sampler_guard;

  if (cluster_mode) {
    if (!snapshot_load.empty() || !snapshot_save.empty()) {
      std::fprintf(stderr,
                   "--replicas/--write-shards and "
                   "--snapshot-load/--snapshot-save are mutually "
                   "exclusive\n");
      return 2;
    }
    if (write_shards == 0) {
      std::fprintf(stderr, "--write-shards must be >= 1\n");
      return 2;
    }
    Cluster c(write_shards, replicas);
    if (!interactive) return run_cluster_demo(c);
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!handle_cluster(c, line)) break;
    }
    return 0;
  }

  Session s;
  if (!snapshot_load.empty()) {
    try {
      s.adopt(load_snapshot(snapshot_load));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error loading snapshot: %s\n", e.what());
      return 1;
    }
  }

  if (argc < 2) {
    run_demo(s);
  } else if (interactive || !snapshot_load.empty() || !snapshot_save.empty()) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!handle(s, line)) break;
    }
  }

  if (!snapshot_save.empty()) {
    if (!s.ready()) {
      std::fprintf(stderr, "no graph to save\n");
      return 1;
    }
    try {
      save_snapshot(*s.ds, snapshot_save);
      std::printf("snapshot saved: %s (n=%u m=%zu)\n", snapshot_save.c_str(),
                  s.ds->num_vertices(), s.ds->num_edges());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error saving snapshot: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
