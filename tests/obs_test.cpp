// Tests for the flight recorder (src/obs/): metrics registry consistency
// under concurrent writers, trace ring wraparound and cross-thread
// ordering, Chrome trace-event JSON well-formedness, the stats sampler's
// lifecycle, and one traced replicated run end to end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/shard_group.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "parallel/scheduler.hpp"
#include "service/kcore_service.hpp"

namespace {

using namespace cpkcore;

/// Minimal structural JSON check: balanced {}/[] outside strings, string
/// escapes honored, no dangling string. Enough to catch a malformed
/// export without a JSON library (CI additionally json.loads() real runs).
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && !escaped && stack.empty();
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Obs, CounterConcurrentAdds) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Obs, StripedHistogramConcurrentRecords) {
  obs::StripedHistogram hist;
  constexpr int kThreads = 6;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hist.record(1000 * (static_cast<std::uint64_t>(t) + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hist.merged().count(), kThreads * kPerThread);
}

// The tentpole consistency property: snapshots taken while writers hammer
// the counters are each internally complete (every registered sample
// present) and values only grow across successive snapshots. Run under
// TSan this also proves the registry/collect path is race-free.
TEST(Obs, SnapshotConsistentUnderConcurrentWriters) {
  obs::MetricsRegistry registry;
  obs::Counter ops;
  obs::StripedHistogram lat;
  const std::uint64_t id = registry.add_source(
      "svc.", [&](obs::MetricsSink& sink) {
        sink.counter("ops", ops);
        sink.histogram("latency_ns", lat);
      });
  ASSERT_EQ(registry.num_sources(), 1u);

  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ops.add();
        lat.record(500);
      }
    });
  }

  double last_ops = -1.0;
  std::uint64_t last_count = 0;
  for (int i = 0; i < 200; ++i) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.samples.size(), 2u);
    const obs::MetricSample* ops_sample = snap.find("svc.ops");
    const obs::MetricSample* lat_sample = snap.find("svc.latency_ns");
    ASSERT_NE(ops_sample, nullptr);
    ASSERT_NE(lat_sample, nullptr);
    EXPECT_EQ(ops_sample->type, obs::MetricType::kCounter);
    EXPECT_EQ(lat_sample->type, obs::MetricType::kHistogram);
    // Monotone: the counter and histogram only grow.
    EXPECT_GE(ops_sample->value, last_ops);
    EXPECT_GE(lat_sample->hist.count, last_count);
    last_ops = ops_sample->value;
    last_count = lat_sample->hist.count;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writers) th.join();

  registry.remove_source(id);
  EXPECT_EQ(registry.num_sources(), 0u);
  EXPECT_TRUE(registry.snapshot().samples.empty());
}

TEST(Obs, MetricsGroupRaiiDeregisters) {
  obs::MetricsRegistry registry;
  {
    obs::MetricsGroup group(&registry, "a.");
    group.collect([](obs::MetricsSink& sink) { sink.gauge("x", 1.0); });
    group.collect([](obs::MetricsSink& sink) { sink.gauge("y", 2.0); });
    EXPECT_EQ(registry.num_sources(), 2u);
    const obs::MetricsSnapshot snap = registry.snapshot();
    ASSERT_NE(snap.find("a.x"), nullptr);
    ASSERT_NE(snap.find("a.y"), nullptr);

    // Move transfers ownership of the registrations.
    obs::MetricsGroup moved = std::move(group);
    EXPECT_EQ(registry.num_sources(), 2u);
    EXPECT_TRUE(moved.enabled());
  }
  // Everything deregistered at scope exit; the callbacks can never run
  // against destroyed captures again.
  EXPECT_EQ(registry.num_sources(), 0u);

  // A null-registry group is inert at every call site.
  obs::MetricsGroup inert;
  inert.collect([](obs::MetricsSink& sink) { sink.gauge("never", 0.0); });
  EXPECT_FALSE(inert.enabled());
}

TEST(Obs, SnapshotJsonAndPrometheusFormats) {
  obs::MetricsRegistry registry;
  LatencyHistogram hist;
  for (int i = 1; i <= 100; ++i) hist.record(i * 1000);
  obs::MetricsGroup group(&registry, "svc.");
  group.collect([&](obs::MetricsSink& sink) {
    sink.counter("acked_ops", 42.0);
    sink.gauge("queue_depth", 7.5);
    sink.histogram("ack_ns", hist);
  });
  // A prefix starting with a digit must come out of the Prometheus
  // sanitizer with a leading underscore guard.
  obs::MetricsGroup numeric(&registry, "0p.");
  numeric.collect(
      [](obs::MetricsSink& sink) { sink.gauge("lag", 3.0); });

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.wall_unix_ms, 0u);

  const std::string json = snap.to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"ts_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"svc.acked_ops\":42"), std::string::npos);
  EXPECT_NE(json.find("\"svc.queue_depth\":7.5"), std::string::npos);
  EXPECT_NE(json.find("\"svc.ack_ns.count\":100"), std::string::npos);
  EXPECT_NE(json.find("\"svc.ack_ns.p99_ns\":"), std::string::npos);

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("svc_acked_ops_total 42"), std::string::npos) << prom;
  EXPECT_NE(prom.find("svc_queue_depth 7.5"), std::string::npos);
  EXPECT_NE(prom.find("svc_ack_ns{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(prom.find("svc_ack_ns_count 100"), std::string::npos);
  EXPECT_NE(prom.find("_0p_lag 3"), std::string::npos) << prom;
}

// Touching the scheduler registers its work-stealing counters with the
// process-wide registry (the one pipeline source that is always on).
TEST(Obs, SchedulerRegistersGlobalMetrics) {
  std::atomic<int> sum{0};
  Scheduler::instance().parallel_for(
      0, 1000, [&](std::size_t) { sum.fetch_add(1); }, 10);
  EXPECT_EQ(sum.load(), 1000);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  const obs::MetricSample* spawns = snap.find("sched.spawns");
  ASSERT_NE(spawns, nullptr);
  ASSERT_NE(snap.find("sched.steals"), nullptr);
  const obs::MetricSample* workers = snap.find("sched.workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_GE(workers->value, 1.0);
}

// End-to-end registry wiring: a service constructed with a registry
// exports its pipeline stats under its prefix, and deregisters on
// shutdown/destruction.
TEST(Obs, ServiceRegistersPipelineMetrics) {
  obs::MetricsRegistry registry;
  {
    service::ServiceConfig cfg;
    cfg.num_vertices = 64;
    cfg.metrics = &registry;
    service::KCoreService svc(cfg);
    svc.submit_insert(1, 2);
    svc.submit_insert(2, 3);
    svc.drain();
    const obs::MetricsSnapshot snap = registry.snapshot();
    const obs::MetricSample* acked = snap.find("service.acked_ops");
    ASSERT_NE(acked, nullptr);
    EXPECT_EQ(acked->value, 2.0);
    ASSERT_NE(snap.find("service.commit_lsn"), nullptr);
    ASSERT_NE(snap.find("service.ack_latency_ns"), nullptr);
  }
  EXPECT_EQ(registry.num_sources(), 0u);
}

TEST(Obs, TraceRingWraparound) {
  obs::trace_clear();
  obs::trace_set_enabled(true);
  obs::trace_set_ring_capacity(64);
  const obs::TraceStats before = obs::trace_stats();
  // A fresh thread gets a fresh ring with the just-set capacity.
  std::thread recorder([] {
    for (int i = 0; i < 1000; ++i) {
      obs::trace_instant("wrap", 1, static_cast<std::uint64_t>(i));
    }
  });
  recorder.join();
  const obs::TraceStats after = obs::trace_stats();
  EXPECT_EQ(after.recorded - before.recorded, 1000u);
  EXPECT_EQ(after.dropped - before.dropped, 1000u - 64u);
  EXPECT_EQ(after.retained - before.retained, 64u);

  // The ring keeps the most recent events: every surviving "wrap" arg is
  // from the tail of the sequence.
  const std::string json = obs::trace_chrome_json();
  ASSERT_TRUE(json_well_formed(json));
  std::size_t pos = 0;
  int survivors = 0;
  while ((pos = json.find("\"wrap\"", pos)) != std::string::npos) {
    const std::size_t vpos = json.find("\"v\":", pos);
    ASSERT_NE(vpos, std::string::npos);
    const long v = std::strtol(json.c_str() + vpos + 4, nullptr, 10);
    EXPECT_GE(v, 1000 - 64);
    ++survivors;
    pos = vpos;
  }
  EXPECT_EQ(survivors, 64);
  obs::trace_set_enabled(false);
  obs::trace_set_ring_capacity(0);  // restore default for later tests
  obs::trace_clear();
}

TEST(Obs, TraceCrossThreadOrderingAndAsyncPair) {
  obs::trace_clear();
  obs::trace_set_enabled(true);
  // Sequenced threads: every event of the begin thread strictly precedes
  // every event of the end thread on the steady clock, so the sorted
  // export must put the async 'b' before the matching 'e'.
  std::thread begin_thread([] {
    obs::trace_set_thread_name("begin_thread");
    obs::trace_async_begin("commit", 0x2a, 5);
  });
  begin_thread.join();
  std::thread end_thread([] {
    obs::trace_set_thread_name("end_thread");
    obs::trace_async_end("commit", 0x2a, 5);
  });
  end_thread.join();

  const std::string json = obs::trace_chrome_json();
  ASSERT_TRUE(json_well_formed(json)) << json;
  const std::size_t b = json.find("\"ph\":\"b\"");
  const std::size_t e = json.find("\"ph\":\"e\"");
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(e, std::string::npos);
  EXPECT_LT(b, e);
  // Both carry the async id that matches them into one cross-thread span.
  EXPECT_NE(json.find("\"id\":\"0x2a\""), std::string::npos);
  EXPECT_NE(json.rfind("\"id\":\"0x2a\""), json.find("\"id\":\"0x2a\""));
  // Thread-name metadata for both rings.
  EXPECT_NE(json.find("begin_thread"), std::string::npos);
  EXPECT_NE(json.find("end_thread"), std::string::npos);
  obs::trace_set_enabled(false);
  obs::trace_clear();
}

TEST(Obs, TraceDisabledRecordsNothing) {
  obs::trace_clear();
  obs::trace_set_enabled(false);
  const obs::TraceStats before = obs::trace_stats();
  obs::trace_instant("nope", 1, 1);
  obs::trace_async_begin("nope", 2, 2);
  {
    obs::TraceSpan span("nope", 3, 3);
  }
  const obs::TraceStats after = obs::trace_stats();
  EXPECT_EQ(after.recorded, before.recorded);
}

// Golden sequence: a deterministic set of events exports in timestamp
// order with the exact phases Chrome/Perfetto expect.
TEST(Obs, TraceGoldenExportSequence) {
  obs::trace_clear();
  obs::trace_set_enabled(true);
  std::thread recorder([] {
    obs::trace_set_thread_name("golden");
    {
      obs::TraceSpan span("apply", 9, 100);
    }
    obs::trace_instant("ack", 9, 1);
    obs::trace_async_begin("commit", 9, 1);
    obs::trace_async_end("commit", 9, 1);
  });
  recorder.join();

  const std::string json = obs::trace_chrome_json();
  ASSERT_TRUE(json_well_formed(json)) << json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;

  // Extract the (phase, name) sequence, skipping metadata events.
  std::vector<std::pair<char, std::string>> seq;
  std::size_t pos = 0;
  while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
    const char ph = json[pos + 6];
    // The event's name precedes its phase within the same object.
    const std::size_t npos_ = json.rfind("\"name\":\"", pos);
    ASSERT_NE(npos_, std::string::npos);
    const std::size_t nstart = npos_ + 8;
    const std::size_t nend = json.find('"', nstart);
    if (ph != 'M') seq.emplace_back(ph, json.substr(nstart, nend - nstart));
    pos += 6;
  }
  const std::vector<std::pair<char, std::string>> golden = {
      {'X', "apply"}, {'i', "ack"}, {'b', "commit"}, {'e', "commit"}};
  EXPECT_EQ(seq, golden) << json;
  // The complete span carries a duration; instants carry scope "t".
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  obs::trace_set_enabled(false);
  obs::trace_clear();
}

TEST(Obs, SamplerLifecycleAndOnDemandDump) {
  const std::string path = temp_path("cpkc_obs_sampler_test.jsonl");
  std::filesystem::remove(path);

  obs::MetricsRegistry registry;
  obs::Counter ticks;
  obs::MetricsGroup group(&registry, "t.");
  group.collect(
      [&](obs::MetricsSink& sink) { sink.counter("ticks", ticks); });

  std::uint64_t samples = 0;
  {
    obs::SamplerOptions opts;
    opts.path = path;
    opts.interval_ms = 20;
    opts.registry = &registry;
    obs::StatsSampler sampler(std::move(opts));
    EXPECT_TRUE(sampler.running());
    ticks.add(5);
    sampler.request_sample();  // off-schedule dump (the SIGUSR1 hook)
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    sampler.stop();
    EXPECT_FALSE(sampler.running());
    EXPECT_GE(sampler.samples(), 2u);  // ticks + on-demand + final
    samples = sampler.samples();
    sampler.stop();  // idempotent
  }

  // Every emitted line is one well-formed JSON object with a timestamp.
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_TRUE(json_well_formed(line)) << line;
    EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos);
    EXPECT_NE(line.find("\"t.ticks\":"), std::string::npos);
    ++lines;
  }
  EXPECT_GE(lines, 2u);
  EXPECT_EQ(lines, samples);  // one line per sample
  std::filesystem::remove(path);
}

TEST(Obs, TracedReplicatedRunCrossesThreadsAndSamples) {
  // The flight recorder end to end: a 1x1 ShardGroup with a WAL, traced
  // while it takes a few hundred writes. Some LSN's events must span >= 3
  // threads (apply -> WAL flusher -> replica apply), and a StatsSampler
  // over the group's metrics must write timestamped samples.
#ifdef CPKC_TRACE_DISABLED
  GTEST_SKIP() << "built with CPKC_TRACE=OFF: no pipeline trace sites";
#endif
  const std::filesystem::path dir =
      temp_path("cpkc_obs_traced_run_") + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string trace_file = (dir / "trace.json").string();
  const std::string series_file = (dir / "series.jsonl").string();

  obs::trace_clear();
  obs::trace_set_enabled(true);
  {
    obs::MetricsRegistry registry;
    cluster::ClusterConfig cfg;
    cfg.partitions = 1;
    cfg.replicas = 1;
    cfg.base.num_vertices = 500;
    cfg.base.wal_path = (dir / "group.wal").string();
    cfg.base.metrics = &registry;
    cluster::ShardGroup group(cfg);
    obs::SamplerOptions opts;
    opts.path = series_file;
    opts.interval_ms = 20;
    opts.registry = &registry;
    obs::StatsSampler sampler(std::move(opts));
    for (const Edge& e : gen::erdos_renyi(500, 300, 3)) {
      group.submit({e, UpdateKind::kInsert});
    }
    group.quiesce();
    sampler.stop();
    group.shutdown();
  }
  obs::trace_set_enabled(false);
  ASSERT_TRUE(obs::trace_write_chrome_json(trace_file));
  obs::trace_clear();

  std::ifstream trace_in(trace_file);
  const std::string json((std::istreambuf_iterator<char>(trace_in)),
                         std::istreambuf_iterator<char>());
  ASSERT_TRUE(json_well_formed(json));
  // Each event is {..."tid":T,...,"args":{"lsn":L,...}}; thread-name
  // metadata has no lsn before its closing "}}".
  std::map<std::uint64_t, std::set<std::uint64_t>> tids_by_lsn;
  for (std::size_t pos = json.find("\"tid\":"); pos != std::string::npos;
       pos = json.find("\"tid\":", pos + 1)) {
    const std::uint64_t tid = std::strtoull(json.c_str() + pos + 6, nullptr, 10);
    const std::size_t end = json.find("}}", pos);
    const std::size_t lsn_pos = json.find("\"lsn\":", pos);
    if (lsn_pos == std::string::npos || lsn_pos > end) continue;
    const std::uint64_t lsn =
        std::strtoull(json.c_str() + lsn_pos + 6, nullptr, 10);
    if (lsn != 0) tids_by_lsn[lsn].insert(tid);
  }
  std::size_t widest = 0;
  for (const auto& [lsn, tids] : tids_by_lsn) {
    widest = std::max(widest, tids.size());
  }
  EXPECT_GE(widest, 3u) << "no LSN's events cross 3 threads";

  std::ifstream series_in(series_file);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(series_in, line)) {
    EXPECT_TRUE(json_well_formed(line)) << line;
    if (line.find("\"ts_ms\":") != std::string::npos) ++samples;
  }
  EXPECT_GE(samples, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Obs, SamplerThrowsOnUnopenablePath) {
  obs::SamplerOptions opts;
  opts.path = "/nonexistent_dir_cpkc_obs/file.jsonl";
  EXPECT_THROW(obs::StatsSampler sampler(std::move(opts)),
               std::runtime_error);
}

}  // namespace
