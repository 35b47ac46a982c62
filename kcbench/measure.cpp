#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

namespace kcbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ExactHist::quantile(double q) const {
  if (count_ == 0) return 0;
  // Rank (0-based, fractional) of the wanted sample.
  const double rank = q * static_cast<double>(count_);
  double seen = 0;
  for (std::uint64_t v = 0; v < kCap; ++v) {
    const double c = counts_[v];
    if (c > 0 && seen + c > rank) {
      return static_cast<double>(v) + (rank - seen) / c;
    }
    seen += c;
  }
  std::vector<std::uint64_t> over = over_;
  std::sort(over.begin(), over.end());
  const auto i = std::min<std::size_t>(
      over.size() - 1, static_cast<std::size_t>(rank - seen));
  return static_cast<double>(over[i]);
}

// ---------------------------------------------------------------- spans

std::uint64_t SpanLog::Buffer::add(Name name, std::uint64_t parent,
                                   std::uint64_t req, std::uint64_t start_ns,
                                   std::uint64_t end_ns) {
  const std::uint64_t id = reserve_id();
  add_with_id(id, name, parent, req, start_ns, end_ns);
  return id;
}

void SpanLog::Buffer::add_with_id(std::uint64_t id, Name name,
                                  std::uint64_t parent, std::uint64_t req,
                                  std::uint64_t start_ns,
                                  std::uint64_t end_ns) {
  spans_.push_back(Span{id, parent, req, start_ns, end_ns, name, thread_});
}

SpanLog::Buffer& SpanLog::buffer() {
  std::lock_guard lock(mu_);
  auto b = std::make_unique<Buffer>();
  b->log_ = this;
  b->thread_ = static_cast<std::uint32_t>(buffers_.size());
  buffers_.push_back(std::move(b));
  return *buffers_.back();
}

std::size_t SpanLog::size() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans_.size();
  return n;
}

std::vector<double> SpanLog::self_p50_us() const {
  std::lock_guard lock(mu_);
  std::vector<const Span*> all;
  for (const auto& b : buffers_) {
    for (const auto& s : b->spans_) all.push_back(&s);
  }
  // Children of each parent, to subtract the covered part of its interval.
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span* s : all) {
    if (s->parent != 0) children[s->parent].push_back(s);
  }
  std::vector<std::vector<double>> self(kNumNames);
  for (const Span* s : all) {
    std::uint64_t covered = 0;
    auto it = children.find(s->id);
    if (it != children.end()) {
      // Union of the children's intervals clipped to the parent's.
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const Span* c : it->second) {
        const std::uint64_t a = std::max(c->start_ns, s->start_ns);
        const std::uint64_t b = std::min(c->end_ns, s->end_ns);
        if (a < b) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_a = 0, cur_b = 0;
      for (const auto& [a, b] : iv) {
        if (a > cur_b) {
          covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      covered += cur_b - cur_a;
    }
    const std::uint64_t dur = s->end_ns - s->start_ns;
    self[s->name].push_back(static_cast<double>(dur - covered) * 1e-3);
  }
  std::vector<double> out(kNumNames);
  for (std::size_t i = 0; i < kNumNames; ++i) out[i] = median(self[i]);
  return out;
}

void SpanLog::write(const std::string& path,
                    const std::string& stats_json) const {
  std::lock_guard lock(mu_);
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "kcbench: cannot write %s\n", path.c_str());
    return;
  }
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const auto& b : buffers_) {
    for (const auto& s : b->spans_) t0 = std::min(t0, s.start_ns);
  }
  f << "{\"traceEvents\":[";
  bool first = true;
  char buf[320];
  for (const auto& b : buffers_) {
    for (const auto& s : b->spans_) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"req\":%llu}}",
                    first ? "" : ",\n", kNames[s.name], s.thread,
                    static_cast<double>(s.start_ns - t0) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.req));
      f << buf;
      first = false;
    }
  }
  f << "],\n\"stats_delta\":" << stats_json << "}\n";
}

double read_p50_ns(const std::vector<ReaderSamples>& rounds) {
  double sum = 0;
  std::size_t n = 0;
  for (const auto& r : rounds) {
    for (const double w : r.window_p50_ns) sum += w;
    n += r.window_p50_ns.size();
  }
  return n ? sum / static_cast<double>(n) : 0;
}

double read_p999_ns(const std::vector<ReaderSamples>& rounds) {
  std::vector<double> per_round;
  for (const auto& r : rounds) {
    if (r.single_ns.count() > 0) per_round.push_back(r.single_ns.quantile(0.999));
  }
  return median(std::move(per_round));
}

std::uint64_t total_reads(const std::vector<ReaderSamples>& rounds) {
  std::uint64_t n = 0;
  for (const auto& r : rounds) n += r.reads;
  return n;
}

namespace {

std::vector<int> allowed_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> out;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    std::fprintf(stderr, "kcbench: sched_setaffinity failed; not pinned\n");
  }
}

}  // namespace

void pin_main_thread() {
  const auto cpus = allowed_cpus();
  if (cpus.size() >= 2) pin_to({cpus.begin() + 1, cpus.end()});
}

IdleSpinners::IdleSpinners() {
  const auto cpus = allowed_cpus();
  for (std::size_t i = 1; i < cpus.size(); ++i) {
    threads_.emplace_back([this, cpu = cpus[i]] {
      pin_to({cpu});
      sched_param param{};
      if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) {
        std::fprintf(stderr, "kcbench: SCHED_IDLE refused; not spinning\n");
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (auto& t : threads_) t.join();
}

void pin_reader_thread() {
  const auto cpus = allowed_cpus();
  if (cpus.size() >= 2) pin_to({cpus.front()});
}

// ---------------------------------------------------------------- rings

std::vector<vertex_t> uniform_ring(vertex_t n, std::uint64_t seed) {
  cpkcore::Xoshiro256 rng(seed);
  std::vector<vertex_t> ring(kRing);
  for (auto& v : ring) v = static_cast<vertex_t>(rng.next_below(n));
  return ring;
}

std::vector<vertex_t> zipf_ring(vertex_t n, double s, std::uint64_t hot_seed,
                                std::uint64_t seed) {
  cpkcore::Xoshiro256 hot(hot_seed);
  cpkcore::Xoshiro256 rng(seed);
  std::vector<double> cdf(n);
  double total = 0;
  for (vertex_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  // Rank r maps to a random vertex, so hot vertices are spread over the id
  // space rather than being the generator's oldest (highest-degree) ones.
  std::vector<vertex_t> perm(n);
  std::iota(perm.begin(), perm.end(), vertex_t{0});
  for (vertex_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[hot.next_below(i)]);
  }
  std::vector<vertex_t> ring(kRing);
  for (auto& v : ring) {
    const double x = rng.next_double() * total;
    const auto r = static_cast<vertex_t>(
        std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
    v = perm[std::min<vertex_t>(r, n - 1)];
  }
  return ring;
}

// ---------------------------------------------------------------- report

void ErrorStats::add(double estimate, double exact) {
  const double k = std::max(exact, 1.0);
  const double e = std::max(estimate / k, k / estimate);
  sum += e;
  max = std::max(max, e);
  ++count;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::gate(const std::string& name, bool ok,
                  const std::string& detail) {
  std::fprintf(stderr, "kcbench: gate %-14s %s  %s\n", name.c_str(),
               ok ? "ok  " : "FAIL", detail.c_str());
  if (!ok) failed_gates_.push_back(name);
}

void Report::describe(const std::string& key, const std::string& json_value) {
  descriptor_.emplace_back(key, json_value);
}

void Report::describe(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  descriptor_.emplace_back(key, buf);
}

void Report::describe_str(const std::string& key, const std::string& value) {
  descriptor_.emplace_back(key, "\"" + value + "\"");
}

int Report::finish() {
  gate("failed_ops", failed == 0,
       std::to_string(failed) + " of " + std::to_string(attempted) +
           " attempted ops failed or were refused");
  std::ostringstream d;
  d << "{\"descriptor\":{";
  for (std::size_t i = 0; i < descriptor_.size(); ++i) {
    d << (i ? "," : "") << "\"" << descriptor_[i].first
      << "\":" << descriptor_[i].second;
  }
  d << "}}";
  std::printf("%s\n", d.str().c_str());

  const bool correct = failed_gates_.empty();
  std::ostringstream r;
  r << "{\"correct\":" << (correct ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed
    << ",\"metrics\":{";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    r << (i ? "," : "") << "\"" << name << "\":{\"value\":" << buf
      << ",\"unit\":\"" << vu.second << "\"}";
  }
  r << "}}";
  std::printf("%s\n", r.str().c_str());
  std::fflush(stdout);
  if (!correct) {
    std::string names;
    for (const auto& g : failed_gates_) names += " " + g;
    std::fprintf(stderr, "kcbench: correctness gates failed:%s\n",
                 names.c_str());
  }
  return correct ? 0 : 1;
}

void emit(Report& r, const EndToEnd& m) {
  r.metric("setup_s", m.setup_s, "s");
  r.metric("peak_rss_mb", m.peak_rss_mb, "MB");
  r.metric("read_p50_ns", m.read_p50_ns, "ns");
  r.metric("read_p999_ns", m.read_p999_ns, "ns");
  r.metric("ack_p50_us", m.ack_p50_us, "us");
  r.metric("ack_p99_us", m.ack_p99_us, "us");
  r.metric("acked_ops_per_s", m.acked_ops_per_s, "1/s");
  r.metric("update_edges_per_s", m.update_edges_per_s, "1/s");
  r.metric("coreness_err_avg", m.coreness_err_avg, "ratio");
  r.metric("coreness_err_max", m.coreness_err_max, "ratio");
}

void emit(Report& r, const PerLayer& m) {
  r.metric("bench.trace_overhead_pct", m.trace_overhead_pct, "%");
  r.metric("service.batches_per_cycle", m.batches_per_cycle, "ratio");
  r.metric("service.ops_per_cycle", m.ops_per_cycle, "ratio");
  r.metric("service.applied_edge_ratio", m.applied_edge_ratio, "ratio");
  r.metric("service.apply_p50_us", m.apply_p50_us, "us");
  r.metric("service.apply_p99_us", m.apply_p99_us, "us");
  r.metric("service.apply_busy_frac", m.apply_busy_frac, "ratio");
  r.metric("service.durable_lag_p99_us", m.durable_lag_p99_us, "us");
  r.metric("service.wal_bytes_per_op", m.wal_bytes_per_op, "B/op");
  r.metric("service.wal_flushes_per_cycle", m.wal_flushes_per_cycle,
           "ratio");
  r.metric("core.insert_batch_p50_ms", m.insert_batch_p50_ms, "ms");
  r.metric("core.delete_batch_p50_ms", m.delete_batch_p50_ms, "ms");
  r.metric("core.marked_vertices_per_batch", m.marked_vertices_per_batch,
           "count/batch");
  r.metric("core.view_publishes", m.view_publishes_per_batch, "count/batch");
  r.metric("parallel.spawns_per_batch", m.spawns_per_batch, "count/batch");
  r.metric("parallel.steals_per_batch", m.steals_per_batch, "count/batch");
  r.metric("concurrent.reclaim_retired", m.reclaim_retired_per_batch,
           "count/batch");
  r.metric("concurrent.reclaim_freed", m.reclaim_freed_per_batch,
           "count/batch");
  r.metric("concurrent.reclaim_limbo_peak", m.reclaim_limbo_peak, "count");
  r.metric("concurrent.reclaim_lagging_readers", m.reclaim_lagging_per_batch,
           "count/batch");
  r.metric("cluster.replica_lag_p99_records", m.replica_lag_p99_records,
           "count");
  r.metric("cluster.replica_read_share", m.replica_read_share, "ratio");
  r.metric("cluster.read_staleness_p99_lsn", m.read_staleness_p99_lsn,
           "count");
  // Root spans ("op", "read") are reported only in the trace file: their
  // self time is the benchmark's own work (scheduling lateness, building a
  // batch) or nothing at all, never a layer of the program.
  for (std::size_t i = SpanLog::kCoreApply; i < SpanLog::kNumNames; ++i) {
    r.metric(std::string("span.") + SpanLog::kNames[i] + ".self_p50_us",
             i < m.self_p50_us.size() ? m.self_p50_us[i] : 0.0, "us");
  }
}

void describe_common(Report& r, const Options& o, unsigned workers,
                     const std::string& reclaimer,
                     const std::vector<std::pair<std::string, int>>& threads,
                     double cpu_cores_used, double host_steal_pct) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  utsname u{};
  uname(&u);
  r.describe_str("workload", o.workload);
  r.describe("seed", static_cast<double>(o.seed));
  r.describe("validation_seed", static_cast<double>(kValidationSeed));
  r.describe("nproc", nproc);
  r.describe_str("kernel", std::string(u.sysname) + " " + u.release);
  r.describe("scheduler_workers", workers);
  r.describe_str("reclaimer", reclaimer);
  std::ostringstream t;
  int busy = 0;
  t << "{";
  for (std::size_t i = 0; i < threads.size(); ++i) {
    t << (i ? "," : "") << "\"" << threads[i].first
      << "\":" << threads[i].second;
    busy += threads[i].second;
  }
  t << "}";
  r.describe("thread_budget", t.str());
  r.describe("busy_threads", busy);
  r.describe("over_nproc", busy > static_cast<int>(nproc) ? "true" : "false");
  r.describe("cpu_cores_used", cpu_cores_used);
  r.describe("host_steal_pct", host_steal_pct);
  r.describe("traced", o.trace ? "true" : "false");
  if (busy > static_cast<int>(nproc)) {
    std::fprintf(stderr,
                 "kcbench: warning: %d busy threads exceed nproc %u\n", busy,
                 nproc);
  }
}

StealMeter::Sample StealMeter::read() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  Sample s;
  double v = 0;
  for (int i = 0; i < 8 && (f >> v); ++i) {
    s.total += v;
    if (i == 7) s.steal = v;
  }
  return s;
}

double StealMeter::pct() const {
  const Sample now = read();
  const double total = now.total - start_.total;
  return total > 0 ? 100.0 * (now.steal - start_.steal) / total : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double trace_overhead_pct(const std::vector<double>& per_round,
                          const Options& o) {
  std::vector<double> plain, traced;
  for (std::size_t i = 0; i < per_round.size(); ++i) {
    (traced_round(o, static_cast<int>(i)) ? traced : plain)
        .push_back(per_round[i]);
  }
  if (plain.empty() || traced.empty()) return 0;
  return (median(plain) / median(traced) - 1.0) * 100.0;
}

}  // namespace kcbench
