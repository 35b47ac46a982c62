// google-benchmark micro suite: the hot primitives under the CPLDS — read
// path (quiescent and descriptor-marked), a routed fan-out read, union-find
// operations, descriptor words, latency histogram recording, and the
// parallel runtime (fork2 / parallel_for overhead, nested vs flat loops,
// worker scaling).
//
// After the google-benchmark run, main() executes a scheduler-overhead
// sweep and prints machine-readable JSON lines to stdout (see
// bench_common.hpp's emit_json_line); redirect stdout to keep them.
#include <benchmark/benchmark.h>

#include <functional>

#include "bench_common.hpp"
#include "cluster/router.hpp"
#include "cluster/shard_group.hpp"
#include "concurrent/descriptor_table.hpp"
#include "concurrent/union_find.hpp"
#include "core/cplds.hpp"
#include "graph/generators.hpp"
#include "parallel/primitives.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sort.hpp"
#include "util/latency_histogram.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace cpkcore;

void BM_ReadCorenessQuiescent(benchmark::State& state) {
  static CPLDS* ds = [] {
    auto* d = new CPLDS(10000, LDSParams::create(10000));
    d->insert_batch(gen::barabasi_albert(10000, 6, 1));
    return d;
  }();
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ds->read_coreness(static_cast<vertex_t>(rng.next_below(10000))));
  }
}
BENCHMARK(BM_ReadCorenessQuiescent);

void BM_ReadCorenessNonSync(benchmark::State& state) {
  static CPLDS* ds = [] {
    auto* d = new CPLDS(10000, LDSParams::create(10000));
    d->insert_batch(gen::barabasi_albert(10000, 6, 1));
    return d;
  }();
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds->read_coreness_nonsync(
        static_cast<vertex_t>(rng.next_below(10000))));
  }
}
BENCHMARK(BM_ReadCorenessNonSync);

// A session read through the Router over a quiescent 2 partitions x 1
// replica ShardGroup: the router's own per-read cost on top of two view
// reads, outside any end-to-end benchmark.
void BM_RouterFanOutRead(benchmark::State& state) {
  constexpr vertex_t kN = 2000;
  cluster::ClusterConfig cfg;
  cfg.partitions = 2;
  cfg.replicas = 1;
  cfg.base.num_vertices = kN;
  cluster::ShardGroup group(cfg);
  for (const Edge& e : gen::barabasi_albert(kN, 4, 1)) {
    group.submit({e, UpdateKind::kInsert});
  }
  group.quiesce();
  cluster::Router router(group);
  const auto session = router.make_session();
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.read_coreness(
        *session, static_cast<vertex_t>(rng.next_below(kN))));
  }
  group.shutdown();
}
BENCHMARK(BM_RouterFanOutRead);

void BM_UnionFindFind(benchmark::State& state) {
  ConcurrentUnionFind uf(100000);
  Xoshiro256 rng(2);
  for (int i = 0; i < 80000; ++i) {
    uf.unite(static_cast<vertex_t>(rng.next_below(100000)),
             static_cast<vertex_t>(rng.next_below(100000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        uf.find(static_cast<vertex_t>(rng.next_below(100000))));
  }
}
BENCHMARK(BM_UnionFindFind);

void BM_UnionFindUnite(benchmark::State& state) {
  Xoshiro256 rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    ConcurrentUnionFind uf(4096);
    state.ResumeTiming();
    for (int i = 0; i < 4096; ++i) {
      uf.unite(static_cast<vertex_t>(rng.next_below(4096)),
               static_cast<vertex_t>(rng.next_below(4096)));
    }
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_UnionFindUnite);

void BM_DescriptorMarkUnmark(benchmark::State& state) {
  DescriptorTable desc(1024);
  vertex_t v = 0;
  for (auto _ : state) {
    desc.mark(v, 7, 1);
    desc.unmark(v);
    v = (v + 1) & 1023;
  }
}
BENCHMARK(BM_DescriptorMarkUnmark);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram hist;
  Xoshiro256 rng(4);
  for (auto _ : state) {
    hist.record(rng.next_below(1 << 20));
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_ParallelFor(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    parallel_for(0, n, [&](std::size_t i) { out[i] = i * 2654435761u; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_ParallelFor)->Arg(1 << 12)->Arg(1 << 18)->Arg(1 << 22);

void BM_ParallelSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(5);
  std::vector<std::uint64_t> base(n);
  for (auto& b : base) b = rng.next();
  for (auto _ : state) {
    state.PauseTiming();
    auto data = base;
    state.ResumeTiming();
    parallel_sort(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_ParallelSort)->Arg(1 << 16)->Arg(1 << 20);

void BM_Fork2Overhead(benchmark::State& state) {
  // Cost of one fork/join pair with trivial branches — the unit overhead
  // every split in parallel_for / the primitives pays.
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  for (auto _ : state) {
    fork2([&] { ++a; }, [&] { ++b; });
  }
  benchmark::DoNotOptimize(a + b);
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_Fork2Overhead);

void BM_ParallelForNested(benchmark::State& state) {
  // Same total work as BM_ParallelFor but issued as 64 inner loops nested
  // under an outer parallel_for. Under the chunk-queue scheduler the inner
  // loops collapsed to serial; under work stealing they spread.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t outer = 64;
  const std::size_t inner = n / outer;
  std::vector<std::uint64_t> out(outer * inner);
  for (auto _ : state) {
    parallel_for(
        0, outer,
        [&](std::size_t i) {
          parallel_for(0, inner, [&](std::size_t j) {
            out[i * inner + j] = (i * inner + j) * 2654435761u;
          });
        },
        /*grain=*/1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(outer * inner));
}
BENCHMARK(BM_ParallelForNested)->Arg(1 << 18)->Arg(1 << 22);

void BM_NestedScalingWorkers(benchmark::State& state) {
  // Nested throughput as a function of scheduler width; compare against
  // the Arg to see whether nesting scales instead of flat-lining.
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  const std::size_t prev = num_workers();
  Scheduler::instance().set_num_workers(workers);
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = (1 << 21) / kOuter;
  std::vector<std::uint64_t> out(kOuter * kInner);
  for (auto _ : state) {
    parallel_for(
        0, kOuter,
        [&](std::size_t i) {
          parallel_for(0, kInner, [&](std::size_t j) {
            out[i * kInner + j] = (i * kInner + j) * 0x9E3779B97F4A7C15ULL;
          });
        },
        /*grain=*/1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kOuter * kInner));
  Scheduler::instance().set_num_workers(prev);
}
BENCHMARK(BM_NestedScalingWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

void BM_InsertBatch(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  auto edges = gen::barabasi_albert(20000, 6, 6);
  for (auto _ : state) {
    state.PauseTiming();
    CPLDS ds(20000, LDSParams::create(20000));
    std::vector<Edge> slice(
        edges.begin(),
        edges.begin() + static_cast<std::ptrdiff_t>(
                            std::min(batch, edges.size())));
    state.ResumeTiming();
    ds.insert_batch(std::move(slice));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(batch));
}
BENCHMARK(BM_InsertBatch)->Arg(1 << 10)->Arg(1 << 14)->Unit(
    benchmark::kMillisecond);

// Self-timed scheduler-overhead sweep, emitted as JSON lines: flat loop,
// nested loop, and fork2 reduction tree at several scheduler widths.
void run_scheduler_sweep() {
  constexpr std::size_t kN = 1 << 22;
  constexpr std::size_t kOuter = 64;
  std::vector<std::uint64_t> out(kN);

  auto flat = [&] {
    parallel_for(0, kN, [&](std::size_t i) { out[i] = i * 2654435761u; });
  };
  auto nested = [&] {
    parallel_for(
        0, kOuter,
        [&](std::size_t i) {
          const std::size_t inner = kN / kOuter;
          parallel_for(0, inner, [&](std::size_t j) {
            out[i * inner + j] = (i * inner + j) * 2654435761u;
          });
        },
        /*grain=*/1);
  };
  struct TreeSum {
    std::vector<std::uint64_t>& out;
    std::uint64_t operator()(std::size_t lo, std::size_t hi) const {
      if (hi - lo <= 4096) {
        std::uint64_t acc = 0;
        for (std::size_t i = lo; i < hi; ++i) acc += out[i] = i * 31;
        return acc;
      }
      const std::size_t mid = lo + (hi - lo) / 2;
      std::uint64_t l = 0;
      std::uint64_t r = 0;
      fork2([&] { l = (*this)(lo, mid); }, [&] { r = (*this)(mid, hi); });
      return l + r;
    }
  };
  auto tree = [&] { benchmark::DoNotOptimize(TreeSum{out}(0, kN)); };

  struct Shape {
    const char* name;
    std::function<void()> body;
  };
  const Shape shapes[] = {{"flat", flat}, {"nested", nested}, {"fork2_tree", tree}};

  const std::size_t prev = num_workers();
  std::vector<std::size_t> widths = {1, 2, 4, 8};
  const std::size_t hc = std::thread::hardware_concurrency();
  if (hc > 8) widths.push_back(hc);
  for (const auto& shape : shapes) {
    for (std::size_t w : widths) {
      Scheduler::instance().set_num_workers(w);
      shape.body();  // warm-up
      double best = 1e100;
      for (int rep = 0; rep < 3; ++rep) {
        Timer t;
        shape.body();
        best = std::min(best, t.elapsed_s());
      }
      bench::emit_json_line(
          {{"bench", std::string("sched_overhead")},
           {"shape", std::string(shape.name)},
           {"workers", static_cast<std::int64_t>(w)},
           {"n", static_cast<std::int64_t>(kN)},
           {"seconds", best},
           {"mitems_per_s", static_cast<double>(kN) / best / 1e6}});
    }
  }
  Scheduler::instance().set_num_workers(prev);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_scheduler_sweep();
  return 0;
}
