// Figure 3: average, median, 99th-percentile, and 99.99th-percentile read
// latency under batches of insertions and deletions, for CPLDS (wait-free
// view read) vs CPLDS-DAG (Algorithm 4) vs SyncReads vs NonSync (the live
// level, unsynchronized) across all datasets.
//
// Paper's headline: CPLDS cuts read latency by up to five orders of
// magnitude vs SyncReads (whose reads wait out the batch) while staying
// within a small constant factor of NonSync.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace cpkcore;
  using namespace cpkcore::bench;
  std::printf(
      "Figure 3: read latency (secs) under update batches "
      "(scale=%.2f, batch=%zu, %zu reader / %zu writer threads)\n\n",
      harness::scale_factor(), batch_size(), reader_threads(),
      writer_workers());

  for (UpdateKind kind : {UpdateKind::kInsert, UpdateKind::kDelete}) {
    std::printf("-- %s --\n", kind_name(kind));
    harness::Table table({"Graph", "Algorithm", "Avg", "p50", "p99", "p99.99",
                          "Max", "Reads"});
    for (const auto& name : harness::dataset_names()) {
      for (ReadMode mode :
           {ReadMode::kCplds, ReadMode::kCpldsDag, ReadMode::kSyncReads,
            ReadMode::kNonSync}) {
        auto spec = standard_spec(name, kind, mode);
        auto out = run_trials(spec);
        const auto& lat = out.result.latency;
        table.add_row({name, std::string(to_string(mode)),
                       harness::fmt_seconds(lat.mean_ns() * 1e-9),
                       harness::fmt_seconds(
                           static_cast<double>(lat.p50_ns()) * 1e-9),
                       harness::fmt_seconds(
                           static_cast<double>(lat.p99_ns()) * 1e-9),
                       harness::fmt_seconds(
                           static_cast<double>(lat.p9999_ns()) * 1e-9),
                       harness::fmt_seconds(
                           static_cast<double>(lat.max_ns()) * 1e-9),
                       harness::fmt_si(
                           static_cast<double>(out.result.total_reads))});
      }
    }
    table.print();
    std::printf("\n");
  }
  return 0;
}
