// Shared plumbing for the figure/table bench binaries: environment knobs,
// default thread counts, and experiment shorthand.
//
// Environment variables:
//   CPKC_SCALE    dataset size multiplier (default 1.0)
//   CPKC_READERS  reader thread count     (default min(8, cores/3), >= 1)
//   CPKC_WRITERS  scheduler worker count  (default min(8, cores/3), >= 1)
//   CPKC_BATCH    update batch size       (default 50000)
//   CPKC_BATCHES  measured batches/run    (default 4)
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "harness/driver.hpp"
#include "harness/report.hpp"

namespace cpkcore::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long long parsed = std::strtoll(v, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

inline std::size_t default_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min<std::size_t>(8, hc / 3));
}

inline std::size_t reader_threads() {
  return env_size("CPKC_READERS", default_threads());
}

inline std::size_t writer_workers() {
  return env_size("CPKC_WRITERS", default_threads());
}

inline std::size_t batch_size() { return env_size("CPKC_BATCH", 50000); }

inline std::size_t max_batches() { return env_size("CPKC_BATCHES", 4); }

/// Levels-per-group cap (CPKC_OPT, default 20 — the paper runs its entire
/// evaluation with the original PLDS code's "-opt 20"; 0 = theoretical
/// level geometry).
inline int opt_cap() {
  if (const char* v = std::getenv("CPKC_OPT")) {
    return static_cast<int>(std::strtol(v, nullptr, 10));
  }
  return 20;
}

/// Builds a standard spec for one dataset/kind/mode cell.
inline harness::ExperimentSpec standard_spec(const std::string& dataset,
                                             UpdateKind kind, ReadMode mode) {
  harness::ExperimentSpec spec;
  spec.dataset = dataset;
  spec.kind = kind;
  spec.batch_size = batch_size();
  spec.max_batches = max_batches();
  spec.writer_workers = writer_workers();
  spec.workload.mode = mode;
  spec.workload.reader_threads = reader_threads();
  spec.workload.seed = 7;
  spec.levels_per_group_cap = opt_cap();
  // Descriptor/DAG maintenance is needed only by the Algorithm 4 read
  // path; the wait-free view read (kCplds) and the baselines run the
  // original PLDS update path.
  spec.cplds_options.track_dependencies = (mode == ReadMode::kCpldsDag);
  return spec;
}

inline const char* kind_name(UpdateKind kind) {
  return kind == UpdateKind::kInsert ? "insertions" : "deletions";
}

/// Number of trials per cell (CPKC_TRIALS, default 1; the paper uses 11).
inline std::size_t num_trials() { return env_size("CPKC_TRIALS", 1); }

/// One field of a machine-readable result record: string, integer, or
/// floating-point value.
using JsonValue = std::variant<std::string, std::int64_t, double>;
using JsonField = std::pair<std::string, JsonValue>;

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Emits one result to stdout as a single JSON object line (JSON-lines
/// format), so perf trajectories can be diffed without parsing text tables.
inline void emit_json_line(const std::vector<JsonField>& fields) {
  std::string line = "{";
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) line += ",";
    first = false;
    line += "\"" + json_escape(key) + "\":";
    if (const auto* s = std::get_if<std::string>(&value)) {
      line += "\"" + json_escape(*s) + "\"";
    } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
      line += std::to_string(*i);
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", std::get<double>(value));
      line += buf;
    }
  }
  line += "}";
  std::cout << line << "\n";
}

/// Runs `spec` num_trials() times with varied seeds and merges the results
/// (latencies pooled, batch times concatenated, reads/edges summed).
inline harness::ExperimentOutput run_trials(harness::ExperimentSpec spec) {
  harness::ExperimentOutput merged;
  const std::size_t trials = num_trials();
  for (std::size_t t = 0; t < trials; ++t) {
    spec.workload.seed = 7 + t;
    auto out = harness::run_experiment(spec);
    if (t == 0) {
      merged = std::move(out);
    } else {
      merged.result.latency.merge(out.result.latency);
      merged.result.total_reads += out.result.total_reads;
      merged.result.total_applied_edges += out.result.total_applied_edges;
      merged.result.batch_seconds.insert(merged.result.batch_seconds.end(),
                                         out.result.batch_seconds.begin(),
                                         out.result.batch_seconds.end());
      merged.last_stats = out.last_stats;
    }
  }
  return merged;
}

}  // namespace cpkcore::bench
