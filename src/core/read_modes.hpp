// The read strategies evaluated in the paper (§7, "Evaluated Algorithms")
// plus the descriptor-path ablation mode, dispatched uniformly for the
// workload harness.
#pragma once

#include <string_view>

#include "core/cplds.hpp"

namespace cpkcore {

enum class ReadMode {
  kCplds,     ///< this paper: wait-free linearizable reads (published view)
  kCpldsDag,  ///< Algorithm 4 descriptor/DAG double-collect (ablations)
  kSyncReads, ///< baseline: reads wait for the current batch to finish
  kNonSync,   ///< baseline: unsynchronized live level (not linearizable)
};

[[nodiscard]] std::string_view to_string(ReadMode mode);

/// Parses "cplds" / "dag" ("cplds-dag") / "sync" / "nonsync"; throws
/// std::invalid_argument.
[[nodiscard]] ReadMode parse_read_mode(std::string_view name);

/// Performs one coreness read with the given strategy.
[[nodiscard]] double read_with_mode(const CPLDS& ds, vertex_t v,
                                    ReadMode mode);

/// Level-returning variant (same synchronization per mode).
[[nodiscard]] level_t read_level_with_mode(const CPLDS& ds, vertex_t v,
                                           ReadMode mode);

}  // namespace cpkcore
