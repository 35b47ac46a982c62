// Update-batch preprocessing, mirroring the paper's model (§2): batches
// contain a single operation kind; mixed streams are split into insertion
// and deletion sub-batches. Also provides stream builders that slice an edge
// list into a reproducible sequence of batches for the experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace cpkcore {

/// One homogeneous batch.
struct UpdateBatch {
  UpdateKind kind = UpdateKind::kInsert;
  std::vector<Edge> edges;
};

/// Splits a mixed update stream into homogeneous sub-batches, preserving
/// relative order of kinds (run-length segmentation: consecutive updates of
/// the same kind form one sub-batch).
std::vector<UpdateBatch> split_batches(const std::vector<Update>& updates);

/// In-place normalization of one homogeneous batch's edge list for the
/// serving layer's coalescer/WAL: endpoints canonicalized, self-loops
/// dropped, sorted, deduplicated. (The PLDS normalizes its batches itself,
/// with the same result.)
void normalize_edges(std::vector<Edge>& edges);

/// Shuffles `edges` deterministically and slices them into insertion batches
/// of `batch_size` (the last batch may be smaller).
std::vector<UpdateBatch> insertion_stream(std::vector<Edge> edges,
                                          std::size_t batch_size,
                                          std::uint64_t seed);

/// Deletion stream over the same edges (reverse order of the shuffled
/// insertion stream, so prefixes remain consistent).
std::vector<UpdateBatch> deletion_stream(std::vector<Edge> edges,
                                         std::size_t batch_size,
                                         std::uint64_t seed);

/// Sliding-window stream: first `window` edges are inserted, then each batch
/// inserts `batch_size` new edges and deletes the `batch_size` oldest,
/// alternating delete/insert sub-batches.
std::vector<UpdateBatch> sliding_window_stream(std::vector<Edge> edges,
                                               std::size_t window,
                                               std::size_t batch_size,
                                               std::uint64_t seed);

}  // namespace cpkcore
