// CPLDS — the concurrent parallel level data structure (the paper's
// contribution, §4–§6): a PLDS whose batched updates track causal
// dependencies through operation descriptors and a dependency-DAG union-
// find, so that *asynchronous* reads of coreness estimates are linearizable
// and lock-free while batches run.
//
// Read path: the default read_coreness/read_level is *wait-free* — the
// update driver publishes an immutable LevelView per committed batch (one
// pointer swap in finish_batch) and readers pin a reclamation guard, load
// the pointer, and index it: no locks, no retries. Every read observes the
// pre-batch or post-batch levels in their entirety (the linearization point
// is the swap), which is strictly stronger than Algorithm 4's per-vertex
// guarantee. The paper's original descriptor/DAG protocol survives as
// read_coreness_dag/read_level_dag (lock-free with retries; the ablation
// benches exercise its §5.2/§5.3 optimizations). Retired views are freed
// by epoch-based reclamation: a concurrent::Reclaimer instance, chosen per
// structure through Options::reclaimer.
//
// Threading contract:
//  * Updates: one driver thread calls insert_batch/delete_batch/apply; the
//    batch executes in parallel on the global scheduler.
//  * Reads: any number of reader threads may call read_coreness /
//    read_level (wait-free view read), read_coreness_dag (Algorithm 4),
//    read_coreness_nonsync (alias of the view read since the lock-free
//    read path landed — possibly stale, never torn), or read_coreness_sync
//    (the SyncReads baseline — waits for batch quiescence under a mutex)
//    at any time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "concurrent/descriptor_table.hpp"
#include "concurrent/union_find.hpp"
#include "core/level_view.hpp"
#include "graph/batch.hpp"
#include "plds/plds.hpp"
#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace cpkcore {

namespace concurrent {
class Reclaimer;
}  // namespace concurrent

class CPLDS {
 public:
  struct Options {
    /// Maintain operation descriptors and the dependency DAG during
    /// batches. Required for linearizable read_coreness/read_level; turn
    /// off to reproduce the paper's NonSync/SyncReads baselines, whose
    /// update path is the original PLDS without descriptor maintenance.
    bool track_dependencies = true;
    /// Compress DAG parent paths during reads and unions (§5.2
    /// optimization). Off only for the ablation bench.
    bool path_compression = true;
    /// Return UNMARKED as soon as any unmarked descriptor appears on the
    /// path to the root (§5.3 optimization). Off only for the ablation.
    bool early_exit = true;
    /// Test hook: capture (vertex, DAG root) pairs of all marked vertices
    /// at the end of every batch (before unmarking).
    bool capture_dags = false;
    /// Memory reclamation behind the wait-free read path: retired
    /// LevelViews are freed through this reclaimer once no reader can hold
    /// them. Null (the default) uses concurrent::global_reclaimer(); the
    /// serving layer wires a per-service / per-replica instance that must
    /// outlive the CPLDS.
    concurrent::Reclaimer* reclaimer = nullptr;
  };

  /// Per-batch bookkeeping, readable after each batch completes.
  struct BatchStats {
    std::size_t applied_edges = 0;
    std::size_t marked_vertices = 0;
  };

  CPLDS(vertex_t num_vertices, LDSParams params, Options options);
  CPLDS(vertex_t num_vertices, LDSParams params)
      : CPLDS(num_vertices, std::move(params), Options{}) {}

  ~CPLDS();

  CPLDS(const CPLDS&) = delete;
  CPLDS& operator=(const CPLDS&) = delete;

  // ---------------- update side ----------------

  /// Applies one homogeneous batch; returns the edges actually applied.
  std::vector<Edge> insert_batch(std::vector<Edge> edges);
  std::vector<Edge> delete_batch(std::vector<Edge> edges);
  std::vector<Edge> apply(const UpdateBatch& batch);

  /// Mixed update stream (paper §2: "in practice, batches contain a mix of
  /// insertions and deletions, which are separated into insertion and
  /// deletion sub-batches during pre-processing"). Applies each homogeneous
  /// run as its own batch; returns the number of applied updates.
  std::size_t apply_mixed(const std::vector<Update>& updates);

  /// Vertex deletion (paper §2 footnote 1: batch-dynamic edge solutions
  /// extend to vertex updates): removes every edge incident to the given
  /// vertices as one deletion batch and returns those edges. The ids remain
  /// valid (vertices are isolated, coreness estimate 1); vertex insertion
  /// is simply using a so-far-isolated id in a later edge batch.
  std::vector<Edge> delete_vertices(std::span<const vertex_t> vertices);

  // ---------------- read side ----------------

  /// Wait-free linearizable coreness estimate: one guard pin, one pointer
  /// load, one page index into the latest published LevelView. Returns the
  /// estimate at either the vertex's pre-batch or post-batch level, never
  /// an intermediate one (the swap in finish_batch is the linearization
  /// point of the whole batch).
  [[nodiscard]] double read_coreness(vertex_t v) const;

  /// Same guarantee, exposing the level the estimate derives from.
  [[nodiscard]] level_t read_level(vertex_t v) const;

  /// The paper's Algorithm 4: lock-free (not wait-free) double-collect
  /// over (level, descriptor, DAG status, level) with retries across batch
  /// boundaries. Requires Options::track_dependencies for linearizability;
  /// kept for the §5.2/§5.3 ablations and as the descriptor-path baseline.
  [[nodiscard]] double read_coreness_dag(vertex_t v) const;
  [[nodiscard]] level_t read_level_dag(vertex_t v) const;

  /// NonSync baseline. Historically the raw live level (racy against
  /// in-flight level stores); now routed through the published view, so
  /// "non-linearizable" means *possibly stale by one in-flight batch*,
  /// never torn or intermediate — operationally an alias of read_coreness.
  [[nodiscard]] double read_coreness_nonsync(vertex_t v) const {
    return read_coreness(v);
  }
  [[nodiscard]] level_t read_level_nonsync(vertex_t v) const {
    return read_level(v);
  }

  /// SyncReads baseline: blocks until no batch is active, then reads the
  /// live level (equivalent to queueing the read until the end of the
  /// batch, as in the paper's baseline).
  [[nodiscard]] double read_coreness_sync(vertex_t v) const;
  [[nodiscard]] level_t read_level_sync(vertex_t v) const;

  // ---------------- inspection ----------------

  [[nodiscard]] std::uint64_t batch_number() const {
    return batch_number_.load(std::memory_order_seq_cst);
  }
  /// Version of the currently published LevelView (counts batches that
  /// moved at least one vertex; no-op batches publish nothing).
  [[nodiscard]] std::uint64_t view_version() const;
  /// The reclaimer retiring this structure's views.
  [[nodiscard]] concurrent::Reclaimer& reclaimer() const {
    return *reclaimer_;
  }
  [[nodiscard]] vertex_t num_vertices() const {
    return plds_.num_vertices();
  }
  [[nodiscard]] std::size_t num_edges() const { return plds_.num_edges(); }
  [[nodiscard]] const LDSParams& params() const { return plds_.params(); }

  /// Quiescent-only access to the underlying PLDS (tests, validation).
  [[nodiscard]] const PLDS& plds() const { return plds_; }

  [[nodiscard]] const BatchStats& last_batch_stats() const {
    return last_stats_;
  }

  /// With Options::capture_dags: (vertex, DAG root) for every vertex marked
  /// in the most recent batch.
  [[nodiscard]] const std::vector<std::pair<vertex_t, vertex_t>>&
  last_batch_dags() const {
    return last_dags_;
  }

 private:
  enum class DagStatus { kMarked, kUnmarked };

  /// Algorithm 3: walks v's DAG parent chain; MARKED iff the root's
  /// descriptor is marked. Early-exits on any unmarked descriptor along the
  /// way (valid because roots are unmarked first) and compresses the path.
  [[nodiscard]] DagStatus check_dag(vertex_t v,
                                    DescriptorTable::word_t dv) const;

  /// PLDS hook (Algorithm 2): creates v's descriptor and merges v into the
  /// DAGs of its triggers and marked batch neighbors. Runs concurrently for
  /// distinct vertices.
  void on_mark(vertex_t v, level_t old_level,
               std::span<const vertex_t> triggers);

  /// Batch prologue: bumps the batch number, publishes batch adjacency for
  /// the marked-batch-neighbor rule, flags batch-active for SyncReads.
  void begin_batch(const std::vector<Edge>& applied);

  /// Batch epilogue: root-first unmarking (Algorithm 2's unmark_all),
  /// capture hooks, quiescence signal.
  void finish_batch(std::size_t applied_edges);

  Options options_;
  PLDS plds_;
  DescriptorTable desc_;
  mutable ConcurrentUnionFind uf_;
  std::atomic<std::uint64_t> batch_number_{0};

  // Wait-free read path: the published immutable view and its reclaimer
  // (never null after construction; outlives this object by contract).
  concurrent::Reclaimer* reclaimer_ = nullptr;
  std::atomic<const LevelView*> view_{nullptr};

  // Batch-scoped state (update path only).
  std::vector<vertex_t> marked_list_;
  std::atomic<std::size_t> marked_count_{0};
  struct BatchHalf {
    vertex_t at;
    vertex_t other;
  };
  std::vector<BatchHalf> batch_halves_;
  IntMap<vertex_t, std::pair<std::uint32_t, std::uint32_t>> batch_adj_;

  // SyncReads quiescence signaling.
  mutable std::mutex sync_mu_;
  mutable std::condition_variable sync_cv_;
  bool batch_active_ = false;

  BatchStats last_stats_;
  std::vector<std::pair<vertex_t, vertex_t>> last_dags_;
};

}  // namespace cpkcore
