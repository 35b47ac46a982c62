#include "core/cplds.hpp"

#include "concurrent/reclaim.hpp"
#include "parallel/primitives.hpp"

namespace cpkcore {

CPLDS::CPLDS(vertex_t num_vertices, LDSParams params, Options options)
    : options_(options),
      plds_(num_vertices, std::move(params)),
      desc_(num_vertices),
      uf_(num_vertices),
      reclaimer_(options.reclaimer != nullptr
                     ? options.reclaimer
                     : &concurrent::global_reclaimer()),
      marked_list_(num_vertices, kNoVertex) {
  // Initial published view: every vertex at level 0, matching the fresh
  // PLDS. Readers can run from the first instant.
  view_.store(LevelView::initial(num_vertices, 0),
              std::memory_order_release);
  if (options_.track_dependencies) {
    PLDS::Hooks hooks;
    hooks.on_mark = [this](vertex_t v, level_t old_level,
                           std::span<const vertex_t> triggers) {
      on_mark(v, old_level, triggers);
    };
    hooks.is_marked = [this](vertex_t v) { return desc_.marked(v); };
    plds_.set_hooks(std::move(hooks));
  }
}

CPLDS::~CPLDS() {
  // No readers at destruction (contract); retired views are the
  // reclaimer's to free, the current view is ours.
  LevelView::destroy(view_.load(std::memory_order_relaxed));
}

std::vector<Edge> CPLDS::apply(const UpdateBatch& batch) {
  return batch.kind == UpdateKind::kInsert ? insert_batch(batch.edges)
                                           : delete_batch(batch.edges);
}

std::size_t CPLDS::apply_mixed(const std::vector<Update>& updates) {
  std::size_t applied = 0;
  for (const UpdateBatch& batch : split_batches(updates)) {
    applied += apply(batch).size();
  }
  return applied;
}

std::vector<Edge> CPLDS::delete_vertices(
    std::span<const vertex_t> vertices) {
  // Quiescent adjacency enumeration (update path), then one deletion batch;
  // delete_batch dedups edges shared by two deleted vertices.
  std::vector<Edge> incident;
  for (vertex_t v : vertices) {
    for (vertex_t w : plds_.neighbors(v)) {
      incident.push_back(Edge{v, w}.canonical());
    }
  }
  return delete_batch(std::move(incident));
}

std::vector<Edge> CPLDS::insert_batch(std::vector<Edge> edges) {
  begin_batch();
  auto applied = plds_.insert_batch(std::move(edges));
  finish_batch(applied.size());
  return applied;
}

std::vector<Edge> CPLDS::delete_batch(std::vector<Edge> edges) {
  begin_batch();
  auto applied = plds_.delete_batch(std::move(edges));
  finish_batch(applied.size());
  return applied;
}

void CPLDS::begin_batch() {
  {
    std::lock_guard lock(sync_mu_);
    batch_active_ = true;
  }
  // Incremented at the *start* of every batch (paper Algorithm 1); readers
  // sandwich their collect between two loads of this counter.
  batch_number_.fetch_add(1, std::memory_order_seq_cst);
  marked_count_.store(0, std::memory_order_seq_cst);
}

void CPLDS::on_mark(vertex_t v, level_t old_level,
                    std::span<const vertex_t> triggers) {
  const std::uint64_t batch = batch_number_.load(std::memory_order_relaxed);
  // Ordering matters for readers: (1) make v a fresh DAG root, (2) publish
  // the marked descriptor, (3) merge DAGs. A reader that sees v marked is
  // then guaranteed to traverse current-batch parent pointers only.
  uf_.reset(v, batch);
  desc_.mark(v, old_level, batch);
  marked_list_[marked_count_.fetch_add(1, std::memory_order_seq_cst)] = v;

  // Triggers: the PLDS's marked-neighbor scan (same-or-higher level for
  // insertions; below level-1 for deletions).
  for (vertex_t t : triggers) uf_.unite(v, t);

  // Marked batch neighbors (Lemma 6.3), read from the PLDS's grouped batch
  // edges: scanning *after* publishing v's descriptor guarantees that for
  // any batch edge (u, v) where both endpoints move, at least one
  // endpoint's scan observes the other marked, so their DAGs merge.
  plds_.for_each_batch_neighbor(v, [&](vertex_t w) {
    if (desc_.marked(w)) uf_.unite(v, w);
  });
}

void CPLDS::finish_batch(std::size_t applied_edges) {
  const std::size_t marked = marked_count_.load(std::memory_order_seq_cst);

  if (options_.capture_dags) {
    last_dags_.resize(marked);
    parallel_for(0, marked, [&](std::size_t i) {
      const vertex_t v = marked_list_[i];
      last_dags_[i] = {v, uf_.find(v)};
    });
  }

  // Algorithm 2's unmark_all: roots first, then everyone. The intermediate
  // state (root unmarked, members still marked) is exactly what the
  // check_DAG early exit relies on.
  parallel_for(0, marked, [&](std::size_t i) {
    const vertex_t v = marked_list_[i];
    if (uf_.parent(v) == v) desc_.unmark(v);
  });
  parallel_for(0, marked,
               [&](std::size_t i) { desc_.unmark(marked_list_[i]); });

  last_stats_ = BatchStats{applied_edges, marked};

  // Publish the batch's immutable level view (the linearization point of
  // the wait-free read path) and retire the predecessor. A batch that
  // moved nothing keeps the current view — no retire churn for no-ops.
  if (const auto moved = plds_.moved_vertices(); !moved.empty()) {
    const LevelView* old_view = view_.load(std::memory_order_relaxed);
    const LevelView* next_view = LevelView::successor(
        *old_view, moved, [this](vertex_t v) { return plds_.level(v); });
    // seq_cst swap: ordered before the reclaimer's next scan (by its
    // membarrier, or by pairing with the readers' seq_cst announce on the
    // fallback), so a reader that obtained old_view is visible as pinned
    // to every subsequent scan.
    view_.store(next_view, std::memory_order_seq_cst);
    reclaimer_->retire(const_cast<LevelView*>(old_view),
                       &LevelView::destroy_erased);
  }

  {
    std::lock_guard lock(sync_mu_);
    batch_active_ = false;
  }
  sync_cv_.notify_all();
}

CPLDS::DagStatus CPLDS::check_dag(vertex_t v,
                                  DescriptorTable::word_t dv) const {
  if (!DescriptorTable::is_marked(dv)) return DagStatus::kUnmarked;
  vertex_t x = v;
  ConcurrentUnionFind::word_t wx = uf_.word(x);
  for (;;) {
    const vertex_t p = ConcurrentUnionFind::parent_of(wx);
    if (p == x) {
      // x is the root; its descriptor decides.
      return DescriptorTable::is_marked(desc_.word(x))
                 ? DagStatus::kMarked
                 : DagStatus::kUnmarked;
    }
    const DescriptorTable::word_t dp = desc_.word(p);
    if (options_.early_exit && !DescriptorTable::is_marked(dp)) {
      // Any unmarked descriptor on the way up implies the root is already
      // unmarked (roots are unmarked first).
      return DagStatus::kUnmarked;
    }
    const ConcurrentUnionFind::word_t wp = uf_.word(p);
    if (options_.path_compression) {
      const vertex_t gp = ConcurrentUnionFind::parent_of(wp);
      if (gp != p) uf_.compress(x, wx, gp);
    }
    x = p;
    wx = wp;
  }
}

level_t CPLDS::read_level(vertex_t v) const {
  // Wait-free: pin the reclamation guard, load the published view, index.
  // The guard announces its epoch with a relaxed store, and the reclaimer
  // issues a process-wide membarrier before each slot scan (at most one
  // scan per 10 ms from retire). That fence stands in for the reader's:
  // either this announce is visible to the scan, or this view load comes
  // after the seq_cst swap in finish_batch and cannot return the retired
  // view. TSan builds and processes without membarrier announce with a
  // seq_cst store instead, pairing with the swap (Dekker). The seq_cst
  // load costs a plain load on x86 and serves both paths.
  const concurrent::Reclaimer::Guard guard = reclaimer_->read_guard();
  return view_.load(std::memory_order_seq_cst)->level(v);
}

double CPLDS::read_coreness(vertex_t v) const {
  return params().coreness_estimate(read_level(v));
}

level_t CPLDS::read_level_dag(vertex_t v) const {
  // Algorithm 4: double collect of the batch number around (level,
  // descriptor, DAG status, level).
  for (;;) {
    const std::uint64_t b1 = batch_number_.load(std::memory_order_seq_cst);
    const level_t l1 = plds_.level(v);
    const DescriptorTable::word_t dv = desc_.word(v);
    const DagStatus status = check_dag(v, dv);
    const level_t l2 = plds_.level(v);
    const std::uint64_t b2 = batch_number_.load(std::memory_order_seq_cst);
    if (b1 != b2) continue;  // spans a batch boundary: retry
    if (status == DagStatus::kMarked) {
      return DescriptorTable::old_level(dv);  // pre-batch level
    }
    if (l1 == l2) return l1;  // stable live level
    // Level moved under an unmarked observation: retry.
  }
}

double CPLDS::read_coreness_dag(vertex_t v) const {
  return params().coreness_estimate(read_level_dag(v));
}

double CPLDS::read_coreness_sync(vertex_t v) const {
  return params().coreness_estimate(read_level_sync(v));
}

level_t CPLDS::read_level_sync(vertex_t v) const {
  // The SyncReads baseline reads the *live* structure under quiescence —
  // it must stay the genuinely locked path the A/B bench compares against.
  std::unique_lock lock(sync_mu_);
  sync_cv_.wait(lock, [&] { return !batch_active_; });
  return plds_.level(v);
}

std::uint64_t CPLDS::view_version() const {
  const concurrent::Reclaimer::Guard guard = reclaimer_->read_guard();
  return view_.load(std::memory_order_seq_cst)->version();
}

}  // namespace cpkcore
