#include "service/kcore_service.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "obs/event_log.hpp"
#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace cpkcore::service {

namespace {

/// Event-journal component label: "<health_prefix><what>", so per-partition
/// services get their own rate-limit budgets and self-identifying events.
std::string event_component(const ServiceConfig& config, const char* what) {
  std::string comp = config.health_prefix;
  comp += what;
  return comp;
}

}  // namespace

KCoreService::KCoreService(ServiceConfig config)
    : config_(std::move(config)),
      sizer_(config_.min_ops_per_cycle, config_.max_ops_per_cycle,
             config_.target_apply_ns,
             AdaptiveBatchSizer::Feedback{config_.max_replica_lag,
                                          config_.target_read_p99_ns}) {
  namespace fs = std::filesystem;
  // Per-service reclaimer behind the wait-free read path; wired into the
  // CPLDS options so both the warm (snapshot) and cold paths use it.
  config_.cplds.reclaimer = &reclaimer_;
  const bool warm = !config_.snapshot_path.empty() &&
                    fs::exists(config_.snapshot_path);
  if (warm) {
    SnapshotLoadOptions opts;
    opts.delta = config_.delta;
    opts.lambda = config_.lambda;
    opts.levels_per_group_cap = config_.levels_per_group_cap;
    opts.cplds = config_.cplds;
    ds_ = load_snapshot(config_.snapshot_path, opts);
  } else {
    if (config_.num_vertices < 2) {
      throw std::invalid_argument(
          "ServiceConfig::num_vertices must be >= 2 (no snapshot to restart "
          "from)");
    }
    ds_ = std::make_unique<CPLDS>(
        config_.num_vertices,
        LDSParams::create(config_.num_vertices, config_.delta,
                          config_.lambda, config_.levels_per_group_cap),
        config_.cplds);
  }
  if (!config_.wal_path.empty()) {
    // Warm restart part 2: re-apply the committed WAL suffix. Replay runs on
    // this thread before the apply thread exists, satisfying the CPLDS
    // single-driver contract.
    WalOptions wal_options;
    wal_options.durability = config_.wal_durability;
    wal_options.engine = config_.wal_engine;
    wal_options.health = config_.health;
    wal_options.health_prefix = config_.health_prefix;
    wal_options.health_partition = config_.health_partition;
    const WalOpenInfo info = wal_.open(
        config_.wal_path, ds_->num_vertices(),
        [&](std::uint64_t, const UpdateBatch& batch) { ds_->apply(batch); },
        wal_options);
    stats_.replayed_batches = info.replayed;
    wal_engine_kind_ = info.engine;
    // The engine the config asked for vs the one that actually runs: a
    // kIoUring/kAuto intent landing on the flusher means the io_uring
    // probe failed (kernel too old, seccomp, RLIMIT) — operationally
    // interesting, so it goes in the journal, not just a stats label.
    if (const WalEngineKind intent = resolve_wal_engine(config_.wal_engine);
        intent != info.engine) {
      obs::EventLog::instance().emit(
          obs::Severity::kWarn, event_component(config_, "wal"),
          "wal_engine_degraded",
          {{"requested", wal_engine_name(intent)},
           {"resolved", wal_engine_name(info.engine)}});
    }
    // Resume LSN numbering where the committed log ends; the replayed
    // prefix is both committed and applied (and shipped: it predates any
    // listener).
    next_lsn_ = info.last_lsn;
    commit_lsn_.store(info.last_lsn, std::memory_order_relaxed);
    applied_lsn_.store(info.last_lsn, std::memory_order_relaxed);
    shipped_lsn_ = info.last_lsn;
    // Hooked up before the apply thread exists, so no completion can fire
    // into a half-constructed service.
    wal_.set_durable_callback(
        [this](std::uint64_t lsn, const std::string* error) {
          on_durable(lsn, error);
        });
  }
  num_shards_ = std::max<std::size_t>(1, config_.num_shards);
  shards_ = std::make_unique<Shard[]>(num_shards_);
  stats_.batch_budget = sizer_.budget();
  // Health registration precedes the apply thread: the thread stamps
  // apply_heartbeat_ unconditionally once it sees it non-null, so the
  // pointer must be final before the thread can read it.
  if (config_.health != nullptr) {
    std::string name = config_.health_prefix;
    name += "apply";
    apply_heartbeat_ = config_.health->register_thread(
        std::move(name), config_.health_partition);
    if (!config_.wal_path.empty() &&
        (config_.divergence_degraded > 0 || config_.divergence_stalled > 0)) {
      std::string probe_name = config_.health_prefix;
      probe_name += "wal_divergence";
      // Samples on the watchdog thread: both cursors are atomics, and the
      // probe is tombstoned in stop() before wal_.close() tears the
      // engine down.
      divergence_probe_ = config_.health->register_probe(
          std::move(probe_name), config_.health_partition,
          [this]() -> double {
            const std::uint64_t applied =
                applied_lsn_.load(std::memory_order_acquire);
            const std::uint64_t durable = wal_.durable_lsn();
            return applied > durable
                       ? static_cast<double>(applied - durable)
                       : 0.0;
          },
          static_cast<double>(config_.divergence_degraded),
          static_cast<double>(config_.divergence_stalled));
    }
  }
  apply_thread_ = std::thread([this] { apply_loop(); });
  // Registered after the service is fully constructed; stats() is
  // thread-safe, so the collect callback can fire from any snapshot.
  if (config_.metrics != nullptr) {
    metrics_ = obs::MetricsGroup(config_.metrics, config_.metrics_prefix);
    metrics_.collect([this](obs::MetricsSink& sink) {
      const ServiceStats st = stats();
      sink.counter("submitted_ops", static_cast<double>(st.submitted_ops));
      sink.counter("acked_ops", static_cast<double>(st.acked_ops));
      sink.counter("applied_edges", static_cast<double>(st.applied_edges));
      sink.counter("batches", static_cast<double>(st.batches));
      sink.counter("cycles", static_cast<double>(st.cycles));
      sink.counter("rejected_ops", static_cast<double>(st.rejected_ops));
      sink.counter("blocked_submits",
                   static_cast<double>(st.blocked_submits));
      sink.counter("wal_flushes", static_cast<double>(st.wal_flushes));
      sink.counter("wal_flush_bytes",
                   static_cast<double>(st.wal_flush_bytes));
      sink.gauge("commit_lsn", static_cast<double>(st.commit_lsn));
      sink.gauge("applied_lsn", static_cast<double>(st.applied_lsn));
      sink.gauge("durable_lsn", static_cast<double>(st.durable_lsn));
      sink.gauge("batch_budget", static_cast<double>(st.batch_budget));
      sink.gauge("wal_flush_depth",
                 static_cast<double>(st.wal_flush_depth));
      sink.gauge("wal_inflight_bytes",
                 static_cast<double>(st.wal_inflight_bytes));
      sink.gauge("pending_ops", static_cast<double>(pending_ops()));
      std::size_t max_depth = 0;
      for (const std::size_t d : st.shard_depths) {
        max_depth = std::max(max_depth, d);
      }
      sink.gauge("shard_depth_max", static_cast<double>(max_depth));
      sink.histogram("ack_latency_ns", st.ack_latency);
      sink.histogram("apply_latency_ns", st.apply_latency);
      sink.histogram("applied_latency_ns", st.applied_latency);
      sink.histogram("durable_lag_ns", st.durable_lag);
      const concurrent::Reclaimer::Stats rs = reclaimer_.stats();
      sink.counter("reclaim.epoch_advances",
                   static_cast<double>(rs.epoch_advances));
      sink.counter("reclaim.retired", static_cast<double>(rs.retired));
      sink.counter("reclaim.freed", static_cast<double>(rs.freed));
      sink.counter("reclaim.lagging_readers",
                   static_cast<double>(rs.lagging_readers));
      sink.gauge("reclaim.limbo", static_cast<double>(rs.limbo));
    });
  }
}

KCoreService::~KCoreService() { stop(/*drain_first=*/true); }

std::size_t KCoreService::shard_of(const Edge& e) const {
  return hash64(e.canonical().key()) % num_shards_;
}

Ticket KCoreService::submit(Update op) {
  if (stopped_.load(std::memory_order_relaxed)) {
    throw std::runtime_error("KCoreService: submit after shutdown");
  }
  const vertex_t n = ds_->num_vertices();
  if (op.edge.u >= n || op.edge.v >= n) {
    throw std::out_of_range("KCoreService: vertex id out of range");
  }
  const std::size_t s = shard_of(op.edge);
  Shard& shard = shards_[s];
  const std::uint64_t t0 = now_ns();
  std::uint64_t seq = 0;
  {
    std::unique_lock lock(shard.mu);
    if (const std::size_t bound = config_.max_pending_per_shard;
        bound > 0 && shard.pending.size() >= bound) {
      if (config_.admission == AdmissionPolicy::kReject) {
        rejected_ops_.fetch_add(1, std::memory_order_relaxed);
        // Journaled (rate-limited per component by the EventLog — a
        // rejection storm costs at most the burst per window, and the
        // next admitted event carries the suppressed count).
        obs::EventLog::instance().emit(
            obs::Severity::kWarn, event_component(config_, "service"),
            "backpressure_reject",
            {{"shard", std::to_string(s)},
             {"depth", std::to_string(shard.pending.size())}});
        throw QueueFullError("KCoreService: ingest shard full");
      }
      blocked_submits_.fetch_add(1, std::memory_order_relaxed);
      obs::EventLog::instance().emit(
          obs::Severity::kInfo, event_component(config_, "service"),
          "backpressure_block",
          {{"shard", std::to_string(s)},
           {"depth", std::to_string(shard.pending.size())}});
      shard.space_cv.wait(lock, [&] {
        return shard.pending.size() < bound ||
               stopped_.load(std::memory_order_seq_cst);
      });
      if (stopped_.load(std::memory_order_seq_cst)) {
        throw std::runtime_error("KCoreService: submit after shutdown");
      }
    }
    seq = ++shard.submitted;
    shard.pending.push_back(PendingOp{op, t0});
    // Inside shard.mu so a drain (which takes the same mutex) can never
    // observe the op before its count: pending_ops_ stays >= the ops
    // actually sitting in the shards, and run_cycle's fetch_sub cannot
    // underflow.
    pending_ops_.fetch_add(1, std::memory_order_seq_cst);
    // Recheck after the op is published: if the stop flag was set first,
    // the apply loop's final drain may already have passed this shard, so
    // undo and throw rather than hand back a ticket that silently never
    // acks. (Seq-cst total order: if this load is false, the increment
    // above precedes the stop flag, and the final pending_ops_ check -
    // which happens after the flag is set - sees the op and drains it.)
    if (stopped_.load(std::memory_order_seq_cst)) {
      shard.pending.pop_back();
      --shard.submitted;
      pending_ops_.fetch_sub(1, std::memory_order_seq_cst);
      throw std::runtime_error("KCoreService: submit after shutdown");
    }
    // Counted while the op is still unpublishable (shard.mu held), so an
    // op can never appear in acked_ops before submitted_ops.
    submitted_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  // Dekker pairing with apply_loop: the seq_cst increment above and the
  // seq_cst sleep-flag store/read guarantee at least one side sees the
  // other, so the apply thread never parks with this op unseen.
  if (apply_sleeping_.load(std::memory_order_seq_cst)) {
    std::lock_guard lock(ingest_mu_);
    ingest_cv_.notify_one();
  }
  return Ticket{static_cast<std::uint32_t>(s), seq};
}

bool KCoreService::wait(const Ticket& ticket, std::uint64_t* acked_lsn) {
  Shard& shard = shards_[ticket.shard];
  if (shard.applied.load(std::memory_order_acquire) >= ticket.seq) {
    if (acked_lsn) {
      *acked_lsn = shard.acked_lsn.load(std::memory_order_relaxed);
    }
    return true;
  }
  std::unique_lock lock(shard.mu);
  shard.ack_cv.wait(lock, [&] {
    return shard.applied.load(std::memory_order_relaxed) >= ticket.seq ||
           dead_.load(std::memory_order_relaxed);
  });
  if (shard.applied.load(std::memory_order_relaxed) < ticket.seq) {
    return false;
  }
  if (acked_lsn) {
    *acked_lsn = shard.acked_lsn.load(std::memory_order_relaxed);
  }
  return true;
}

bool KCoreService::is_applied(const Ticket& ticket) const {
  return shards_[ticket.shard].applied.load(std::memory_order_acquire) >=
         ticket.seq;
}

void KCoreService::drain() {
  for (std::size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    std::uint64_t target = 0;
    {
      std::lock_guard lock(shard.mu);
      target = shard.submitted;
    }
    if (target > 0) wait(Ticket{static_cast<std::uint32_t>(s), target});
  }
}

std::uint64_t KCoreService::set_commit_listener(CommitListener listener) {
  // apply_mu_ excludes a running cycle and ship_mu_ excludes the
  // completion thread's ship-at-durable deliveries, so the returned cursor
  // is exact: no frame can ship between reading it and the listener taking
  // effect.
  std::lock_guard alock(apply_mu_);
  std::lock_guard slock(ship_mu_);
  commit_listener_ = std::move(listener);
  return shipped_lsn_;
}

std::uint64_t KCoreService::durable_lsn() const {
  return config_.wal_path.empty() ? commit_lsn() : wal_.durable_lsn();
}

bool KCoreService::wait_wal_durable(std::uint64_t lsn) {
  if (config_.wal_path.empty()) return true;
  try {
    wal_.wait_durable(lsn);
  } catch (const std::exception&) {
    return false;
  }
  return wal_.durable_lsn() >= lsn;
}

void KCoreService::apply_loop() {
  CPKC_TRACE_THREAD_NAME("apply/" + config_.metrics_prefix);
  for (;;) {
    {
      std::unique_lock lock(ingest_mu_);
      apply_sleeping_.store(true, std::memory_order_seq_cst);
      // Parked is healthy: an idle mark stops the heartbeat age from
      // counting while the queue is empty (or a pause holds the thread).
      if (apply_heartbeat_ != nullptr) apply_heartbeat_->idle();
      ingest_cv_.wait(lock, [&] {
        return stop_requested_ ||
               (!paused_.load(std::memory_order_relaxed) &&
                pending_ops_.load(std::memory_order_seq_cst) > 0);
      });
      apply_sleeping_.store(false, std::memory_order_seq_cst);
      if (apply_heartbeat_ != nullptr) apply_heartbeat_->busy();
      if (crash_requested_) break;
      if (stop_requested_ &&
          pending_ops_.load(std::memory_order_seq_cst) == 0) {
        break;
      }
    }
    try {
      run_cycle();
    } catch (const std::exception& e) {
      // A throwing cycle (WAL I/O failure, allocation failure) must not
      // escape the thread - that would std::terminate the process. Fail
      // the service instead: stop accepting, release waiters (their
      // wait() returns false), record the error, and keep reads serving.
      {
        std::lock_guard lock(stats_mu_);
        stats_.apply_error = e.what();
      }
      obs::EventLog::instance().emit(
          obs::Severity::kError, event_component(config_, "service"),
          "apply_error", {{"error", e.what()}});
      std::fprintf(stderr, "KCoreService: apply thread failed: %s\n",
                   e.what());
      {
        std::lock_guard lock(ingest_mu_);
        stopped_.store(true, std::memory_order_seq_cst);
        stop_requested_ = true;
      }
      dead_.store(true, std::memory_order_relaxed);
      for (std::size_t s = 0; s < num_shards_; ++s) {
        std::lock_guard lock(shards_[s].mu);
        shards_[s].ack_cv.notify_all();
        shards_[s].space_cv.notify_all();
      }
      return;
    }
  }
}

std::size_t KCoreService::run_cycle() {
  std::lock_guard apply_lock(apply_mu_);
  // Checked under apply_mu_, so once pause_applies() (which passes through
  // this mutex) returns, no further cycle can drain ops.
  if (paused_.load(std::memory_order_acquire)) return 0;
  if (apply_heartbeat_ != nullptr) apply_heartbeat_->beat();
  // Fault injection (debug_inject_apply_stall): sleep with the heartbeat
  // marked busy — the beat above ages through the sleep, which is what a
  // genuinely wedged apply thread looks like to the watchdog.
  if (const std::uint64_t stall_ms =
          inject_stall_ms_.exchange(0, std::memory_order_relaxed);
      stall_ms > 0) {
    obs::EventLog::instance().emit(
        obs::Severity::kWarn, event_component(config_, "service"),
        "apply_stall_injected", {{"ms", std::to_string(stall_ms)}});
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  }

  // Drain: take up to the adaptive budget, preserving per-shard FIFO (and
  // therefore per-edge order, since an edge's ops always share a shard).
  std::vector<PendingOp> ops;
  std::vector<PendingCycle::ShardCut> drains;
  std::size_t budget = sizer_.budget();
  // Rotate the starting shard so a budget-exhausting backlog on low-index
  // shards cannot starve high-index shards (and their waiters) forever.
  const std::size_t start = drain_start_;
  drain_start_ = (drain_start_ + 1) % num_shards_;
  for (std::size_t i = 0; i < num_shards_ && budget > 0; ++i) {
    const std::size_t s = (start + i) % num_shards_;
    Shard& shard = shards_[s];
    std::lock_guard lock(shard.mu);
    const std::size_t take = std::min(shard.pending.size(), budget);
    if (take == 0) continue;
    ops.insert(ops.end(), shard.pending.begin(),
               shard.pending.begin() + static_cast<std::ptrdiff_t>(take));
    shard.pending.erase(
        shard.pending.begin(),
        shard.pending.begin() + static_cast<std::ptrdiff_t>(take));
    shard.drained += take;
    drains.push_back(PendingCycle::ShardCut{s, shard.drained});
    budget -= take;
    if (config_.max_pending_per_shard > 0) shard.space_cv.notify_all();
  }
  if (ops.empty()) return 0;
  pending_ops_.fetch_sub(ops.size(), std::memory_order_seq_cst);
  // Spans the rest of the cycle: coalesce + WAL staging + apply + ack/queue.
  CPKC_TRACE_SPAN(cycle_span, "cycle", 0, ops.size());

  // Coalesce into homogeneous batches — canonical + deduplicated only when
  // they are about to be logged or shipped (the CPLDS re-normalizes on
  // apply anyway, so without a WAL or a listener the pass would be pure
  // duplicate work on the apply thread).
  std::vector<Update> stream;
  stream.reserve(ops.size());
  for (const PendingOp& p : ops) stream.push_back(p.op);
  std::vector<UpdateBatch> batches = coalesce_updates(
      std::move(stream),
      /*normalize=*/wal_.is_open() || commit_listener_ != nullptr);

  // Assign LSNs and group-commit: log every batch of the cycle, one flush.
  std::vector<std::uint64_t> lsns;
  lsns.reserve(batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) lsns.push_back(++next_lsn_);
  // Encode-once: each committed batch becomes one WalFrame here, and those
  // exact bytes serve both the WAL append below and the commit listener —
  // no consumer re-serializes.
  std::vector<WalFramePtr> frames;
  if (wal_.is_open() || commit_listener_ != nullptr) {
    frames.reserve(batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) {
      frames.push_back(WalFrame::encode(lsns[i], batches[i]));
    }
  }
  // Group commit. With an async engine the staged bytes go to the engine
  // and this thread moves straight on to apply — the pipelined path; the
  // sync engine pays the write+sync here as before. `defer` is whether the
  // *ack* must wait for the durable watermark: only at the sync durability
  // levels (kOsCache acks at applied by definition — the bytes reaching
  // the OS cache is not something a process crash can undo earlier than a
  // sync-mode buffered write could).
  const bool async_wal = wal_.is_open() && wal_.async_active();
  const bool defer = async_wal && !lsns.empty() &&
                     config_.wal_durability != WalDurability::kOsCache;
  if (wal_.is_open()) {
    // The cross-thread commit span: begins here on the apply thread, ends
    // in deliver_cycle — on the engine's completion thread when the ack is
    // deferred to the durable watermark.
    if (!lsns.empty()) {
      CPKC_TRACE_ASYNC_BEGIN("commit", lsns.back(), ops.size());
    }
    {
      CPKC_TRACE_SPAN(wal_span, "wal_submit",
                      lsns.empty() ? 0 : lsns.back(), batches.size());
      for (const WalFramePtr& frame : frames) wal_.append(*frame);
      if (async_wal) {
        wal_.commit_async();
      } else {
        wal_.flush();
      }
    }
  }
  if (!lsns.empty() && !defer) {
    // Deferred cycles advance commit_lsn_ in on_durable instead: at a sync
    // level "committed" means the durability point was reached.
    commit_lsn_.store(lsns.back(), std::memory_order_release);
  }
  // Ops that coalesced into nothing (all self-loops) ack at the current
  // commit LSN: there is no new state for a session to wait for.
  const std::uint64_t cycle_lsn =
      lsns.empty() ? commit_lsn_.load(std::memory_order_relaxed)
                   : lsns.back();

  // Ship to the replication subscriber (staged, not yet applied — a
  // replica may briefly run ahead of the primary's apply, which only makes
  // reads fresher, never staler than an acked write). The listener shares
  // the frame; no bytes are copied. At ShipPoint::kDurable the frames ride
  // in the pending cycle instead and ship from deliver_cycle.
  const bool ship_at_applied = config_.ship_at == ShipPoint::kApplied;
  if (ship_at_applied) {
    std::lock_guard slock(ship_mu_);
    if (commit_listener_) {
      for (const WalFramePtr& frame : frames) commit_listener_(frame);
    }
    if (!lsns.empty()) shipped_lsn_ = lsns.back();
  }

  // Apply — overlapped with the previous cycle's flush when async.
  std::uint64_t cycle_apply_ns = 0;
  std::size_t cycle_applied_edges = 0;
  std::vector<std::uint64_t> batch_ns;
  batch_ns.reserve(batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    CPKC_TRACE_SPAN(apply_span, "apply", lsns[i], batches[i].edges.size());
    Timer timer;
    cycle_applied_edges += ds_->apply(batches[i]).size();
    const std::uint64_t ns = timer.elapsed_ns();
    cycle_apply_ns += ns;
    batch_ns.push_back(ns);
  }
  // Feed the sizer every cost signal: the cycle's apply time, the most
  // recent applied->acked lag, and the cluster feedback (replica lag /
  // read p99, via observe_cluster_feedback), so the budget backs off when
  // the durability pipeline, the replicas, or the readers — not the apply —
  // are the bottleneck.
  sizer_.observe(ops.size(), cycle_apply_ns,
                 last_ack_lag_ns_.load(std::memory_order_relaxed),
                 replica_lag_signal_.load(std::memory_order_relaxed),
                 read_p99_signal_.load(std::memory_order_relaxed));
  if (!lsns.empty()) {
    applied_lsn_.store(lsns.back(), std::memory_order_release);
  }

  // Applied-side stats (the ack-side stats land in deliver_cycle, which
  // for inline acks runs before this function returns). Stats before acks:
  // a client that returns from wait()/drain() and immediately reads
  // stats() must already see this cycle counted.
  const std::uint64_t applied_at = now_ns();
  {
    std::lock_guard lock(stats_mu_);
    stats_.applied_edges += cycle_applied_edges;
    stats_.batches += batches.size();
    stats_.cycles += 1;
    stats_.apply_seconds += static_cast<double>(cycle_apply_ns) * 1e-9;
    stats_.batch_budget = sizer_.budget();
    for (std::uint64_t ns : batch_ns) stats_.apply_latency.record(ns);
    for (const PendingOp& p : ops) {
      stats_.applied_latency.record(applied_at - p.submit_ns);
    }
  }

  PendingCycle cycle;
  cycle.upto_lsn = lsns.empty() ? cycle_lsn : lsns.back();
  cycle.cycle_lsn = cycle_lsn;
  cycle.applied_ns = applied_at;
  cycle.drains = std::move(drains);
  cycle.submit_ns.reserve(ops.size());
  for (const PendingOp& p : ops) cycle.submit_ns.push_back(p.submit_ns);
  if (!ship_at_applied) cycle.frames = std::move(frames);

  {
    std::unique_lock plock(pending_mu_);
    // Inline ack only when nothing older is still waiting on the disk
    // (acking out of order would move a shard's `applied` frontier past an
    // older not-yet-durable op) and this cycle's own bytes are already
    // covered by the watermark. The engine's callback stores the WAL
    // watermark *before* it runs on_durable, so reading it under
    // pending_mu_ here cannot miss a completion that already popped the
    // queue: either the watermark covers us (ack inline) or on_durable for
    // our LSN has not popped yet (queue; it will be delivered).
    const bool inline_ack =
        pending_.empty() &&
        (!defer || wal_.durable_lsn() >= cycle.upto_lsn);
    if (inline_ack) {
      deliver_cycle(cycle, now_ns());
    } else {
      pending_.push_back(std::move(cycle));
    }
  }
  return ops.size();
}

void KCoreService::deliver_cycle(PendingCycle& cycle,
                                 std::uint64_t acked_at) {
  // Caller holds pending_mu_ (see header): acks serialize here. Closes the
  // cross-thread commit span opened at WAL staging — on the engine's
  // completion thread when the ack was deferred to the durable watermark.
  if (wal_.is_open()) {
    CPKC_TRACE_ASYNC_END("commit", cycle.upto_lsn, cycle.submit_ns.size());
  }
  CPKC_TRACE_INSTANT("ack", cycle.cycle_lsn, cycle.submit_ns.size());
  if (config_.ship_at == ShipPoint::kDurable) {
    std::lock_guard slock(ship_mu_);
    if (commit_listener_) {
      for (const WalFramePtr& frame : cycle.frames) commit_listener_(frame);
    }
    if (shipped_lsn_ < cycle.upto_lsn) shipped_lsn_ = cycle.upto_lsn;
  }
  const std::uint64_t lag =
      acked_at > cycle.applied_ns ? acked_at - cycle.applied_ns : 0;
  last_ack_lag_ns_.store(lag, std::memory_order_relaxed);
  {
    std::lock_guard lock(stats_mu_);
    stats_.acked_ops += cycle.submit_ns.size();
    for (const std::uint64_t t : cycle.submit_ns) {
      stats_.ack_latency.record(acked_at - t);
    }
    stats_.durable_lag.record(lag);
  }
  // Acknowledge: per-shard acks are monotone in submission order, and the
  // ack LSN is published before `applied`'s release store so waiters see it.
  for (const PendingCycle::ShardCut& d : cycle.drains) {
    Shard& shard = shards_[d.shard];
    {
      std::lock_guard lock(shard.mu);
      // Monotone: a queued no-op cycle can carry a lower cycle_lsn than
      // the durable cycle delivered just before it; a waiter of the
      // earlier op must never observe its ack LSN regress.
      if (shard.acked_lsn.load(std::memory_order_relaxed) <
          cycle.cycle_lsn) {
        shard.acked_lsn.store(cycle.cycle_lsn, std::memory_order_relaxed);
      }
      shard.applied.store(d.upto, std::memory_order_release);
    }
    shard.ack_cv.notify_all();
  }
}

void KCoreService::on_durable(std::uint64_t lsn, const std::string* error) {
  if (error != nullptr) {
    fail_from_durability(*error);
    return;
  }
  CPKC_TRACE_INSTANT("durable", lsn, 0);
  if (config_.wal_durability != WalDurability::kOsCache) {
    // Monotone max: at the sync levels "committed" is the watermark.
    std::uint64_t cur = commit_lsn_.load(std::memory_order_relaxed);
    while (cur < lsn &&
           !commit_lsn_.compare_exchange_weak(cur, lsn,
                                              std::memory_order_release,
                                              std::memory_order_relaxed)) {
    }
  }
  const std::uint64_t acked_at = now_ns();
  std::lock_guard plock(pending_mu_);
  while (!pending_.empty() && pending_.front().upto_lsn <= lsn) {
    deliver_cycle(pending_.front(), acked_at);
    pending_.pop_front();
  }
}

void KCoreService::fail_from_durability(const std::string& what) {
  // Mirror of the apply-thread error containment, but running on the
  // engine's completion thread: stop accepting, drop undeliverable pending
  // cycles (their acks can never be correct), release waiters with
  // wait() == false, keep reads serving. The apply thread itself hits the
  // failed engine on its next commit and lands in the same stopped state.
  {
    std::lock_guard lock(stats_mu_);
    if (stats_.apply_error.empty()) {
      stats_.apply_error = "WAL durability engine failed: " + what;
    }
  }
  obs::EventLog::instance().emit(
      obs::Severity::kError, event_component(config_, "wal"),
      "durability_failed", {{"error", what}});
  std::fprintf(stderr, "KCoreService: WAL durability engine failed: %s\n",
               what.c_str());
  {
    std::lock_guard lock(ingest_mu_);
    stopped_.store(true, std::memory_order_seq_cst);
    stop_requested_ = true;
    ingest_cv_.notify_all();
  }
  {
    std::lock_guard plock(pending_mu_);
    pending_.clear();
  }
  dead_.store(true, std::memory_order_relaxed);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard lock(shards_[s].mu);
    shards_[s].ack_cv.notify_all();
    shards_[s].space_cv.notify_all();
  }
}

void KCoreService::checkpoint() {
  if (config_.snapshot_path.empty()) {
    throw std::logic_error(
        "KCoreService::checkpoint requires ServiceConfig::snapshot_path");
  }
  // Phase 1 — capture the cut (bounded pause): with drain cycles excluded
  // the CPLDS is update-quiescent; copy its edge list and the LSN the cut
  // covers. Memory-bound — no disk IO under the lock.
  vertex_t num_vertices = 0;
  std::vector<Edge> edges;
  std::uint64_t cut_lsn = 0;
  {
    std::lock_guard lock(apply_mu_);
    num_vertices = ds_->num_vertices();
    edges = collect_snapshot_edges(*ds_);
    cut_lsn = next_lsn_;
  }
  obs::EventLog::instance().emit(
      obs::Severity::kInfo, event_component(config_, "service"),
      "checkpoint_begin",
      {{"cut_lsn", std::to_string(cut_lsn)},
       {"edges", std::to_string(edges.size())}});
  // Phase 2 — stream (no lock): write the snapshot while updates keep
  // committing past the cut. A crash mid-save cannot destroy the previous
  // snapshot: until the rename below, the old snapshot + full WAL still
  // reconstruct every acked op.
  const std::string tmp = config_.snapshot_path + ".tmp";
  save_snapshot(num_vertices, edges, tmp);
  // Phase 3 — publish (bounded pause): swap in the snapshot and compact
  // the WAL down to the records committed since the cut, in the same
  // critical section so no cycle commits between the two. The pause is
  // proportional to that suffix, not to the structure size.
  {
    std::lock_guard lock(apply_mu_);
    std::filesystem::rename(tmp, config_.snapshot_path);
    if (wal_.is_open()) wal_.compact(cut_lsn);
  }
  if (!config_.wal_path.empty()) {
    obs::EventLog::instance().emit(
        obs::Severity::kInfo, event_component(config_, "wal"),
        "wal_compacted", {{"cut_lsn", std::to_string(cut_lsn)}});
  }
  obs::EventLog::instance().emit(
      obs::Severity::kInfo, event_component(config_, "service"),
      "checkpoint_end", {{"cut_lsn", std::to_string(cut_lsn)}});
}

void KCoreService::shutdown() { stop(/*drain_first=*/true); }

void KCoreService::simulate_crash() { stop(/*drain_first=*/false); }

void KCoreService::pause_applies() {
  paused_.store(true, std::memory_order_release);
  // Wait out any in-flight cycle; afterwards run_cycle()'s pause check
  // (under this same mutex) keeps the queues frozen.
  std::lock_guard lock(apply_mu_);
}

void KCoreService::resume_applies() {
  paused_.store(false, std::memory_order_release);
  std::lock_guard lock(ingest_mu_);
  ingest_cv_.notify_all();
}

void KCoreService::stop(bool drain_first) {
  // Shutdown overrides a pause: the final drain below must be able to run.
  paused_.store(false, std::memory_order_release);
  {
    std::lock_guard lock(ingest_mu_);
    // stopped_ flips before the apply loop can make its final "pending ==
    // 0" exit check (that check runs under ingest_mu_), which is what the
    // submit() recheck relies on.
    stopped_.store(true, std::memory_order_seq_cst);
    stop_requested_ = true;
    if (!drain_first) crash_requested_ = true;
  }
  ingest_cv_.notify_all();
  // Submitters blocked on backpressure must wake to observe the stop (the
  // final drain also frees space, but a crash-stop drains nothing).
  for (std::size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard lock(shards_[s].mu);
    shards_[s].space_cv.notify_all();
  }
  if (apply_thread_.joinable()) apply_thread_.join();
  if (drain_first) {
    // Graceful shutdown must not set dead_ (releasing waiters with
    // wait() == false) while deferred acks are still riding the durability
    // engine: wait the watermark out — the engine fires every completion
    // callback *before* wait_durable returns, so once this passes, every
    // ackable op has acked. An engine failure already released waiters via
    // fail_from_durability; swallow it here.
    std::lock_guard lock(apply_mu_);
    if (wal_.is_open() && wal_.async_active()) {
      try {
        wal_.wait_durable(wal_.staged_lsn());
      } catch (const std::exception&) {
      }
    }
  }
  dead_.store(true, std::memory_order_relaxed);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard lock(shards_[s].mu);
    shards_[s].ack_cv.notify_all();
    shards_[s].space_cv.notify_all();
  }
  // Tombstone the health components before the WAL closes: the divergence
  // probe samples wal_.durable_lsn(), and unregister() excludes any
  // concurrent watchdog check before returning. (The apply thread is
  // already joined, so its heartbeat handle is quiescent.)
  if (config_.health != nullptr) {
    if (divergence_probe_ != nullptr) {
      config_.health->unregister(divergence_probe_);
      divergence_probe_ = nullptr;
    }
    if (apply_heartbeat_ != nullptr) {
      config_.health->unregister(apply_heartbeat_);
      apply_heartbeat_ = nullptr;
    }
  }
  // Under apply_mu_: a concurrent checkpoint() holds it while compacting
  // the WAL, and WriteAheadLog is not thread-safe. (close() also drains
  // and stops the engine — on the crash path any completions that still
  // fire may ack genuinely-durable ops, which is correct: wait() == false
  // means "outcome unknown", and these outcomes are known good.)
  std::lock_guard lock(apply_mu_);
  wal_.close();
}

ServiceStats KCoreService::stats() const {
  ServiceStats out;
  {
    std::lock_guard lock(stats_mu_);
    out = stats_;
  }
  out.submitted_ops = submitted_ops_.load(std::memory_order_relaxed);
  out.rejected_ops = rejected_ops_.load(std::memory_order_relaxed);
  out.blocked_submits = blocked_submits_.load(std::memory_order_relaxed);
  out.commit_lsn = commit_lsn_.load(std::memory_order_acquire);
  out.applied_lsn = applied_lsn_.load(std::memory_order_acquire);
  out.durable_lsn = durable_lsn();
  out.wal_engine = wal_engine_name(wal_engine_kind_);
  {
    const WalFlushStats fs = wal_.flush_stats();
    out.wal_flushes =
        fs.flushes - flush_baseline_.load(std::memory_order_relaxed);
    out.wal_flush_bytes =
        fs.flushed_bytes -
        flush_bytes_baseline_.load(std::memory_order_relaxed);
    out.wal_flush_depth = fs.flush_depth;
    out.wal_inflight_bytes = fs.inflight_bytes;
  }
  out.shard_depths.resize(num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard lock(shards_[s].mu);
    out.shard_depths[s] = shards_[s].pending.size();
  }
  return out;
}

void KCoreService::reset_stats() {
  std::lock_guard lock(stats_mu_);
  const std::size_t budget = stats_.batch_budget;
  stats_ = ServiceStats{};
  stats_.batch_budget = budget;
  submitted_ops_.store(0, std::memory_order_relaxed);
  rejected_ops_.store(0, std::memory_order_relaxed);
  blocked_submits_.store(0, std::memory_order_relaxed);
  const WalFlushStats fs = wal_.flush_stats();
  flush_baseline_.store(fs.flushes, std::memory_order_relaxed);
  flush_bytes_baseline_.store(fs.flushed_bytes, std::memory_order_relaxed);
}

}  // namespace cpkcore::service
