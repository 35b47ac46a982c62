#include "cluster/replica.hpp"

#include <utility>

#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace cpkcore::cluster {

Replica::Replica(const service::ServiceConfig& like) {
  CPLDS::Options options = like.cplds;
  options.reclaimer = &reclaimer_;
  ds_ = std::make_unique<CPLDS>(
      like.num_vertices,
      LDSParams::create(like.num_vertices, like.delta, like.lambda,
                        like.levels_per_group_cap),
      options);
}

void Replica::register_health(obs::HealthMonitor& monitor, std::string name,
                              int partition) {
  if (heartbeat_ != nullptr) return;  // one registration per replica
  health_ = &monitor;
  heartbeat_ = monitor.register_thread(std::move(name), partition);
}

void Replica::start(LogShipper& shipper) {
  if (started_) return;
  started_ = true;
  stopped_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    stop_requested_ = false;
  }
  apply_thread_ = std::thread([this] { apply_loop(); });
  shipper_ = &shipper;
  // Subscribing after the thread is up keeps catch-up delivery (which runs
  // on this thread, inside subscribe()) from backing up into the shipper:
  // records are only enqueued here, applied over there.
  subscription_ = shipper.subscribe(
      applied_lsn_.load(std::memory_order_relaxed),
      [this](const ShippedRecord& rec) { enqueue(rec); });
}

void Replica::stop() {
  if (!started_) return;
  started_ = false;
  // Unsubscribe first: after it returns no further enqueue runs, so the
  // queue the apply thread drains below is complete.
  if (shipper_ != nullptr) {
    shipper_->unsubscribe(subscription_);
    shipper_ = nullptr;
  }
  {
    std::lock_guard lock(mu_);
    stop_requested_ = true;
  }
  queue_cv_.notify_all();
  if (apply_thread_.joinable()) apply_thread_.join();
  {
    // Under mu_ so a wait_for_lsn between its predicate check and its
    // block cannot miss the wakeup.
    std::lock_guard lock(mu_);
    stopped_.store(true, std::memory_order_release);
  }
  applied_cv_.notify_all();
  // Tombstone after the join: the handle stays valid (the Router may
  // still hold it — a stopped replica just reads inactive/healthy), but
  // the watchdog stops classifying it.
  if (heartbeat_ != nullptr && health_ != nullptr) {
    health_->unregister(heartbeat_);
    heartbeat_ = nullptr;
    health_ = nullptr;
  }
}

void Replica::enqueue(const ShippedRecord& record) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(record);
  }
  queue_cv_.notify_one();
}

void Replica::apply_loop() {
  CPKC_TRACE_THREAD_NAME("replica_apply");
  for (;;) {
    ShippedRecord rec;
    {
      std::unique_lock lock(mu_);
      // Parked on an empty queue is healthy: idle stops the age clock.
      if (heartbeat_ != nullptr && queue_.empty()) heartbeat_->idle();
      const auto has_work = [&] { return stop_requested_ || !queue_.empty(); };
      // Idle for a scan interval: free the views the last records retired
      // rather than hold them until the next one.
      if (!queue_cv_.wait_for(lock, concurrent::Reclaimer::kScanInterval,
                              has_work) &&
          reclaimer_.stats().limbo > 0) {
        lock.unlock();
        reclaimer_.try_reclaim();
        lock.lock();
      }
      queue_cv_.wait(lock, has_work);
      if (queue_.empty()) return;  // stop requested and fully drained
      rec = std::move(queue_.front());
      queue_.pop_front();
      if (heartbeat_ != nullptr) heartbeat_->busy();
    }
    // Decode and apply outside the lock: the shipper's enqueue must never
    // wait on either (that would stall the primary's commit path). This is
    // the pipeline's single decode — the frame traveled encoded from the
    // primary's group commit all the way to this thread.
    CPKC_TRACE_SPAN(apply_span, "replica.apply", rec.lsn, 0);
    Timer timer;
    const UpdateBatch batch = rec.frame->decode_batch();
    const std::size_t edges = ds_->apply(batch).size();
    const double seconds = static_cast<double>(timer.elapsed_ns()) * 1e-9;
    applied_lsn_.store(rec.lsn, std::memory_order_release);
    {
      std::lock_guard lock(mu_);
      applied_batches_ += 1;
      applied_edges_ += edges;
      apply_seconds_ += seconds;
    }
    applied_cv_.notify_all();
  }
}

bool Replica::wait_for_lsn(std::uint64_t lsn) const {
  if (applied_lsn_.load(std::memory_order_acquire) >= lsn) return true;
  std::unique_lock lock(mu_);
  applied_cv_.wait(lock, [&] {
    return applied_lsn_.load(std::memory_order_relaxed) >= lsn ||
           stopped_.load(std::memory_order_relaxed);
  });
  return applied_lsn_.load(std::memory_order_relaxed) >= lsn;
}

Replica::Stats Replica::stats() const {
  std::lock_guard lock(mu_);
  Stats out;
  out.applied_lsn = applied_lsn_.load(std::memory_order_relaxed);
  out.applied_batches = applied_batches_;
  out.applied_edges = applied_edges_;
  out.queue_depth = queue_.size();
  out.apply_seconds = apply_seconds_;
  return out;
}

}  // namespace cpkcore::cluster
