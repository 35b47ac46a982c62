// Asynchronous WAL commit — the durability half of the pipelined group
// commit.
//
// Every committed batch is an immutable encoded WalFrame; without this
// file the apply thread would pay the syscall tail itself: one buffered
// write(2) plus (at the sync durability levels) an fdatasync/fsync per
// drain cycle, serializing apply, ack, and shipping behind the disk. The
// WalFlusher takes that tail off the apply thread: the WriteAheadLog hands
// it the cycle's already-encoded bytes (submit() — a move, no copy) and the
// flusher completes them in the background, advancing a *durable-LSN
// watermark* and firing a completion callback the service uses to ack
// tickets and fire commit listeners. Cycle N+1 applies while cycle N's
// flush is in flight.
//
//   apply thread ──submit(bytes, upto_lsn)──▶ flusher queue ──▶ disk
//        │                                        │
//        ▼                                        ▼  (flusher thread)
//     applied (CPLDS mutated, frames shipped)   durable(upto_lsn) callback
//                                               → watermark, acks, listeners
//
// The flusher thread swaps out the queue of pending commits (double
// buffer), pwrite(2)s them, syncs once per swap — so backlogged commits
// batch into one sync, group commit compounding under load — and advances
// the watermark.
//
// The flusher opens its own non-O_APPEND fd on the log and writes at
// explicit tracked offsets (Linux ignores pwrite offsets on O_APPEND fds),
// so it never interleaves with the WriteAheadLog's synchronous fd: the log
// routes *all* appends through the flusher while one runs, and stops it
// (draining) around compact()/close().
//
// Completion-callback ordering contract: the flusher invokes the durable
// callback *before* it publishes the new watermark or wakes wait_durable
// waiters, so "wait_durable(L) returned" implies "every completion callback
// for LSNs <= L has finished" — the service relies on this to make
// shutdown's final drain leave no ack in flight. Errors (write/sync
// failure) surface once through the callback (error != nullptr) and then
// from every subsequent submit()/wait_durable()/stop() as
// std::runtime_error; the watermark never advances past the failure.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cpkcore::obs {
class HealthComponent;
}  // namespace cpkcore::obs

namespace cpkcore::service {

/// What a group commit pushes the cycle's records to (see wal.hpp header).
enum class WalDurability { kOsCache, kFdatasync, kFsync };

/// Flush-pipeline counters and gauges (ServiceStats surfaces them).
struct WalFlushStats {
  std::uint64_t flushes = 0;        ///< completed flushes (syncs)
  std::uint64_t flushed_bytes = 0;  ///< bytes made durable by those flushes
  std::size_t flush_depth = 0;      ///< gauge: commits submitted, not done
  std::size_t inflight_bytes = 0;   ///< gauge: bytes of those commits
};

/// The flusher-thread commit engine. Thread-safe: submit() is called by the
/// apply thread, wait_durable/stats by any thread, the callback fires on the
/// flusher thread. stop() drains in-flight work and joins.
class WalFlusher {
 public:
  /// (new durable watermark, nullptr) on success; (last good watermark,
  /// &message) once on failure. Runs on the flusher thread; see the
  /// ordering contract in the file header.
  using DurableFn =
      std::function<void(std::uint64_t durable_lsn, const std::string* error)>;

  /// Starts a flusher appending to `path` from byte `start_offset`, with
  /// the watermark seeded at `start_lsn`; `on_durable` (may be empty) is
  /// the completion callback. Throws std::runtime_error when the file
  /// can't be opened.
  ///
  /// `heartbeat` (optional) is the flusher thread's health-plane handle: it
  /// is marked idle around the queue wait and beats per swap. The caller
  /// owns registration/unregistration; the flusher only stamps it.
  WalFlusher(const std::string& path, WalDurability durability,
             std::uint64_t start_offset, std::uint64_t start_lsn,
             DurableFn on_durable, obs::HealthComponent* heartbeat = nullptr);
  ~WalFlusher() { stop(/*swallow_errors=*/true); }

  WalFlusher(const WalFlusher&) = delete;
  WalFlusher& operator=(const WalFlusher&) = delete;

  /// Queues one commit: `bytes` (moved — the encode-once buffer, never
  /// copied again) covering every record up to and including `upto_lsn`.
  /// Submissions must carry non-decreasing upto_lsn. Never waits for the
  /// disk: this queue is unbounded. The service stages one commit per
  /// drain cycle, and its `wal_flush_depth`, `applied_lsn` and
  /// `durable_lsn` gauges show the applied LSN running ahead of the durable
  /// watermark. Throws std::runtime_error after a failure.
  void submit(std::vector<unsigned char> bytes, std::uint64_t upto_lsn);

  /// Blocks until the watermark reaches `lsn` (callbacks for it included —
  /// see header). Throws std::runtime_error if the flusher failed first.
  void wait_durable(std::uint64_t lsn);

  [[nodiscard]] std::uint64_t durable_lsn() const;
  [[nodiscard]] WalFlushStats stats() const;

  /// Drains in-flight commits, joins the flusher thread, closes its fd.
  /// With swallow_errors (destructor/crash paths) a failure is dropped;
  /// otherwise it rethrows. Idempotent.
  void stop(bool swallow_errors);

 private:
  struct Flight {
    std::uint64_t offset = 0;
    std::uint64_t upto_lsn = 0;
    std::vector<unsigned char> bytes;
  };

  void run();
  void fail(const std::string& what);

  const std::string path_;
  const WalDurability durability_;
  int fd_ = -1;
  const DurableFn on_durable_;
  obs::HealthComponent* const heartbeat_;  ///< owned by the caller

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<Flight> queue_;       // under mu_ (the "front" buffer)
  std::uint64_t next_offset_ = 0;  // under mu_ (submitter side)
  std::uint64_t durable_ = 0;      // under mu_
  std::uint64_t flushes_ = 0;      // under mu_
  std::uint64_t flushed_bytes_ = 0;   // under mu_
  std::size_t inflight_items_ = 0;    // under mu_
  std::size_t inflight_bytes_ = 0;    // under mu_
  bool stopping_ = false;  // under mu_
  bool exited_ = false;    // under mu_
  bool failed_ = false;    // under mu_
  std::string error_;      // under mu_

  std::thread thread_;
};

}  // namespace cpkcore::service
