// Write-ahead log for the serving layer: every coalesced batch is appended
// (one self-delimiting record per batch) and the whole drain cycle is
// committed once — group commit — *before* the batch is applied to the
// CPLDS, so a restart can replay exactly the committed prefix of accepted
// work.
//
// Every batch carries a log sequence number (LSN), assigned monotonically by
// the service. The LSN is the cluster layer's replication cursor: replicas
// track the last LSN they applied, and the router's read-your-writes
// sessions pin reads to "at or after my last acked LSN".
//
// On-disk format (see wal_codec.hpp for the frame layout): a 24-byte
// header (magic "cpkc-wal-v4\n", num_vertices, base_lsn) followed by
// length-prefixed, CRC32-trailered binary WalFrames.
// append(const WalFrame&) is a buffered memcpy of bytes the apply thread
// encoded exactly once — the same bytes the log shipper fans out and
// replicas decode.
//
// `base_lsn` is the LSN as of the last compaction: the log holds exactly
// LSNs (base_lsn, last_lsn], consecutively. A batch is durable iff its full
// frame parses on replay AND its checksum matches; a truncated tail (crash
// between append and group commit), a torn length prefix, and a
// bit-flipped payload are treated identically — discarded, and the file is
// truncated back to the last committed byte before appending resumes. A
// file whose first line is not the v4 magic is rejected with "bad WAL
// header" and left untouched.
//
// Durability is configurable at the group-commit point (WalOptions):
//   kOsCache   buffered write only — survives process crashes (the default,
//              and what the crash tests simulate)
//   kFdatasync fdatasync(2) per group commit — survives power failure
//              (file length of an append-only log is data, so fdatasync
//              suffices for the record payload)
//   kFsync     fsync(2) per group commit — fdatasync plus metadata
// Whole-file replacements (creating a log, compacting it, publishing a
// snapshot) go through publish_file(): temp file, fsync, rename, directory
// fsync, so the file's name and contents survive power failure at every
// level.
//
// One writer. An open log owns exactly one fd (not O_APPEND: Linux ignores
// pwrite offsets on O_APPEND fds) and one flusher thread, from open() to
// close(). commit_async() hands the buffered bytes, tagged with their file
// offset, to the flusher and returns at once; the flusher swaps out the
// queue of pending commits (double buffer), pwrite(2)s them, syncs ONCE
// per swap — so backlogged commits batch into one sync, group commit
// compounding under load — and advances the durable watermark:
//
//   apply thread ──commit_async()──▶ queue ──▶ flusher thread ──▶ disk
//                                              durable callback, then
//                                              wait_durable waiters wake
//
// The *staged* LSN (everything appended) runs ahead of the *durable* LSN
// watermark (everything the flusher completed); wait_durable() bridges the
// two, and flush() is commit_async() + wait_durable(). compact() drains the
// queue, rewrites the file and swaps the fd under the flusher's mutex with
// nothing in flight; close() commits the buffered tail and stops the thread.
//
// Completion-callback ordering contract: durable_lsn() is published just
// before the durable callback runs, and wait_durable waiters wake only after
// it returns, so "wait_durable(L) returned" implies "every completion
// callback for LSNs <= L has finished" — the service relies on this to make
// shutdown's final drain leave no ack in flight. A write or sync failure
// surfaces once through the callback (error != nullptr) and then from every
// later commit_async()/flush()/wait_durable() as std::runtime_error; the
// watermark never advances past the failure.
//
// The segment is preallocated ahead of the append frontier
// (fallocate FALLOC_FL_KEEP_SIZE, in fixed 4 MiB steps),
// so group commits extend into reserved extents instead of paying block
// allocation on the latency path; logical file size is unaffected.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/batch.hpp"
#include "service/wal_codec.hpp"
#include "util/types.hpp"

namespace cpkcore::obs {
class HealthMonitor;
class HealthComponent;
}  // namespace cpkcore::obs

namespace cpkcore::service {

/// What a group commit pushes the cycle's records to (see file header).
enum class WalDurability { kOsCache, kFdatasync, kFsync };

/// Flush-pipeline counters and gauges (ServiceStats surfaces them).
struct WalFlushStats {
  std::uint64_t flushes = 0;        ///< completed flushes (syncs)
  std::uint64_t flushed_bytes = 0;  ///< bytes made durable by those flushes
  std::size_t flush_depth = 0;      ///< gauge: commits submitted, not done
  std::size_t inflight_bytes = 0;   ///< gauge: bytes of those commits
};

struct WalOptions {
  WalDurability durability = WalDurability::kOsCache;

  /// Health plane (optional): with a monitor set, the log registers a
  /// heartbeat component "<health_prefix>wal_flusher" for the flusher
  /// thread at open() and tombstones it at close() — so a flusher wedged
  /// behind a hung disk classifies stalled.
  obs::HealthMonitor* health = nullptr;
  std::string health_prefix;  ///< usually "" or "p<p>."
  int health_partition = -1;  ///< partition id for rollups (-1 = none)
};

/// Replay/scan callback: (lsn, batch), in strictly increasing LSN order.
using WalReplayFn = std::function<void(std::uint64_t, const UpdateBatch&)>;
/// Frame-scan callback: encoded frames, no payload decode.
using WalFrameFn = std::function<void(const WalFramePtr&)>;

/// What open() found in an existing log.
struct WalOpenInfo {
  std::size_t replayed = 0;      ///< committed batches replayed
  std::uint64_t last_lsn = 0;    ///< last committed LSN (= base_lsn if none)
};

class WriteAheadLog {
 public:
  /// (new durable watermark, nullptr) on success; (last good watermark,
  /// &message) once on failure. Runs on the flusher thread; see the
  /// ordering contract in the file header.
  using DurableFn =
      std::function<void(std::uint64_t durable_lsn, const std::string* error)>;

  WriteAheadLog() = default;
  ~WriteAheadLog() { close(); }

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens the log at `path` for an n-vertex structure and starts its
  /// flusher thread. If the file exists and is non-empty, replays every
  /// committed batch through `on_batch` (in append order), truncates any
  /// uncommitted tail, syncs the file at the configured level (so replayed
  /// records are durable before durable_lsn() covers them), and positions
  /// for appending; otherwise creates the
  /// file with a fresh header (base LSN 0) through publish_file(). Throws
  /// std::runtime_error on IO errors or a vertex-count / magic mismatch.
  WalOpenInfo open(const std::string& path, vertex_t num_vertices,
                   const WalReplayFn& on_batch, WalOptions options = {});

  /// Appends one pre-encoded frame (buffered — not committed until
  /// commit_async()/flush()). The encode-once path: the caller encoded the
  /// batch, and the identical bytes go to disk here and to the shipper.
  void append(const WalFrame& frame);

  /// Appends one batch record under `lsn` (buffered), encoding a frame
  /// internally — convenience for tests/tools; the service uses
  /// append(const WalFrame&).
  /// LSNs must be consecutive; edges are logged as given (callers pass
  /// canonical deduplicated batches).
  void append(std::uint64_t lsn, const UpdateBatch& batch);

  /// Group commit: commit_async() + wait_durable(staged) — every appended
  /// record has reached the configured durability level (fdatasync/fsync)
  /// on return. Throws std::runtime_error if the write or sync failed.
  void flush();

  /// Pipelined group commit: hands the buffered records to the flusher and
  /// returns without waiting for the disk — the durable-LSN watermark
  /// advances (and the durable callback fires) when the flusher completes
  /// them. Never waits: the queue is unbounded (the service stages one
  /// commit per drain cycle). Throws after a flusher failure.
  void commit_async();

  /// Last LSN handed to append() (runs ahead of durable_lsn() while
  /// commits are in flight).
  [[nodiscard]] std::uint64_t staged_lsn() const {
    return staged_lsn_.load(std::memory_order_acquire);
  }

  /// The durable watermark: every record with LSN <= this has completed
  /// its configured durability level (for kOsCache: reached the OS cache).
  [[nodiscard]] std::uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Blocks until durable_lsn() >= min(lsn, staged_lsn()) and the durable
  /// callback that got it there has returned — the clamp makes "wait for
  /// everything appended so far" spelled wait_durable(~0) safe. Callable
  /// from any thread concurrently with commits; returns at once on a closed
  /// log. Throws std::runtime_error if the flusher failed.
  void wait_durable(std::uint64_t lsn);

  /// Replaces the durable callback (fires on the flusher thread, *before*
  /// wait_durable waiters wake — see the file header). Call before the
  /// first commit_async().
  void set_durable_callback(DurableFn fn);

  /// Flush-pipeline counters since open().
  [[nodiscard]] WalFlushStats flush_stats() const;

  /// Compaction preserving the suffix: atomically rewrites the log so it
  /// holds exactly the committed records with LSN > `base_lsn` over a
  /// header whose base LSN is `base_lsn`. This is the streaming-checkpoint
  /// primitive: the snapshot covers (…, base_lsn] while updates kept
  /// committing past it, and only the (small) suffix is rewritten — the
  /// pause is proportional to the records committed since the cut, not to
  /// the structure size. Buffered appends are flushed first; the flusher
  /// thread keeps running. Exclusive use only (no concurrent
  /// append/commit). A failure poisons the log: later commits throw.
  void compact(std::uint64_t base_lsn);

  /// Commits the buffered tail, drains the queue and stops the flusher
  /// thread. Errors are swallowed (this runs from the destructor; flush()
  /// is the throwing path).
  void close();

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t base_lsn() const { return base_lsn_; }

 private:
  /// One commit: bytes bound for file offset `offset`, covering every
  /// record up to and including `upto_lsn`.
  struct Flight {
    std::uint64_t offset = 0;
    std::uint64_t upto_lsn = 0;
    std::vector<unsigned char> bytes;
  };

  void run();  ///< the flusher thread
  void fail(const std::string& what);
  void ensure_preallocated(std::size_t upcoming);

  // Owned by the thread that opens, appends, commits, compacts and closes
  // (the service's apply thread, under its apply lock).
  std::string path_;
  vertex_t num_vertices_ = 0;
  std::uint64_t base_lsn_ = 0;
  WalOptions options_;
  int fd_ = -1;  ///< also written under mu_ (the flusher reads it there)
  std::vector<unsigned char> buf_;  ///< records awaiting the group commit
  std::uint64_t size_ = 0;  ///< append frontier: flushed + submitted bytes
  std::uint64_t prealloc_limit_ = 0;  ///< extent frontier already reserved
  obs::HealthComponent* heartbeat_ = nullptr;  ///< the flusher's, if any
  std::atomic<std::uint64_t> staged_lsn_{0};

  // Shared with the flusher thread.
  std::atomic<std::uint64_t> durable_lsn_{0};  ///< stored under mu_
  DurableFn durable_cb_;  ///< set under mu_, before the first commit
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<Flight> queue_;        // under mu_ (the "front" buffer)
  std::uint64_t flushes_ = 0;       // under mu_
  std::uint64_t flushed_bytes_ = 0;   // under mu_
  std::size_t inflight_items_ = 0;    // under mu_
  std::size_t inflight_bytes_ = 0;    // under mu_
  bool in_callback_ = false;  // under mu_: the durable callback is running
  bool running_ = false;      // under mu_: the flusher has not exited
  bool stopping_ = false;     // under mu_
  bool failed_ = false;       // under mu_
  std::string error_;         // under mu_
  std::thread thread_;
};

/// Durably publishes `tmp` — fully written and closed — as `path`: fsyncs
/// the file, renames it over `path`, and fsyncs the parent directory, so a
/// power loss afterwards leaves the complete new file under `path`. The
/// WAL's create and compaction and the service's snapshot publish all go
/// through it. Throws std::runtime_error on failure.
void publish_file(const std::string& tmp, const std::string& path);

/// What scan_wal() / scan_wal_frames() found.
struct WalScanInfo {
  std::size_t records = 0;
  std::uint64_t base_lsn = 0;
  std::uint64_t last_lsn = 0;
  /// Bytes of the committed prefix, header included (0 for a missing or
  /// empty file). Anything past this is a torn or corrupt tail (walcat
  /// --verify compares against file size).
  std::uint64_t committed_bytes = 0;
};

/// Read-only scan of a WAL's committed prefix, safe to run while another
/// process/thread appends to the same file (a partially flushed tail
/// simply ends the scan). A missing or empty file scans as
/// zero records. Throws std::runtime_error on a magic/vertex-count
/// mismatch.
WalScanInfo scan_wal(const std::string& path, vertex_t num_vertices,
                     const WalReplayFn& on_batch);

/// Like scan_wal, but delivers encoded frames: the bytes are lifted
/// straight off disk with no payload decode — the cluster layer's
/// late-joiner catch-up path, which ships the identical bytes the live
/// stream carries.
WalScanInfo scan_wal_frames(const std::string& path, vertex_t num_vertices,
                            const WalFrameFn& on_frame);

/// A WAL file's identity, read without scanning records (walcat, tooling).
struct WalHeaderInfo {
  vertex_t num_vertices = 0;
  std::uint64_t base_lsn = 0;
};

/// Reads a WAL's 24-byte header only. Throws std::runtime_error on a
/// missing/empty file or unrecognized magic.
WalHeaderInfo read_wal_header(const std::string& path);

}  // namespace cpkcore::service
