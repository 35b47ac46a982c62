// Write-ahead log for the serving layer: every coalesced batch is appended
// (one self-delimiting record per batch) and the whole drain cycle is
// flushed once — group commit — *before* the batch is applied to the CPLDS,
// so a restart can replay exactly the committed prefix of accepted work.
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
// encoded exactly once — the same bytes the shipper ring retains and
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
// At those two levels the parent directory is also fsynced on create,
// reset(), and compact(), so a freshly-created or just-compacted log's
// directory entry itself survives power failure (previously a documented
// gap: a crash in that window lost the whole file).
//
// The segment is preallocated ahead of the append frontier
// (fallocate FALLOC_FL_KEEP_SIZE, WalOptions::preallocate_bytes per step),
// so group commits extend into reserved extents instead of paying block
// allocation on the latency path; logical file size is unaffected.
//
// Commit engines (WalOptions::engine — see wal_async.hpp): with kSync the
// caller's flush() pays the write+sync itself (the pre-PR-7 path, still the
// default for standalone WriteAheadLog users); with an async engine
// (flusher thread or io_uring) commit_async() hands the buffered bytes to
// the engine and returns immediately — the *staged* LSN (everything
// appended) runs ahead of the *durable* LSN watermark (everything the
// engine completed), wait_durable() bridges the two, and the durable
// callback fires as the watermark advances. While an engine is active the
// log routes every byte through it (the engine owns its own non-O_APPEND
// fd and explicit offsets); reset()/compact()/close() drain and stop the
// engine around their exclusive rewrites and restart it after.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/batch.hpp"
#include "service/wal_async.hpp"
#include "service/wal_codec.hpp"
#include "util/types.hpp"

namespace cpkcore::obs {
class HealthMonitor;
}  // namespace cpkcore::obs

namespace cpkcore::service {

struct WalOptions {
  WalDurability durability = WalDurability::kOsCache;
  /// Preallocation step (bytes) ahead of the append frontier; 0 disables.
  std::size_t preallocate_bytes = std::size_t{4} << 20;
  /// Commit engine. kSync keeps flush() on the caller; kAuto/kFlusher/
  /// kIoUring run an async engine behind commit_async() (see wal_async.hpp
  /// for resolution and the CPKC_WAL_ENGINE override, kAuto only).
  WalEngine engine = WalEngine::kSync;

  /// Health plane (optional): with a monitor set, the log registers a
  /// heartbeat component for the engine's completion thread (named
  /// "<health_prefix>wal_flusher" / "...wal_reaper" after the resolved
  /// engine) each time an engine starts, and tombstones it when the engine
  /// stops — so a flusher wedged behind a hung disk classifies stalled.
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
  WalEngineKind engine = WalEngineKind::kSync;  ///< resolved commit engine
};

class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog() { close(); }

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens the log at `path` for an n-vertex structure. If the file exists,
  /// replays every committed batch through `on_batch` (in append order),
  /// truncates any uncommitted tail, and positions for appending;
  /// otherwise creates the file with a fresh header (base LSN 0). Throws
  /// std::runtime_error on IO errors or a vertex-count / magic mismatch.
  WalOpenInfo open(const std::string& path, vertex_t num_vertices,
                   const WalReplayFn& on_batch, WalOptions options = {});

  /// Appends one pre-encoded frame (buffered — not committed until
  /// flush()). The encode-once path: the caller encoded the batch, and the
  /// identical bytes go to disk here and to the shipper ring.
  void append(const WalFrame& frame);

  /// Appends one batch record under `lsn` (buffered), encoding a frame
  /// internally — convenience for tests/tools; the service uses
  /// append(const WalFrame&).
  /// LSNs must be consecutive; edges are logged as given (callers pass
  /// canonical deduplicated batches).
  void append(std::uint64_t lsn, const UpdateBatch& batch);

  /// Group commit: pushes every appended record to the OS in one write,
  /// then applies the configured durability level (fdatasync/fsync).
  /// With an async engine active this degenerates to commit_async() +
  /// wait_durable(staged) — every appended record is durable on return
  /// either way. Throws std::runtime_error if the write or sync failed.
  void flush();

  /// Pipelined group commit: hands the buffered records to the async
  /// engine and returns without waiting for the disk — the durable-LSN
  /// watermark advances (and the durable callback fires) when the engine
  /// completes them. Falls back to flush() when no engine is active. May
  /// block briefly on engine backpressure; throws after an engine failure.
  void commit_async();

  /// Last LSN handed to append() (= durable_lsn() in sync mode after each
  /// flush; runs ahead of it while async commits are in flight).
  [[nodiscard]] std::uint64_t staged_lsn() const {
    return staged_lsn_.load(std::memory_order_acquire);
  }

  /// The durable watermark: every record with LSN <= this has completed
  /// its configured durability level (for kOsCache: reached the OS cache).
  [[nodiscard]] std::uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Blocks until durable_lsn() >= min(lsn, staged_lsn()) — the clamp
  /// makes "wait for everything appended so far" spelled wait_durable(~0)
  /// safe. Callable from any thread concurrently with commits. Throws
  /// std::runtime_error if the engine failed.
  void wait_durable(std::uint64_t lsn);

  /// Replaces the durable callback (fires on the engine's completion
  /// thread, *before* wait_durable waiters wake — see wal_async.hpp; never
  /// fires in sync mode). Call before the first commit_async().
  void set_durable_callback(WalCommitEngine::DurableFn fn);

  /// Flush-pipeline counters, accumulated across engine restarts
  /// (compact()/reset()) and including sync-mode flushes.
  [[nodiscard]] WalFlushStats flush_stats() const;

  /// True when an async engine owns the flush path.
  [[nodiscard]] bool async_active() const;

  /// The engine actually running (kSync when none).
  [[nodiscard]] WalEngineKind engine_kind() const;

  /// Compaction to empty: truncates the log to a header whose base LSN is
  /// `base_lsn` (the LSN up to which the logical state has been persisted
  /// elsewhere — core/snapshot). Subsequent appends start at base_lsn + 1.
  void reset(std::uint64_t base_lsn);

  /// Compaction preserving the suffix: atomically rewrites the log so it
  /// holds exactly the committed records with LSN > `base_lsn` over a
  /// header whose base LSN is `base_lsn`. This is the streaming-checkpoint
  /// primitive: the snapshot covers (…, base_lsn] while updates kept
  /// committing past it, and only the (small) suffix is rewritten — the
  /// pause is proportional to the records committed since the cut, not to
  /// the structure size. Buffered appends are flushed first. Exclusive use
  /// only (no concurrent append/flush).
  void compact(std::uint64_t base_lsn);

  void close();

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t base_lsn() const { return base_lsn_; }

 private:
  void write_out(const unsigned char* data, std::size_t len);
  void sync_data();
  void sync_parent_dir() const;
  void ensure_preallocated(std::size_t upcoming);
  /// Builds + starts the configured engine at the current append frontier
  /// (call only with no bytes in flight: right after open/reset/compact).
  void start_engine();
  /// Drains, detaches, and stops the engine, folding its counters into the
  /// accumulated totals. No-op when none is active.
  void stop_engine(bool swallow_errors);
  [[nodiscard]] std::shared_ptr<WalCommitEngine> engine_snapshot() const;

  std::string path_;
  vertex_t num_vertices_ = 0;
  std::uint64_t base_lsn_ = 0;
  WalOptions options_;
  int fd_ = -1;
  std::vector<unsigned char> buf_;  ///< records awaiting the group commit
  std::uint64_t size_ = 0;  ///< logical file size (flushed + staged bytes)
  std::uint64_t prealloc_limit_ = 0;  ///< extent frontier already reserved

  WalEngineKind engine_kind_ = WalEngineKind::kSync;  ///< resolved at open
  /// Engine completion thread's health handle (tombstoned in stop_engine;
  /// a fresh one is registered per engine start so the name tracks the
  /// engine actually running).
  obs::HealthComponent* engine_heartbeat_ = nullptr;
  /// Active engine (null in sync mode / during exclusive rewrites). The
  /// pointer swap is under engine_mu_; cross-thread readers snapshot the
  /// shared_ptr and never hold engine_mu_ across an engine call that can
  /// block (stop() runs with engine_mu_ released — its completion thread
  /// takes engine_mu_ in the durable-callback wrapper).
  std::shared_ptr<WalCommitEngine> engine_;
  mutable std::mutex engine_mu_;
  WalCommitEngine::DurableFn durable_cb_;  ///< under engine_mu_
  std::atomic<std::uint64_t> staged_lsn_{0};
  std::atomic<std::uint64_t> durable_lsn_{0};
  /// Counters folded across engine restarts + sync-mode flushes (relaxed:
  /// monotone stats, read by flush_stats from any thread).
  std::atomic<std::uint64_t> acc_flushes_{0};
  std::atomic<std::uint64_t> acc_flushed_bytes_{0};
};

/// What scan_wal() / scan_wal_frames() found.
struct WalScanInfo {
  std::size_t records = 0;
  std::uint64_t base_lsn = 0;
  std::uint64_t last_lsn = 0;
  /// Bytes of the committed prefix, header included. Anything past this is
  /// a torn or corrupt tail (walcat --verify compares against file size).
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

/// Reads a WAL's header. Throws std::runtime_error on a missing/empty file
/// or unrecognized magic.
WalHeaderInfo read_wal_header(const std::string& path);

}  // namespace cpkcore::service
