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
// At those two levels the parent directory is also fsynced on create and
// compact(), so a freshly-created or just-compacted log's
// directory entry itself survives power failure (previously a documented
// gap: a crash in that window lost the whole file).
//
// The segment is preallocated ahead of the append frontier
// (fallocate FALLOC_FL_KEEP_SIZE, in fixed 4 MiB steps),
// so group commits extend into reserved extents instead of paying block
// allocation on the latency path; logical file size is unaffected.
//
// Pipelined commit (see wal_async.hpp): an open log runs a WalFlusher
// thread, and commit_async() hands the buffered bytes to it and returns
// immediately — the *staged* LSN (everything appended) runs ahead of the
// *durable* LSN watermark (everything the flusher completed),
// wait_durable() bridges the two, and the durable callback fires as the
// watermark advances. flush() is commit_async() + wait_durable(). The
// flusher owns its own non-O_APPEND fd and explicit offsets, so the log
// routes every byte through it; compact() and close() drain and stop the
// flusher around their exclusive rewrites (compact() restarts it after).
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

  /// Health plane (optional): with a monitor set, the log registers a
  /// heartbeat component "<health_prefix>wal_flusher" for the flusher
  /// thread each time a flusher starts, and tombstones it when the flusher
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

  /// Group commit: commit_async() + wait_durable(staged) — every appended
  /// record has reached the configured durability level (fdatasync/fsync)
  /// on return. Throws std::runtime_error if the write or sync failed.
  void flush();

  /// Pipelined group commit: hands the buffered records to the flusher and
  /// returns without waiting for the disk — the durable-LSN watermark
  /// advances (and the durable callback fires) when the flusher completes
  /// them. Throws after a flusher failure.
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

  /// Blocks until durable_lsn() >= min(lsn, staged_lsn()) — the clamp
  /// makes "wait for everything appended so far" spelled wait_durable(~0)
  /// safe. Callable from any thread concurrently with commits. Throws
  /// std::runtime_error if the flusher failed.
  void wait_durable(std::uint64_t lsn);

  /// Replaces the durable callback (fires on the flusher thread, *before*
  /// wait_durable waiters wake — see wal_async.hpp). Call before the first
  /// commit_async().
  void set_durable_callback(WalFlusher::DurableFn fn);

  /// Flush-pipeline counters, accumulated across flusher restarts
  /// (compact()) and including the header write open() makes.
  [[nodiscard]] WalFlushStats flush_stats() const;

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
  /// Builds + starts a flusher at the current append frontier (call only
  /// with no bytes in flight: right after open/compact).
  void start_flusher();
  /// Drains, detaches, and stops the flusher, folding its counters into
  /// the accumulated totals. No-op when none is running.
  void stop_flusher(bool swallow_errors);
  [[nodiscard]] std::shared_ptr<WalFlusher> flusher_snapshot() const;

  std::string path_;
  vertex_t num_vertices_ = 0;
  std::uint64_t base_lsn_ = 0;
  WalOptions options_;
  int fd_ = -1;
  std::vector<unsigned char> buf_;  ///< records awaiting the group commit
  std::uint64_t size_ = 0;  ///< logical file size (flushed + staged bytes)
  std::uint64_t prealloc_limit_ = 0;  ///< extent frontier already reserved

  /// Flusher thread's health handle (tombstoned in stop_flusher; a fresh
  /// one is registered per flusher start).
  obs::HealthComponent* flusher_heartbeat_ = nullptr;
  /// Running flusher (null while closed and during exclusive rewrites).
  /// The pointer swap is under flusher_mu_; cross-thread readers snapshot
  /// the shared_ptr and never hold flusher_mu_ across a flusher call that
  /// can block (stop() runs with flusher_mu_ released — the flusher thread
  /// takes flusher_mu_ in the durable-callback wrapper).
  std::shared_ptr<WalFlusher> flusher_;
  mutable std::mutex flusher_mu_;
  WalFlusher::DurableFn durable_cb_;  ///< under flusher_mu_
  std::atomic<std::uint64_t> staged_lsn_{0};
  std::atomic<std::uint64_t> durable_lsn_{0};
  /// Counters folded across flusher restarts + header writes (relaxed:
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
