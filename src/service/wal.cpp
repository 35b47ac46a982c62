#include "service/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/health.hpp"
#include "obs/trace.hpp"

namespace cpkcore::service {

namespace {

/// Extents reserved ahead of the append frontier per fallocate call.
constexpr std::uint64_t kPreallocateStep = std::uint64_t{4} << 20;

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

/// The one header check: a v4 magic line and a full 24-byte header.
WalHeaderInfo parse_header(const unsigned char* data, std::size_t size,
                           const std::string& path) {
  constexpr std::size_t kMagicLen = sizeof kWalMagicV4 - 1;
  if (size < kWalHeaderV4Bytes ||
      std::memcmp(data, kWalMagicV4, kMagicLen) != 0 ||
      data[kMagicLen] != '\n') {
    throw std::runtime_error("bad WAL header in " + path);
  }
  return {get_u32(data + 12), get_u64(data + 16)};
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open WAL: " + path);
  std::vector<unsigned char> out;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    out.insert(out.end(), buf, buf + in.gcount());
  }
  return out;
}

int open_log(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open WAL: " + path);
  return fd;
}

/// Atomically replaces `path` with `data`: a temp file published through
/// publish_file().
void replace_file(const std::string& path,
                  const std::vector<unsigned char>& data) {
  const std::string tmp = path + ".rewrite";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    out.close();
    if (!out) throw std::runtime_error("WAL write failed: " + tmp);
  }
  publish_file(tmp, path);
}

void pwrite_all(int fd, const unsigned char* data, std::size_t len,
                std::uint64_t offset, const std::string& path) {
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, data, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("WAL write failed: " + path);
    }
    data += n;
    len -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

void sync_fd(int fd, WalDurability durability, const std::string& path) {
  if (durability == WalDurability::kFdatasync) {
    if (::fdatasync(fd) != 0) {
      throw std::runtime_error("WAL fdatasync failed: " + path);
    }
  } else if (durability == WalDurability::kFsync) {
    if (::fsync(fd) != 0) {
      throw std::runtime_error("WAL fsync failed: " + path);
    }
  }
}

struct ParsedV4 {
  std::size_t committed_end = 0;
  std::size_t records = 0;
  std::uint64_t base_lsn = 0;
  std::uint64_t last_lsn = 0;
};

/// Walks the committed frames of a v4 image: header, then frames while each
/// parses, checksums, and continues the LSN sequence. The first torn /
/// corrupt / out-of-sequence frame ends the committed prefix. Throws on a
/// bad header only.
ParsedV4 parse_committed_v4(const std::vector<unsigned char>& image,
                            const std::string& path, vertex_t num_vertices,
                            const WalFrameFn& on_frame) {
  const WalHeaderInfo header = parse_header(image.data(), image.size(), path);
  if (header.num_vertices != num_vertices) {
    throw std::runtime_error("WAL vertex count mismatch in " + path);
  }
  ParsedV4 out;
  out.base_lsn = header.base_lsn;
  out.last_lsn = out.base_lsn;
  out.committed_end = kWalHeaderV4Bytes;
  std::size_t off = kWalHeaderV4Bytes;
  for (;;) {
    std::size_t consumed = 0;
    const WalFramePtr frame = WalFrame::try_parse(
        image.data() + off, image.size() - off, num_vertices, &consumed);
    if (frame == nullptr || frame->lsn() != out.last_lsn + 1) break;
    if (on_frame) on_frame(frame);
    ++out.records;
    out.last_lsn = frame->lsn();
    off += consumed;
    out.committed_end = off;
  }
  return out;
}

}  // namespace

void publish_file(const std::string& tmp, const std::string& path) {
  const int fd = ::open(tmp.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open " + tmp);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("fsync failed: " + tmp);
  std::filesystem::rename(tmp, path);
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                         O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) throw std::runtime_error("cannot open directory of " + path);
  const int drc = ::fsync(dfd);
  ::close(dfd);
  if (drc != 0) throw std::runtime_error("directory fsync failed: " + path);
}

WalOpenInfo WriteAheadLog::open(const std::string& path,
                                vertex_t num_vertices,
                                const WalReplayFn& on_batch,
                                WalOptions options) {
  close();
  path_ = path;
  num_vertices_ = num_vertices;
  options_ = std::move(options);
  buf_.clear();

  // A missing file, or an empty one (outside input: publish_file never
  // leaves one), opens fresh. A *non-empty* file with a bad header throws from
  // the scan and is left untouched — that is corruption (or the wrong
  // file), and silently overwriting it would destroy evidence.
  const WalScanInfo found = scan_wal(path, num_vertices, on_batch);
  if (found.committed_bytes == 0) {
    std::vector<unsigned char> header;
    append_wal_header_v4(header, num_vertices, 0);
    replace_file(path, header);
    size_ = header.size();
  } else {
    // Truncate the uncommitted tail before appending resumes.
    if (std::filesystem::file_size(path) > found.committed_bytes) {
      std::filesystem::resize_file(path, found.committed_bytes);
    }
    size_ = found.committed_bytes;
  }
  const int fd = open_log(path);
  try {
    // The replayed records may still sit only in the page cache (a crash
    // between the flusher's pwrite and its sync); sync them, and the
    // truncation, before durable_lsn() reports them durable.
    sync_fd(fd, options_.durability, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  fd_ = fd;
  base_lsn_ = found.base_lsn;
  prealloc_limit_ = size_;
  staged_lsn_.store(found.last_lsn, std::memory_order_relaxed);
  durable_lsn_.store(found.last_lsn, std::memory_order_relaxed);
  queue_.clear();
  flushes_ = 0;
  flushed_bytes_ = 0;
  inflight_items_ = 0;
  inflight_bytes_ = 0;
  in_callback_ = false;
  running_ = true;
  stopping_ = false;
  failed_ = false;
  error_.clear();
  if (options_.health != nullptr) {
    heartbeat_ = options_.health->register_thread(
        options_.health_prefix + "wal_flusher", options_.health_partition);
  }
  thread_ = std::thread([this] { run(); });
  return {found.records, found.last_lsn};
}

void WriteAheadLog::append(const WalFrame& frame) {
  buf_.insert(buf_.end(), frame.bytes().begin(), frame.bytes().end());
  staged_lsn_.store(frame.lsn(), std::memory_order_release);
}

void WriteAheadLog::append(std::uint64_t lsn, const UpdateBatch& batch) {
  append(*WalFrame::encode(lsn, batch));
}

void WriteAheadLog::flush() {
  if (fd_ < 0) throw std::runtime_error("WAL flush failed: " + path_);
  commit_async();
  wait_durable(staged_lsn_.load(std::memory_order_relaxed));
}

void WriteAheadLog::commit_async() {
  if (fd_ < 0) throw std::runtime_error("WAL commit failed: " + path_);
  if (buf_.empty()) return;
  ensure_preallocated(buf_.size());
  Flight flight;
  flight.offset = size_;
  flight.upto_lsn = staged_lsn_.load(std::memory_order_relaxed);
  flight.bytes.swap(buf_);
  size_ += flight.bytes.size();  // the flusher owns these offsets now
  std::lock_guard lock(mu_);
  if (failed_) throw std::runtime_error(error_);
  inflight_bytes_ += flight.bytes.size();
  ++inflight_items_;
  queue_.push_back(std::move(flight));
  work_cv_.notify_one();
}

void WriteAheadLog::wait_durable(std::uint64_t lsn) {
  lsn = std::min(lsn, staged_lsn_.load(std::memory_order_acquire));
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [&] {
    return failed_ || !running_ ||
           (durable_lsn_.load(std::memory_order_relaxed) >= lsn &&
            !in_callback_);
  });
  if (failed_) throw std::runtime_error(error_);
}

void WriteAheadLog::set_durable_callback(DurableFn fn) {
  std::lock_guard lock(mu_);
  durable_cb_ = std::move(fn);
}

WalFlushStats WriteAheadLog::flush_stats() const {
  std::lock_guard lock(mu_);
  WalFlushStats out;
  out.flushes = flushes_;
  out.flushed_bytes = flushed_bytes_;
  out.flush_depth = inflight_items_;
  out.inflight_bytes = inflight_bytes_;
  return out;
}

void WriteAheadLog::ensure_preallocated(std::size_t upcoming) {
#ifdef __linux__
  const std::uint64_t needed = size_ + upcoming;
  if (needed <= prealloc_limit_) return;
  std::uint64_t target = prealloc_limit_;
  while (target < needed) target += kPreallocateStep;
  // Best-effort (not every filesystem supports fallocate): reserving
  // extents ahead of the append frontier keeps block allocation off the
  // group-commit latency path; KEEP_SIZE leaves the logical size — and
  // therefore torn-tail truncation semantics — untouched.
  (void)::fallocate(fd_, FALLOC_FL_KEEP_SIZE,
                    static_cast<off_t>(prealloc_limit_),
                    static_cast<off_t>(target - prealloc_limit_));
  prealloc_limit_ = target;
#else
  (void)upcoming;
#endif
}

// Double buffer: commit_async() appends to the pending queue; the flusher
// swaps the whole queue out (the "other" buffer), pwrites every commit,
// syncs ONCE for the swap, then publishes the watermark and fires the
// callback. Backlog therefore compounds into larger group commits: the
// deeper the durability pipeline falls behind, the more commits each sync
// covers.
void WriteAheadLog::run() {
  CPKC_TRACE_THREAD_NAME("wal_flusher");
  for (;;) {
    std::deque<Flight> batch;
    int fd = -1;
    {
      std::unique_lock lock(mu_);
      // Parked on an empty queue is healthy, however long it lasts;
      // stamped busy again the moment a swap starts.
      if (heartbeat_ != nullptr && queue_.empty()) heartbeat_->idle();
      work_cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) break;  // stopping_, fully drained
      batch.swap(queue_);
      fd = fd_;  // compact() swaps fd_ only while nothing is in flight
    }
    if (heartbeat_ != nullptr) heartbeat_->busy();
    std::uint64_t bytes_written = 0;
    CPKC_TRACE_SPAN(flush_span, "wal_flush", batch.back().upto_lsn,
                    batch.size());
    try {
      for (const Flight& f : batch) {
        pwrite_all(fd, f.bytes.data(), f.bytes.size(), f.offset, path_);
        bytes_written += f.bytes.size();
      }
      sync_fd(fd, options_.durability, path_);
    } catch (const std::exception& e) {
      fail(e.what());
      return;
    }
    const std::uint64_t upto = batch.back().upto_lsn;
    if (heartbeat_ != nullptr) heartbeat_->beat();
    {
      // The watermark goes up before the callback runs (the service's
      // inline-ack check reads it lock-free), waiters wake after it.
      std::lock_guard lock(mu_);
      durable_lsn_.store(upto, std::memory_order_release);
      in_callback_ = true;
    }
    if (durable_cb_) durable_cb_(upto, nullptr);
    std::lock_guard lock(mu_);
    in_callback_ = false;
    flushes_ += 1;
    flushed_bytes_ += bytes_written;
    inflight_items_ -= batch.size();
    inflight_bytes_ -= bytes_written;
    done_cv_.notify_all();
  }
  std::lock_guard lock(mu_);
  running_ = false;
  done_cv_.notify_all();
}

void WriteAheadLog::fail(const std::string& what) {
  std::uint64_t durable = 0;
  {
    std::lock_guard lock(mu_);
    failed_ = true;
    running_ = false;
    error_ = what;
    durable = durable_lsn_.load(std::memory_order_relaxed);
    done_cv_.notify_all();
  }
  if (durable_cb_) durable_cb_(durable, &error_);
}

void WriteAheadLog::compact(std::uint64_t base_lsn) {
  // Drain: once the watermark covers staged_lsn() nothing is in flight,
  // the file holds every appended record, and the flusher is parked.
  flush();
  std::vector<unsigned char> image;
  append_wal_header_v4(image, num_vertices_, base_lsn);
  parse_committed_v4(slurp(path_), path_, num_vertices_,
                     [&](const WalFramePtr& f) {
                       if (f->lsn() > base_lsn) {
                         image.insert(image.end(), f->bytes().begin(),
                                      f->bytes().end());
                       }
                     });
  int old_fd = -1;
  try {
    replace_file(path_, image);
    old_fd = open_log(path_);
  } catch (const std::exception& e) {
    // fd_ may now point at the replaced, unlinked file: poison the log so
    // every later commit throws instead of being acked into it.
    std::lock_guard lock(mu_);
    failed_ = true;
    error_ = e.what();
    done_cv_.notify_all();
    throw;
  }
  {
    std::lock_guard lock(mu_);
    std::swap(fd_, old_fd);
  }
  ::close(old_fd);
  base_lsn_ = base_lsn;
  size_ = image.size();
  prealloc_limit_ = size_;
}

void WriteAheadLog::close() {
  if (fd_ < 0) return;
  try {
    commit_async();
  } catch (const std::exception&) {
  }
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (heartbeat_ != nullptr) {
    options_.health->unregister(heartbeat_);
    heartbeat_ = nullptr;
  }
  ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

WalScanInfo scan_wal(const std::string& path, vertex_t num_vertices,
                     const WalReplayFn& on_batch) {
  return scan_wal_frames(
      path, num_vertices,
      on_batch == nullptr ? WalFrameFn{} : WalFrameFn{[&](const WalFramePtr& f) {
        on_batch(f->lsn(), f->decode_batch());
      }});
}

WalScanInfo scan_wal_frames(const std::string& path, vertex_t num_vertices,
                            const WalFrameFn& on_frame) {
  namespace fs = std::filesystem;
  WalScanInfo info;
  if (!fs::exists(path) || fs::file_size(path) == 0) return info;
  const ParsedV4 parsed =
      parse_committed_v4(slurp(path), path, num_vertices, on_frame);
  info.records = parsed.records;
  info.base_lsn = parsed.base_lsn;
  info.last_lsn = parsed.last_lsn;
  info.committed_bytes = parsed.committed_end;
  return info;
}

WalHeaderInfo read_wal_header(const std::string& path) {
  unsigned char header[kWalHeaderV4Bytes];
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(header), sizeof header);
  const auto got = static_cast<std::size_t>(in.gcount());
  if (got == 0) throw std::runtime_error("missing or empty WAL: " + path);
  return parse_header(header, got, path);
}

}  // namespace cpkcore::service
