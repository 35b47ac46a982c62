#include "service/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/health.hpp"

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

bool starts_with(const std::vector<unsigned char>& data, const char* magic) {
  const std::size_t len = std::strlen(magic);
  return data.size() > len &&
         std::memcmp(data.data(), magic, len) == 0 &&
         data[len] == '\n';
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

void write_all_fd(int fd, const unsigned char* data, std::size_t len,
                  const std::string& path) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("WAL write failed: " + path);
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// Atomically replaces `path` with `data`: temp file, fsync (replacing a
/// log is not a place to risk an empty rename target on power loss),
/// rename, parent-dir fsync.
void replace_file(const std::string& path,
                  const std::vector<unsigned char>& data) {
  const std::string tmp = path + ".rewrite";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) throw std::runtime_error("cannot create " + tmp);
  try {
    write_all_fd(fd, data.data(), data.size(), tmp);
    if (::fsync(fd) != 0) throw std::runtime_error("fsync failed: " + tmp);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  std::filesystem::rename(tmp, path);
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                         O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
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
ParsedV4 parse_committed_v4(const unsigned char* data, std::size_t size,
                            const std::string& path, vertex_t num_vertices,
                            const WalFrameFn& on_frame) {
  if (size < kWalHeaderV4Bytes) {
    throw std::runtime_error("bad WAL header in " + path);
  }
  const vertex_t file_n = get_u32(data + 12);
  if (file_n != num_vertices) {
    throw std::runtime_error("WAL vertex count mismatch in " + path);
  }
  ParsedV4 out;
  out.base_lsn = get_u64(data + 16);
  out.last_lsn = out.base_lsn;
  out.committed_end = kWalHeaderV4Bytes;
  std::size_t off = kWalHeaderV4Bytes;
  for (;;) {
    std::size_t consumed = 0;
    const WalFramePtr frame =
        WalFrame::try_parse(data + off, size - off, num_vertices, &consumed);
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

WalOpenInfo WriteAheadLog::open(const std::string& path,
                                vertex_t num_vertices,
                                const WalReplayFn& on_batch,
                                WalOptions options) {
  close();
  path_ = path;
  num_vertices_ = num_vertices;
  base_lsn_ = 0;
  options_ = options;
  buf_.clear();
  size_ = 0;
  prealloc_limit_ = 0;
  staged_lsn_.store(0, std::memory_order_relaxed);
  durable_lsn_.store(0, std::memory_order_relaxed);
  acc_flushes_.store(0, std::memory_order_relaxed);
  acc_flushed_bytes_.store(0, std::memory_order_relaxed);

  namespace fs = std::filesystem;
  WalOpenInfo info;
  bool created = false;
  // A crash inside open()'s create-then-write-header window
  // leaves an existing zero-byte file; treat it as fresh rather than
  // bricking every subsequent restart. A *non-empty* file with a bad
  // header still throws — that is corruption (or the wrong file), and
  // silently overwriting it would destroy evidence.
  if (fs::exists(path) && fs::file_size(path) > 0) {
    const std::vector<unsigned char> contents = slurp(path);
    if (!starts_with(contents, kWalMagicV4)) {
      throw std::runtime_error("bad WAL header in " + path);
    }
    const ParsedV4 parsed = parse_committed_v4(
        contents.data(), contents.size(), path, num_vertices,
        on_batch == nullptr ? WalFrameFn{}
                            : WalFrameFn{[&](const WalFramePtr& f) {
                                on_batch(f->lsn(), f->decode_batch());
                              }});
    base_lsn_ = parsed.base_lsn;
    info.replayed = parsed.records;
    info.last_lsn = parsed.last_lsn;
    if (parsed.committed_end < contents.size()) {
      fs::resize_file(path, parsed.committed_end);
    }
    size_ = parsed.committed_end;
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd_ < 0) throw std::runtime_error("cannot append to WAL: " + path);
  } else {
    // O_APPEND like the reopen path: the flusher pwrites past this fd's
    // own offset, so a later write through fd_ (close()'s tail push) must
    // land at end of file.
    fd_ = ::open(path_.c_str(),
                 O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
    if (fd_ < 0) throw std::runtime_error("cannot create WAL: " + path);
    created = true;
    append_wal_header_v4(buf_, num_vertices_, base_lsn_);
  }
  prealloc_limit_ = size_;
  const std::uint64_t start_lsn = info.replayed > 0 ? info.last_lsn : base_lsn_;
  staged_lsn_.store(start_lsn, std::memory_order_relaxed);
  // flush() below writes through fd_ (the flusher starts after it), so the
  // header/truncation point is on disk before the flusher takes over.
  flush();
  // A freshly-created file only survives power failure once its directory
  // entry is durable too; at the sync durability levels, close that window
  // here.
  if (created && options_.durability != WalDurability::kOsCache) {
    sync_parent_dir();
  }
  start_flusher();
  return info;
}

void WriteAheadLog::start_flusher() {
  if (options_.health != nullptr) {
    // One heartbeat per flusher incarnation; the old handle was tombstoned
    // in stop_flusher.
    flusher_heartbeat_ = options_.health->register_thread(
        options_.health_prefix + "wal_flusher", options_.health_partition);
  }
  auto on_durable = [this](std::uint64_t lsn, const std::string* error) {
    if (error == nullptr) {
      // Monotone max (a restarted flusher re-seeds at the old staged LSN,
      // never below the published watermark).
      std::uint64_t cur = durable_lsn_.load(std::memory_order_relaxed);
      while (cur < lsn && !durable_lsn_.compare_exchange_weak(
                              cur, lsn, std::memory_order_release,
                              std::memory_order_relaxed)) {
      }
    }
    WalFlusher::DurableFn cb;
    {
      std::lock_guard lock(flusher_mu_);
      cb = durable_cb_;
    }
    if (cb) cb(lsn, error);
  };
  auto flusher = std::make_shared<WalFlusher>(
      path_, options_.durability, size_,
      staged_lsn_.load(std::memory_order_relaxed), std::move(on_durable),
      flusher_heartbeat_);
  std::lock_guard lock(flusher_mu_);
  flusher_ = std::move(flusher);
}

void WriteAheadLog::stop_flusher(bool swallow_errors) {
  std::shared_ptr<WalFlusher> flusher;
  {
    std::lock_guard lock(flusher_mu_);
    flusher = std::move(flusher_);
    flusher_ = nullptr;
  }
  if (flusher == nullptr) return;
  // stop() drains and joins with flusher_mu_ released: the flusher
  // thread's durable-callback wrapper takes flusher_mu_. Fold the stopped
  // flusher's counters + final watermark (its last *good* LSN even on a
  // failure — never past what actually hit the disk) either way.
  const auto fold = [&] {
    const WalFlushStats s = flusher->stats();
    acc_flushes_.fetch_add(s.flushes, std::memory_order_relaxed);
    acc_flushed_bytes_.fetch_add(s.flushed_bytes, std::memory_order_relaxed);
    const std::uint64_t final_lsn = flusher->durable_lsn();
    std::uint64_t cur = durable_lsn_.load(std::memory_order_relaxed);
    while (cur < final_lsn && !durable_lsn_.compare_exchange_weak(
                                  cur, final_lsn, std::memory_order_release,
                                  std::memory_order_relaxed)) {
    }
    // The flusher thread is joined by stop() on every path (failure
    // included), so the heartbeat can be tombstoned here.
    if (flusher_heartbeat_ != nullptr && options_.health != nullptr) {
      options_.health->unregister(flusher_heartbeat_);
      flusher_heartbeat_ = nullptr;
    }
  };
  try {
    flusher->stop(swallow_errors);
  } catch (...) {
    fold();
    throw;
  }
  fold();
}

std::shared_ptr<WalFlusher> WriteAheadLog::flusher_snapshot() const {
  std::lock_guard lock(flusher_mu_);
  return flusher_;
}

void WriteAheadLog::append(const WalFrame& frame) {
  buf_.insert(buf_.end(), frame.bytes().begin(), frame.bytes().end());
  staged_lsn_.store(frame.lsn(), std::memory_order_release);
}

void WriteAheadLog::append(std::uint64_t lsn, const UpdateBatch& batch) {
  append(*WalFrame::encode(lsn, batch));
}

void WriteAheadLog::write_out(const unsigned char* data, std::size_t len) {
  write_all_fd(fd_, data, len, path_);
}

void WriteAheadLog::flush() {
  if (fd_ < 0) throw std::runtime_error("WAL flush failed: " + path_);
  const std::shared_ptr<WalFlusher> flusher = flusher_snapshot();
  if (flusher != nullptr) {
    // A running flusher owns the append frontier (nothing goes through
    // fd_): a full flush is submit-everything + wait-for-the-watermark.
    commit_async();
    flusher->wait_durable(staged_lsn_.load(std::memory_order_acquire));
    return;
  }
  // No flusher: open()/compact() writing with it stopped.
  if (!buf_.empty()) {
    ensure_preallocated(buf_.size());
    const std::size_t bytes = buf_.size();
    write_out(buf_.data(), bytes);
    size_ += bytes;
    buf_.clear();
    acc_flushes_.fetch_add(1, std::memory_order_relaxed);
    acc_flushed_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  sync_data();
  durable_lsn_.store(staged_lsn_.load(std::memory_order_relaxed),
                     std::memory_order_release);
}

void WriteAheadLog::commit_async() {
  if (fd_ < 0) throw std::runtime_error("WAL commit failed: " + path_);
  const std::shared_ptr<WalFlusher> flusher = flusher_snapshot();
  if (flusher == nullptr) {
    flush();
    return;
  }
  if (buf_.empty()) return;
  // Preallocation goes through fd_ — same inode the flusher writes to, so
  // its extents land ahead of the flusher's append frontier all the same.
  ensure_preallocated(buf_.size());
  std::vector<unsigned char> bytes;
  bytes.swap(buf_);
  size_ += bytes.size();  // staged: the flusher owns these offsets now
  flusher->submit(std::move(bytes),
                  staged_lsn_.load(std::memory_order_relaxed));
}

void WriteAheadLog::wait_durable(std::uint64_t lsn) {
  const std::uint64_t staged = staged_lsn_.load(std::memory_order_acquire);
  if (lsn > staged) lsn = staged;
  if (durable_lsn_.load(std::memory_order_acquire) >= lsn) return;
  const std::shared_ptr<WalFlusher> flusher = flusher_snapshot();
  if (flusher != nullptr) flusher->wait_durable(lsn);
}

void WriteAheadLog::set_durable_callback(WalFlusher::DurableFn fn) {
  std::lock_guard lock(flusher_mu_);
  durable_cb_ = std::move(fn);
}

WalFlushStats WriteAheadLog::flush_stats() const {
  WalFlushStats out;
  out.flushes = acc_flushes_.load(std::memory_order_relaxed);
  out.flushed_bytes = acc_flushed_bytes_.load(std::memory_order_relaxed);
  const std::shared_ptr<WalFlusher> flusher = flusher_snapshot();
  if (flusher != nullptr) {
    const WalFlushStats live = flusher->stats();
    out.flushes += live.flushes;
    out.flushed_bytes += live.flushed_bytes;
    out.flush_depth = live.flush_depth;
    out.inflight_bytes = live.inflight_bytes;
  }
  return out;
}

void WriteAheadLog::sync_data() {
  if (options_.durability == WalDurability::kFdatasync) {
    if (::fdatasync(fd_) != 0) {
      throw std::runtime_error("WAL fdatasync failed: " + path_);
    }
  } else if (options_.durability == WalDurability::kFsync) {
    if (::fsync(fd_) != 0) {
      throw std::runtime_error("WAL fsync failed: " + path_);
    }
  }
}

void WriteAheadLog::sync_parent_dir() const {
  const std::string dir =
      std::filesystem::path(path_).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                         O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    throw std::runtime_error("cannot fsync WAL directory for: " + path_);
  }
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) {
    throw std::runtime_error("WAL directory fsync failed for: " + path_);
  }
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

void WriteAheadLog::compact(std::uint64_t base_lsn) {
  // Exclusive rewrite: drain + stop the flusher so no in-flight write can
  // land in the old inode, the slurp below sees every submitted byte, and
  // replace_file swaps a quiet inode. The flusher restarts at the new
  // frontier below.
  stop_flusher(/*swallow_errors=*/false);
  flush();  // the scan below must see every appended record
  std::vector<unsigned char> image;
  const std::vector<unsigned char> contents = slurp(path_);
  append_wal_header_v4(image, num_vertices_, base_lsn);
  parse_committed_v4(contents.data(), contents.size(), path_, num_vertices_,
                     [&](const WalFramePtr& f) {
                       if (f->lsn() > base_lsn) {
                         image.insert(image.end(), f->bytes().begin(),
                                      f->bytes().end());
                       }
                     });
  replace_file(path_, image);
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    throw std::runtime_error("cannot append to WAL: " + path_);
  }
  base_lsn_ = base_lsn;
  size_ = image.size();
  prealloc_limit_ = size_;
  start_flusher();
}

void WriteAheadLog::close() {
  // Best-effort drain of the flusher first (destructor path: errors are a
  // lost cause here; flush()/commit_async() are the throwing paths).
  stop_flusher(/*swallow_errors=*/true);
  if (fd_ < 0) return;
  // Best-effort final push of buffered records; close() runs from the
  // destructor, so IO errors are swallowed here (flush() is the throwing
  // path and every group commit goes through it).
  if (!buf_.empty()) {
    const unsigned char* data = buf_.data();
    std::size_t len = buf_.size();
    while (len > 0) {
      const ssize_t n = ::write(fd_, data, len);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      data += n;
      len -= static_cast<std::size_t>(n);
    }
    buf_.clear();
  }
  ::close(fd_);
  fd_ = -1;
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
  const std::vector<unsigned char> contents = slurp(path);
  if (!starts_with(contents, kWalMagicV4)) {
    throw std::runtime_error("bad WAL header in " + path);
  }
  const ParsedV4 parsed = parse_committed_v4(
      contents.data(), contents.size(), path, num_vertices, on_frame);
  info.records = parsed.records;
  info.base_lsn = parsed.base_lsn;
  info.last_lsn = parsed.last_lsn;
  info.committed_bytes = parsed.committed_end;
  return info;
}

WalHeaderInfo read_wal_header(const std::string& path) {
  namespace fs = std::filesystem;
  if (!fs::exists(path) || fs::file_size(path) == 0) {
    throw std::runtime_error("missing or empty WAL: " + path);
  }
  const std::vector<unsigned char> contents = slurp(path);
  if (!starts_with(contents, kWalMagicV4) ||
      contents.size() < kWalHeaderV4Bytes) {
    throw std::runtime_error("bad WAL header in " + path);
  }
  WalHeaderInfo info;
  info.num_vertices = get_u32(contents.data() + 12);
  info.base_lsn = get_u64(contents.data() + 16);
  return info;
}

}  // namespace cpkcore::service
