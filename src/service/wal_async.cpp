#include "service/wal_async.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <utility>

#include "obs/health.hpp"
#include "obs/trace.hpp"

namespace cpkcore::service {

namespace {

int open_flusher_fd(const std::string& path) {
  // Deliberately NOT O_APPEND: the flusher writes at explicit tracked
  // offsets, and Linux ignores the pwrite offset on O_APPEND fds — every
  // write would silently land at the (racing) end of file instead.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("WAL flusher: cannot open " + path);
  }
  return fd;
}

void pwrite_all(int fd, const unsigned char* data, std::size_t len,
                std::uint64_t offset, const std::string& path) {
  while (len > 0) {
    const ssize_t n =
        ::pwrite(fd, data, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("WAL flusher write failed: " + path);
    }
    data += n;
    len -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

void sync_fd(int fd, WalDurability durability, const std::string& path) {
  if (durability == WalDurability::kFdatasync) {
    if (::fdatasync(fd) != 0) {
      throw std::runtime_error("WAL flusher fdatasync failed: " + path);
    }
  } else if (durability == WalDurability::kFsync) {
    if (::fsync(fd) != 0) {
      throw std::runtime_error("WAL flusher fsync failed: " + path);
    }
  }
}

}  // namespace

// Double buffer: submit() appends to the pending queue; the flusher swaps
// the whole queue out (the "other" buffer), pwrites every commit, syncs
// ONCE for the swap, then fires the callback and advances the watermark.
// Backlog therefore compounds into larger group commits: the deeper the
// durability pipeline falls behind, the more commits each sync covers.
WalFlusher::WalFlusher(const std::string& path, WalDurability durability,
                       std::uint64_t start_offset, std::uint64_t start_lsn,
                       DurableFn on_durable, obs::HealthComponent* heartbeat)
    : path_(path),
      durability_(durability),
      fd_(open_flusher_fd(path)),
      on_durable_(std::move(on_durable)),
      heartbeat_(heartbeat),
      next_offset_(start_offset),
      durable_(start_lsn) {
  thread_ = std::thread([this] { run(); });
}

void WalFlusher::submit(std::vector<unsigned char> bytes,
                        std::uint64_t upto_lsn) {
  if (bytes.empty()) return;
  std::lock_guard lock(mu_);
  if (failed_) throw std::runtime_error(error_);
  if (stopping_) {
    throw std::runtime_error("WAL flusher: submit after stop: " + path_);
  }
  Flight flight;
  flight.offset = next_offset_;
  flight.upto_lsn = upto_lsn;
  flight.bytes = std::move(bytes);
  next_offset_ += flight.bytes.size();
  inflight_bytes_ += flight.bytes.size();
  ++inflight_items_;
  queue_.push_back(std::move(flight));
  work_cv_.notify_one();
}

void WalFlusher::wait_durable(std::uint64_t lsn) {
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [&] {
    return failed_ || durable_ >= lsn || (exited_ && queue_.empty());
  });
  if (failed_) throw std::runtime_error(error_);
}

std::uint64_t WalFlusher::durable_lsn() const {
  std::lock_guard lock(mu_);
  return durable_;
}

WalFlushStats WalFlusher::stats() const {
  std::lock_guard lock(mu_);
  WalFlushStats out;
  out.flushes = flushes_;
  out.flushed_bytes = flushed_bytes_;
  out.flush_depth = inflight_items_;
  out.inflight_bytes = inflight_bytes_;
  return out;
}

void WalFlusher::stop(bool swallow_errors) {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    work_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!swallow_errors) {
    std::lock_guard lock(mu_);
    if (failed_) throw std::runtime_error(error_);
  }
}

void WalFlusher::run() {
  CPKC_TRACE_THREAD_NAME("wal_flusher");
  for (;;) {
    std::deque<Flight> batch;
    {
      std::unique_lock lock(mu_);
      // Parked on an empty queue is healthy, however long it lasts;
      // stamped busy again the moment a swap starts.
      if (heartbeat_ != nullptr && queue_.empty()) heartbeat_->idle();
      work_cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) break;  // stopping_, fully drained
      batch.swap(queue_);
    }
    if (heartbeat_ != nullptr) heartbeat_->busy();
    std::uint64_t bytes_written = 0;
    CPKC_TRACE_SPAN(flush_span, "wal_flush", batch.back().upto_lsn,
                    batch.size());
    try {
      for (const Flight& f : batch) {
        pwrite_all(fd_, f.bytes.data(), f.bytes.size(), f.offset, path_);
        bytes_written += f.bytes.size();
      }
      sync_fd(fd_, durability_, path_);
    } catch (const std::exception& e) {
      fail(e.what());
      return;
    }
    const std::uint64_t upto = batch.back().upto_lsn;
    if (heartbeat_ != nullptr) heartbeat_->beat();
    // Callback BEFORE the watermark/cv publish (see header contract).
    if (on_durable_) on_durable_(upto, nullptr);
    {
      std::lock_guard lock(mu_);
      durable_ = std::max(durable_, upto);
      flushes_ += 1;
      flushed_bytes_ += bytes_written;
      inflight_items_ -= batch.size();
      inflight_bytes_ -= bytes_written;
      done_cv_.notify_all();
    }
  }
  std::lock_guard lock(mu_);
  exited_ = true;
  done_cv_.notify_all();
}

void WalFlusher::fail(const std::string& what) {
  std::uint64_t durable = 0;
  {
    std::lock_guard lock(mu_);
    failed_ = true;
    exited_ = true;
    error_ = what;
    durable = durable_;
    done_cv_.notify_all();
  }
  if (on_durable_) on_durable_(durable, &error_);
}

}  // namespace cpkcore::service
