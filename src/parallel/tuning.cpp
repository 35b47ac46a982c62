#include "parallel/tuning.hpp"

#include <atomic>
#include <cstdlib>

namespace cpkcore {

namespace {

std::size_t env_grain() {
  if (const char* env = std::getenv("CPKC_GRAIN")) {
    const long long v = std::strtoll(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 2048;
}

// 0 means "not yet resolved" (sort: "no override"); set values are >= 1.
std::atomic<std::size_t> g_serial_cutoff{0};
std::atomic<std::size_t> g_sort_cutoff{0};

}  // namespace

std::size_t serial_cutoff() {
  std::size_t v = g_serial_cutoff.load(std::memory_order_relaxed);
  if (v == 0) {
    v = env_grain();
    g_serial_cutoff.store(v, std::memory_order_relaxed);
  }
  return v;
}

std::size_t sort_serial_cutoff() {
  const std::size_t v = g_sort_cutoff.load(std::memory_order_relaxed);
  // Not cached: follows serial_cutoff(), so CPKC_GRAIN and
  // set_serial_cutoff() shrink every cutoff.
  return v != 0 ? v : 8 * serial_cutoff();
}

void set_serial_cutoff(std::size_t cutoff) {
  g_serial_cutoff.store(cutoff, std::memory_order_relaxed);
}

void set_sort_serial_cutoff(std::size_t cutoff) {
  g_sort_cutoff.store(cutoff, std::memory_order_relaxed);
}

}  // namespace cpkcore
