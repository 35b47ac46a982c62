// walcat — dump or verify a write-ahead log human-readably.
//
// The binary v4 log cannot be read with `cat`; this tool gives the
// debuggability back. It prints the header (vertex count, base LSN) and
// then one line per committed record, and reports where the committed
// prefix ends (a torn or corrupt tail is diagnosed, not fatal — exactly
// what a scan after a crash sees). Each record line carries its byte
// offset in the file and its CRC-32 trailer, so an on-disk frame can be
// located with dd and cross-checked against a shipped copy without
// re-hashing.
//
//   walcat [--edges] [--verify] <wal-file>
//
//   --edges   also print every edge of every record (default: a summary
//             line per record)
//   --verify  scan silently and check that the committed prefix reaches
//             the end of the file — the post-crash / post-kill integrity
//             check. Exits 2 when trailing bytes exist past the committed
//             prefix (a torn or corrupt tail).
//
// Exit status: 0 on a clean dump/verify, 1 on usage/IO/header errors,
// 2 (--verify) on a torn or corrupt tail.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "service/wal.hpp"

namespace {

const char* kind_name(cpkcore::UpdateKind kind) {
  return kind == cpkcore::UpdateKind::kInsert ? "insert" : "delete";
}

int verify(const std::string& path) {
  using namespace cpkcore;
  const service::WalHeaderInfo header = service::read_wal_header(path);
  const service::WalScanInfo info = service::scan_wal_frames(
      path, header.num_vertices, [](const service::WalFramePtr&) {});
  const std::uint64_t file_size = std::filesystem::file_size(path);
  if (file_size > info.committed_bytes) {
    std::fprintf(stderr,
                 "walcat: %s: torn or corrupt tail — committed prefix ends "
                 "at byte %llu of %llu (%llu trailing byte(s), last good "
                 "lsn=%llu)\n",
                 path.c_str(),
                 static_cast<unsigned long long>(info.committed_bytes),
                 static_cast<unsigned long long>(file_size),
                 static_cast<unsigned long long>(file_size -
                                                 info.committed_bytes),
                 static_cast<unsigned long long>(info.last_lsn));
    return 2;
  }
  std::printf("# %s  ok  %zu record(s)  last_lsn=%llu  "
              "committed_bytes=%llu\n",
              path.c_str(), info.records,
              static_cast<unsigned long long>(info.last_lsn),
              static_cast<unsigned long long>(info.committed_bytes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool print_edges = false;
  bool verify_only = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--edges") == 0) {
      print_edges = true;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify_only = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: walcat [--edges] [--verify] <wal-file>\n");
    return 1;
  }

  using namespace cpkcore;
  try {
    if (verify_only) return verify(path);

    const service::WalHeaderInfo header = service::read_wal_header(path);
    std::printf("# %s  num_vertices=%u  base_lsn=%llu\n", path,
                header.num_vertices,
                static_cast<unsigned long long>(header.base_lsn));
    std::size_t total_edges = 0;
    // Frames are lifted verbatim off disk, so the running offset below is
    // each frame's true file position (starting right after the header).
    std::uint64_t offset = service::kWalHeaderV4Bytes;
    const service::WalScanInfo info = service::scan_wal_frames(
        path, header.num_vertices,
        [&](const service::WalFramePtr& frame) {
          std::printf("off=%llu  lsn=%llu  %s  edges=%zu  crc=%08x\n",
                      static_cast<unsigned long long>(offset),
                      static_cast<unsigned long long>(frame->lsn()),
                      kind_name(frame->kind()), frame->edge_count(),
                      frame->crc());
          offset += frame->bytes().size();
          total_edges += frame->edge_count();
          if (print_edges) {
            const UpdateBatch batch = frame->decode_batch();
            for (const Edge& e : batch.edges) {
              std::printf("  %u %u\n", e.u, e.v);
            }
          }
        });
    std::printf("# %zu committed record(s), %zu edge(s), last_lsn=%llu, "
                "committed_bytes=%llu\n",
                info.records, total_edges,
                static_cast<unsigned long long>(info.last_lsn),
                static_cast<unsigned long long>(info.committed_bytes));
    if (info.last_lsn == info.base_lsn && info.records == 0) {
      std::printf("# log is empty (compacted or fresh)\n");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "walcat: %s\n", e.what());
    return 1;
  }
  return 0;
}
