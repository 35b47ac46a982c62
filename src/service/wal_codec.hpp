// Binary WAL v4 frame codec — the single encoded form every consumer of a
// committed batch shares. The apply thread encodes each committed batch
// exactly once, and the *same bytes* then flow to
//
//   - the primary's on-disk WAL (append is a buffered memcpy),
//   - the LogShipper's in-memory retention ring (shared_ptr, no copy),
//   - late-joiner catch-up (frames are lifted off disk without decoding),
//   - every replica, which decodes the payload exactly once on its own
//     apply thread.
//
// Frame wire layout (all integers little-endian):
//
//   offset  size       field
//   0       4          payload_len = 13 + 8 * count
//   4       8          lsn
//   12      1          kind        0 = insert, 1 = delete
//   13      4          count       number of edge pairs
//   17      8 * count  (u32 u, u32 v) per edge
//   17+8c   4          crc         CRC-32 over bytes [0, 17 + 8c)
//
// The length prefix makes the stream self-delimiting (and socket-framable —
// ROADMAP item 1); the CRC covers the prefix and the header, so a corrupted
// length that still lands in bounds is caught like any payload flip. A v4
// *file* is the 24-byte header below followed by frames:
//
//   "cpkc-wal-v4\n"  (12 bytes, newline-terminated so `head -1` shows it)
//   u32 num_vertices
//   u64 base_lsn
//
// Commit semantics: a frame is committed iff it parses completely AND its
// CRC matches AND its LSN is the predecessor's + 1; the first torn /
// corrupt / out-of-sequence frame ends the committed prefix.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/batch.hpp"
#include "util/types.hpp"

namespace cpkcore::service {

inline constexpr char kWalMagicV4[] = "cpkc-wal-v4";

/// Codec work done since process start (or the last reset): how many times
/// a batch was encoded into a frame and how many times a frame's payload
/// was decoded back into a batch. The encode-once pipeline tests pin their
/// acceptance criterion on these: one encode per committed batch end to
/// end, one decode per (replica x record) / per replayed record — and zero
/// re-encodes anywhere between the primary WAL, the retention ring, disk
/// catch-up, and replica apply.
struct WalCodecCounters {
  std::uint64_t encoded_frames = 0;
  std::uint64_t decoded_batches = 0;
};

[[nodiscard]] WalCodecCounters wal_codec_counters();
void reset_wal_codec_counters();

class WalFrame;
/// How frames travel: one immutable encode fans out to the WAL buffer, the
/// ring, and every subscriber without copying the bytes.
using WalFramePtr = std::shared_ptr<const WalFrame>;

/// One encoded WAL record. Immutable after construction; bytes() is the
/// exact wire form (length prefix through CRC trailer).
class WalFrame {
 public:
  /// Encodes (lsn, batch) into wire form. The edges are written as given —
  /// callers pass canonical deduplicated batches. Counted in
  /// WalCodecCounters::encoded_frames.
  [[nodiscard]] static WalFramePtr encode(std::uint64_t lsn,
                                          const UpdateBatch& batch);

  /// Parses one frame from the front of `data` (e.g. a file scan or a
  /// socket buffer). Validates the length prefix, the CRC, the kind tag,
  /// and every vertex id against `num_vertices`; on success sets
  /// `*consumed` to the frame's total size and returns the frame, sharing
  /// no state with `data`. Returns nullptr on a torn, truncated, or
  /// corrupt front — the caller treats that as the end of the committed
  /// prefix. Not counted as a decode (the payload stays encoded).
  [[nodiscard]] static WalFramePtr try_parse(const unsigned char* data,
                                             std::size_t available,
                                             vertex_t num_vertices,
                                             std::size_t* consumed);

  /// Decodes the payload into a batch — the once-per-consumer step (replica
  /// apply, WAL replay). Counted in WalCodecCounters::decoded_batches.
  [[nodiscard]] UpdateBatch decode_batch() const;

  [[nodiscard]] std::uint64_t lsn() const { return lsn_; }
  [[nodiscard]] UpdateKind kind() const { return kind_; }
  [[nodiscard]] std::size_t edge_count() const { return count_; }
  /// The CRC-32 trailer value (walcat prints it next to each frame's byte
  /// offset so an on-disk frame can be cross-checked against the shipped
  /// copy without re-hashing).
  [[nodiscard]] std::uint32_t crc() const { return crc_; }
  /// The exact wire bytes (length prefix + header + edges + CRC).
  [[nodiscard]] const std::vector<unsigned char>& bytes() const {
    return bytes_;
  }

  /// Fixed per-frame overhead: length prefix + lsn + kind + count + CRC.
  static constexpr std::size_t kOverheadBytes = 4 + 8 + 1 + 4 + 4;
  /// Refuse length prefixes past this (either garbage or a frame no sane
  /// batch produces), so a corrupt prefix cannot make a scan allocate or
  /// seek gigabytes before the CRC check would fail anyway.
  static constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 30;

 private:
  WalFrame() = default;

  std::vector<unsigned char> bytes_;
  std::uint64_t lsn_ = 0;
  UpdateKind kind_ = UpdateKind::kInsert;
  std::size_t count_ = 0;
  std::uint32_t crc_ = 0;
};

/// Serialized size of the v4 file header (magic line + num_vertices +
/// base_lsn).
inline constexpr std::size_t kWalHeaderV4Bytes = 12 + 4 + 8;

/// Encodes the v4 file header into `out` (appended).
void append_wal_header_v4(std::vector<unsigned char>& out,
                          vertex_t num_vertices, std::uint64_t base_lsn);

}  // namespace cpkcore::service
