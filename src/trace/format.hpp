// On-disk trace format (DESIGN.md §11). A capture directory holds one
// `cpuNNNN.lrct` stream per simulated processor plus a human-readable
// `meta.txt`. Each stream is a 16-byte file header followed by framed
// blocks; each block decodes independently (the address-delta base resets
// per block), so multi-GB traces replay with one block resident per CPU.
//
//   file   := header block*               (the last block ends with kEnd)
//   header := magic:u32 "LRCT" | version:u16 | reserved:u16
//             | cpu:u32 | nprocs:u32      (all little-endian)
//   block  := raw_len:u32 | comp_len:u32 | nrecords:u32
//             | checksum:u32 (FNV-1a over the raw bytes)
//             | codec:u8 | reserved:u8[3] | payload:u8[comp_len]
//   record := hdr:u8 (op in bits 0-2; size_log2 in bits 3-5 for
//             read/write) | payload
//             read/write : zigzag-varint address delta from the previous
//                          access in this block (base 0 at block start)
//             compute    : varint cycle count
//             lock/unlock/barrier : varint sync id
//             fence/end  : no payload
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace lrc::trace {

inline constexpr std::uint32_t kMagic = 0x5443524Cu;  // "LRCT" little-endian
inline constexpr std::uint16_t kVersion = 1;
inline constexpr std::size_t kFileHeaderBytes = 16;
inline constexpr std::size_t kBlockHeaderBytes = 20;
/// Raw (uncompressed) capacity of one block. Small enough that a reader
/// holds ~2 blocks per CPU; large enough to amortize framing and give the
/// codec a useful window.
inline constexpr std::size_t kBlockRawBytes = 64 * 1024;
/// Worst-case record: 1 header byte + a 10-byte varint.
inline constexpr std::size_t kMaxRecordBytes = 11;

enum class Op : std::uint8_t {
  kRead = 0,
  kWrite = 1,
  kCompute = 2,
  kLock = 3,
  kUnlock = 4,
  kBarrier = 5,
  kFence = 6,
  kEnd = 7,  // end of stream; anything after it is ignored
};

enum class Codec : std::uint8_t {
  kRaw = 0,
  kLrz = 1,   // in-house LZ77 (trace/codec.hpp); always available
  kZstd = 2,  // retired optional codec; readers reject it by name
};

/// Malformed or unreadable trace input. The message always carries the
/// file and block: "<file>:block <n>: <reason>".
class TraceError : public std::runtime_error {
 public:
  TraceError(const std::string& file, std::uint64_t block,
             const std::string& reason)
      : std::runtime_error(file + ":block " + std::to_string(block) + ": " +
                           reason) {}
};

/// A decoded trace record.
struct Record {
  Op op = Op::kEnd;
  std::uint32_t bytes = 0;  // access size (read/write)
  std::uint64_t addr = 0;   // absolute address (read/write)
  std::uint64_t arg = 0;    // cycles (compute) or sync id (lock/unlock/barrier)
};

// ---- Primitive encoders (explicit little-endian, portable) -----------------

inline void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// LEB128 varint. Returns bytes written (max 10).
inline std::size_t put_varint(std::uint8_t* p, std::uint64_t v) {
  std::size_t n = 0;
  while (v >= 0x80) {
    p[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  p[n++] = static_cast<std::uint8_t>(v);
  return n;
}

/// Decodes a varint from [p, end). Returns bytes consumed, 0 on overrun.
inline std::size_t get_varint(const std::uint8_t* p, const std::uint8_t* end,
                              std::uint64_t& out) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (std::size_t n = 0; p + n != end && shift < 64; ++n) {
    const std::uint8_t b = p[n];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      out = v;
      return n + 1;
    }
    shift += 7;
  }
  return 0;
}

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Per-record size of the naive encoding the compression target is judged
/// against: 1 op byte + 8 address bytes + 4 size bytes.
inline constexpr std::size_t kNaiveRecordBytes = 13;

/// Stream file name for processor `cpu`.
std::string stream_name(unsigned cpu);

}  // namespace lrc::trace
