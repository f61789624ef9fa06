// Trace capture: an observer (core/observer.hpp) that encodes each
// processor's workload stream — accesses, computation, synchronization —
// into the block-framed format of trace/format.hpp, one file per simulated
// CPU plus a meta.txt. The stream is exactly what trace::ReplayCpu
// re-issues. Attach with Machine::add_observer() before run(); call
// finish() after (writes end-of-stream records and the metadata).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/observer.hpp"
#include "trace/format.hpp"

namespace lrc::trace {

class CaptureLog final : public core::Observer {
 public:
  /// Creates `dir` (and parents) and opens one stream per processor.
  CaptureLog(std::string dir, unsigned nprocs);
  ~CaptureLog() override;

  CaptureLog(const CaptureLog&) = delete;
  CaptureLog& operator=(const CaptureLog&) = delete;

  /// Recorded in meta.txt (workload name, protocol name, seed).
  void set_meta(std::string app, std::string protocol, std::uint64_t seed);

  /// Terminates every stream with kEnd, flushes, closes, and writes
  /// meta.txt. Idempotent; the destructor calls it as a backstop.
  void finish();

  std::uint64_t records() const { return records_; }

  // core::Observer: each processor's events arrive in its program order,
  // which is all a per-processor stream records.
  void on_access(NodeId p, bool write, Addr a, std::uint32_t bytes) override;
  void on_compute(NodeId p, Cycle n) override;
  void on_sync_begin(NodeId p, core::SyncOp op, SyncId s) override;

 private:
  struct Stream {
    std::FILE* f = nullptr;
    std::vector<std::uint8_t> raw;  // current block, encoded records
    std::size_t raw_pos = 0;
    std::uint32_t nrecords = 0;
    std::uint64_t prev_addr = 0;  // delta base; resets each block
  };

  void append(Stream& s, const std::uint8_t* rec, std::size_t n);
  void flush_block(Stream& s);
  void encode_access(NodeId p, Op op, std::uint32_t bytes, std::uint64_t addr);
  void encode_arg(NodeId p, Op op, std::uint64_t arg);

  std::string dir_;
  std::string app_;
  std::string protocol_;
  std::uint64_t seed_ = 0;
  std::uint64_t records_ = 0;
  std::vector<Stream> streams_;
  // Codec scratch shared by all streams: flush_block compresses and writes
  // a block before it returns.
  std::vector<std::uint8_t> comp_;
  bool finished_ = false;
};

}  // namespace lrc::trace
