// Maps simulated shared addresses to cache lines, pages, and home nodes.
// Pages are distributed round-robin across nodes by default; a first-touch
// policy can be selected per machine.
//
// This sits on the per-access hot path (every protocol hook starts with
// line_of/word_in_line, every request needs home_of), so the geometry is
// restricted to powers of two — validated in the constructor — and all
// line/page/word math is precomputed shifts and masks; no runtime divide or
// modulo survives. Page homes are resolved once and cached in a flat
// page->home array shared by both policies (round-robin fills it with
// page % N on demand; first-touch records the first accessor).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace lrc::mem {

enum class HomePolicy : std::uint8_t {
  kRoundRobin,  // page p lives at node p % N
  kFirstTouch,  // page homed at the node of its first accessor
};

class AddressMap {
 public:
  AddressMap(unsigned nodes, std::uint32_t line_bytes, std::uint32_t page_bytes,
             HomePolicy policy = HomePolicy::kRoundRobin);

  std::uint32_t line_bytes() const { return line_bytes_; }
  std::uint32_t page_bytes() const { return page_bytes_; }
  std::uint32_t words_per_line() const { return line_bytes_ >> kWordShift; }

  LineId line_of(Addr a) const { return a >> line_shift_; }
  Addr line_base(LineId l) const { return l << line_shift_; }
  std::uint64_t page_of(Addr a) const { return a >> page_shift_; }

  /// Word index within the line (word = 4 bytes, matching the paper's
  /// per-word dirty bits discussion).
  unsigned word_in_line(Addr a) const {
    return static_cast<unsigned>((a & line_mask_) >> kWordShift);
  }
  WordMask word_mask(Addr a, std::uint32_t bytes) const;

  /// Home node for the page containing `a`. For first-touch, `toucher` is
  /// recorded on the first call mentioning the page.
  NodeId home_of(Addr a, NodeId toucher = kInvalidNode) {
    const std::uint64_t page = a >> page_shift_;
    if (page < page_home_.size() && page_home_[page] != kInvalidNode) {
      return page_home_[page];
    }
    return resolve_home(page, toucher);
  }
  NodeId home_of_line(LineId l, NodeId toucher = kInvalidNode) {
    return home_of(line_base(l), toucher);
  }

  static constexpr std::uint32_t kWordBytes = 4;

 private:
  NodeId resolve_home(std::uint64_t page, NodeId toucher);

  static constexpr unsigned kWordShift = 2;  // log2(kWordBytes)

  unsigned nodes_;
  std::uint32_t line_bytes_;
  std::uint32_t page_bytes_;
  unsigned line_shift_;
  unsigned page_shift_;
  Addr line_mask_;  // line_bytes - 1
  HomePolicy policy_;
  std::vector<NodeId> page_home_;  // indexed by page number (grown lazily)
};

}  // namespace lrc::mem
