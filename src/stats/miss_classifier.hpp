// Miss classification following Bianchini & Kontothanassis [3] (the scheme
// behind the paper's "Figure 2" table): every miss is labeled Cold,
// True-sharing, False-sharing, Eviction, or Write (permission upgrade).
//
// Approximation (documented in DESIGN.md §6): a miss on a line whose local
// copy died is a *sharing* miss iff some other processor wrote into the line
// since the copy died — *true* sharing if the specific missed word was
// written, *false* sharing otherwise. If no foreign write intervened, a
// replacement-caused death is an Eviction miss. Writes to a present
// read-only line are Write (upgrade) misses and transfer no data.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/types.hpp"
#include "util/flat_hash.hpp"

namespace lrc::stats {

enum class MissClass : std::uint8_t {
  kCold = 0,
  kTrueSharing,
  kFalseSharing,
  kEviction,
  kWrite,
  kCount
};

constexpr std::size_t kMissClasses = static_cast<std::size_t>(MissClass::kCount);

std::string_view to_string(MissClass c);

struct MissCounts {
  std::array<std::uint64_t, kMissClasses> n{};
  std::uint64_t& operator[](MissClass c) {
    return n[static_cast<std::size_t>(c)];
  }
  std::uint64_t operator[](MissClass c) const {
    return n[static_cast<std::size_t>(c)];
  }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto v : n) t += v;
    return t;
  }
  MissCounts& operator+=(const MissCounts& o) {
    for (std::size_t i = 0; i < kMissClasses; ++i) n[i] += o.n[i];
    return *this;
  }
};

class MissClassifier {
 public:
  MissClassifier(unsigned nprocs, unsigned words_per_line);

  /// Records that `writer`'s writes to `words` of `line` became globally
  /// visible (directory processed the write / sent notices).
  void on_write_committed(NodeId writer, LineId line, WordMask words);

  /// Records that `proc` obtained a copy of `line`.
  void on_fill(NodeId proc, LineId line);

  /// Records that `proc`'s copy of `line` died. `coherence` is true for
  /// invalidations, false for replacements.
  void on_copy_lost(NodeId proc, LineId line, bool coherence);

  /// Classifies (and counts) a miss by `proc` on `word` of `line`.
  /// `upgrade` marks a write to a present read-only line.
  MissClass classify(NodeId proc, LineId line, unsigned word, bool upgrade);

  const MissCounts& counts(NodeId proc) const { return per_proc_[proc]; }
  MissCounts aggregate() const;

 private:
  struct WordInfo {
    NodeId writer = kInvalidNode;
    std::uint64_t stamp = 0;
  };
  struct LineHist {
    enum class Status : std::uint8_t { kNever, kCached, kLostEvict, kLostInval };
    Status status = Status::kNever;
    // Global write stamp when this processor last *obtained* the copy.
    // Foreign writes after this stamp made (or would have made) the copy
    // stale — this window is what distinguishes sharing misses from pure
    // capacity/conflict misses even when invalidations are applied lazily.
    std::uint64_t fill_stamp = 0;
  };

  // on_write_committed runs for every committed write and classify for
  // every miss, so per-line state lives in flat-hash maps: word stamps are
  // blocks of `words_per_line_` entries in one contiguous array (indexed by
  // a line -> block table), and per-processor line history is stored
  // directly in the map slots (LineHist is small and never referenced
  // across another map operation).
  unsigned nprocs_;
  unsigned words_per_line_;
  std::uint64_t stamp_ = 0;
  util::FlatMap<std::uint32_t> word_index_;  // line -> block number
  std::vector<WordInfo> word_info_;  // block b at [b*wpl, (b+1)*wpl)
  std::vector<util::FlatMap<LineHist>> hist_;  // per proc
  std::vector<MissCounts> per_proc_;
};

inline std::string_view to_string(MissClass c) {
  switch (c) {
    case MissClass::kCold: return "cold";
    case MissClass::kTrueSharing: return "true";
    case MissClass::kFalseSharing: return "false";
    case MissClass::kEviction: return "eviction";
    case MissClass::kWrite: return "write";
    case MissClass::kCount: break;
  }
  return "?";
}

}  // namespace lrc::stats
