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
  /// `nprocs` <= 64 (writer ids are stored in one byte) and
  /// 1 <= `words_per_line` <= 64.
  MissClassifier(unsigned nprocs, unsigned words_per_line);

  /// Records that `writer`'s writes to `words` of `line` became globally
  /// visible (directory processed the write / sent notices). Throws
  /// std::overflow_error on a line's 2^32-th commit.
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
  // One record per line that any processor filled, lost or wrote, found by
  // one FlatMap probe (line -> record number r). Its parts are stored
  // struct-of-arrays so a miss touches only what it compares:
  //   heads_[r]                       LineHead below
  //   fills_[r * nprocs_ + p]         p's fill stamp
  //   stamps_/writers_[r * wpl + w]   word w's last commit stamp and writer
  //
  // Foreign writes after a processor's fill made (or would have made) its
  // copy stale; this window separates sharing misses from capacity and
  // conflict misses even when invalidations are applied lazily.
  //
  // Stamps are line-local: `seq` counts the commits that reached this line,
  // a word's stamp is `seq` after the commit that wrote it, and a fill
  // stamp is `seq` at the fill. A stamp is only ever compared with a fill
  // of the same line, and commit c happened after fill f exactly when
  // c's line-local count exceeds f's, so the result is the one a single
  // global write counter would give. A word stamp of 0 means "never
  // written" (real commits start at 1), and fill stamp 0 — a copy lost
  // before any fill — counts every write ever made. When a processor's
  // fill stamp equals `seq`, nothing was committed since its fill and the
  // word scan is skipped.
  struct LineHead {
    ProcMask known = 0;    // processors with any fill or loss of the line
    ProcMask evicted = 0;  // ... whose last such event was a replacement
    ProcMask cached = 0;   // ... whose last such event was a fill
    std::uint32_t seq = 0;  // commits to this line so far
  };

  std::uint32_t record(LineId line);  // finds or appends the line's record

  unsigned nprocs_;
  unsigned words_per_line_;
  util::FlatMap<std::uint32_t> index_;  // line -> record number
  std::vector<LineHead> heads_;
  std::vector<std::uint32_t> fills_;
  std::vector<std::uint32_t> stamps_;
  std::vector<std::uint8_t> writers_;
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
