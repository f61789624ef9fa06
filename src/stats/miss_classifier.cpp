#include "stats/miss_classifier.hpp"

#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace lrc::stats {

MissClassifier::MissClassifier(unsigned nprocs, unsigned words_per_line)
    : nprocs_(nprocs), words_per_line_(words_per_line), per_proc_(nprocs) {
  assert(nprocs_ >= 1 && nprocs_ <= 64);
  assert(words_per_line_ >= 1 && words_per_line_ <= 64);
}

std::uint32_t MissClassifier::record(LineId line) {
  bool created = false;
  std::uint32_t& r = index_.get_or_create(line, &created);
  if (created) {
    r = static_cast<std::uint32_t>(heads_.size());
    heads_.emplace_back();
    fills_.resize(fills_.size() + nprocs_);
    stamps_.resize(stamps_.size() + words_per_line_);
    writers_.resize(writers_.size() + words_per_line_);
  }
  return r;
}

void MissClassifier::on_write_committed(NodeId writer, LineId line,
                                        WordMask words) {
  assert(writer < nprocs_);
  const std::uint32_t r = record(line);
  LineHead& h = heads_[r];
  if (h.seq == std::numeric_limits<std::uint32_t>::max()) {
    throw std::overflow_error("MissClassifier: line " + std::to_string(line) +
                              " reached 2^32 committed writes");
  }
  ++h.seq;
  const std::size_t base = static_cast<std::size_t>(r) * words_per_line_;
  for (WordMask m = words; m != 0; m &= m - 1) {
    const auto w = static_cast<unsigned>(std::countr_zero(m));
    stamps_[base + w] = h.seq;
    writers_[base + w] = static_cast<std::uint8_t>(writer);
  }
}

void MissClassifier::on_fill(NodeId proc, LineId line) {
  const std::uint32_t r = record(line);
  LineHead& h = heads_[r];
  const ProcMask bit = proc_bit(proc);
  h.known |= bit;
  h.cached |= bit;
  h.evicted &= ~bit;
  fills_[static_cast<std::size_t>(r) * nprocs_ + proc] = h.seq;
}

void MissClassifier::on_copy_lost(NodeId proc, LineId line, bool coherence) {
  LineHead& h = heads_[record(line)];
  const ProcMask bit = proc_bit(proc);
  h.known |= bit;
  h.cached &= ~bit;
  if (coherence) {
    h.evicted &= ~bit;
  } else {
    h.evicted |= bit;
  }
}

MissClass MissClassifier::classify(NodeId proc, LineId line, unsigned word,
                                   bool upgrade) {
  assert(word < words_per_line_);
  MissClass c = MissClass::kCold;
  const ProcMask bit = proc_bit(proc);
  if (upgrade) {
    c = MissClass::kWrite;
  } else if (const std::uint32_t* r = index_.find(line);
             r != nullptr && (heads_[*r].known & bit) != 0) {
    const LineHead& h = heads_[*r];
    // A miss on a line whose last recorded event is a fill would be a
    // bookkeeping error in the protocol; it classifies like an
    // invalidation.
    assert((h.cached & bit) == 0 && "miss on a line recorded as cached");
    const std::uint32_t fill =
        fills_[static_cast<std::size_t>(*r) * nprocs_ + proc];
    // A word counts when another processor wrote it after the fill.
    const std::size_t base = static_cast<std::size_t>(*r) * words_per_line_;
    const auto foreign = [&](unsigned w) {
      return stamps_[base + w] > fill && writers_[base + w] != proc;
    };
    bool word_written = false;  // the missed word
    bool line_written = false;  // any word of the line
    if (fill != h.seq) {
      word_written = foreign(word);
      line_written = word_written;
      for (unsigned w = 0; w < words_per_line_ && !line_written; ++w) {
        line_written = foreign(w);
      }
    }
    if (word_written) {
      c = MissClass::kTrueSharing;
    } else if (line_written) {
      c = MissClass::kFalseSharing;
    } else {
      // No foreign write since the copy died: a replacement victim misses
      // again purely due to capacity/conflict. An invalidation with no
      // foreign write is counted as false sharing (the notice was useless).
      c = (h.evicted & bit) != 0 ? MissClass::kEviction
                                 : MissClass::kFalseSharing;
    }
  }
  ++per_proc_[proc][c];
  return c;
}

MissCounts MissClassifier::aggregate() const {
  MissCounts total;
  for (const auto& p : per_proc_) total += p;
  return total;
}

}  // namespace lrc::stats
