#include "stats/miss_classifier.hpp"

#include <bit>
#include <cassert>

namespace lrc::stats {

MissClassifier::MissClassifier(unsigned nprocs, unsigned words_per_line)
    : nprocs_(nprocs),
      words_per_line_(words_per_line),
      hist_(nprocs),
      per_proc_(nprocs) {
  assert(words_per_line_ >= 1 && words_per_line_ <= 64);
}

void MissClassifier::on_write_committed(NodeId writer, LineId line,
                                        WordMask words) {
  bool created = false;
  std::uint32_t& block = word_index_.get_or_create(line, &created);
  if (created) {
    block = static_cast<std::uint32_t>(word_info_.size() / words_per_line_);
    word_info_.resize(word_info_.size() + words_per_line_);
  }
  WordInfo* info = word_info_.data() +
                   static_cast<std::size_t>(block) * words_per_line_;
  ++stamp_;
  for (WordMask m = words; m != 0; m &= m - 1) {
    const unsigned w = static_cast<unsigned>(std::countr_zero(m));
    info[w].writer = writer;
    info[w].stamp = stamp_;
  }
}

void MissClassifier::on_fill(NodeId proc, LineId line) {
  LineHist& h = hist_[proc].get_or_create(line);
  h.status = LineHist::Status::kCached;
  h.fill_stamp = stamp_;
}

void MissClassifier::on_copy_lost(NodeId proc, LineId line, bool coherence) {
  LineHist& h = hist_[proc].get_or_create(line);
  h.status = coherence ? LineHist::Status::kLostInval
                       : LineHist::Status::kLostEvict;
}

MissClass MissClassifier::classify(NodeId proc, LineId line, unsigned word,
                                   bool upgrade) {
  MissClass c;
  if (upgrade) {
    c = MissClass::kWrite;
  } else {
    const LineHist* h = hist_[proc].find(line);
    if (h == nullptr || h->status == LineHist::Status::kNever) {
      c = MissClass::kCold;
    } else {
      // If the line is (status-wise) still kCached we are classifying a miss
      // on a line the protocol believes resident; treat as cold-equivalent
      // bookkeeping error — should not happen, assert in debug.
      assert(h->status != LineHist::Status::kCached &&
             "miss on a line recorded as cached");
      const std::uint32_t* block = word_index_.find(line);
      bool word_written = false;   // the missed word, by another proc
      bool line_written = false;   // any word of the line, by another proc
      if (block != nullptr) {
        const WordInfo* info =
            word_info_.data() +
            static_cast<std::size_t>(*block) * words_per_line_;
        for (unsigned w = 0; w < words_per_line_; ++w) {
          if (info[w].writer != kInvalidNode && info[w].writer != proc &&
              info[w].stamp > h->fill_stamp) {
            line_written = true;
            if (w == word) word_written = true;
          }
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
        c = (h->status == LineHist::Status::kLostEvict) ? MissClass::kEviction
                                                        : MissClass::kFalseSharing;
      }
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
