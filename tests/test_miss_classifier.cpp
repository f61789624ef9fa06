#include "stats/miss_classifier.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace lrc::stats {
namespace {

// 2 processors, 8 words per line.
struct ClassifierFixture : ::testing::Test {
  MissClassifier c{2, 8};
};

TEST_F(ClassifierFixture, FirstAccessIsCold) {
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kCold);
  EXPECT_EQ(c.counts(0)[MissClass::kCold], 1u);
}

TEST_F(ClassifierFixture, UpgradeIsWriteMiss) {
  c.on_fill(0, 5);
  EXPECT_EQ(c.classify(0, 5, 0, true), MissClass::kWrite);
}

TEST_F(ClassifierFixture, EvictionWithNoForeignWritesIsEviction) {
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_copy_lost(0, 5, /*coherence=*/false);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kEviction);
}

TEST_F(ClassifierFixture, ForeignWriteToMissedWordIsTrueSharing) {
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_write_committed(1, 5, 0x1);  // proc 1 writes word 0
  c.on_copy_lost(0, 5, /*coherence=*/true);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kTrueSharing);
}

TEST_F(ClassifierFixture, ForeignWriteToOtherWordIsFalseSharing) {
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_write_committed(1, 5, 0x80);  // proc 1 writes word 7
  c.on_copy_lost(0, 5, /*coherence=*/true);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kFalseSharing);
}

TEST_F(ClassifierFixture, EvictionFollowedByForeignWriteIsSharing) {
  // The copy died by replacement, but another processor wrote the word
  // before the re-reference: an infinite cache would have been invalidated
  // too, so this is a sharing miss, not an eviction miss.
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_copy_lost(0, 5, /*coherence=*/false);
  c.on_write_committed(1, 5, 0x1);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kTrueSharing);
}

TEST_F(ClassifierFixture, OwnWritesDoNotCreateSharing) {
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_write_committed(0, 5, 0xFF);  // own writes
  c.on_copy_lost(0, 5, /*coherence=*/false);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kEviction);
}

TEST_F(ClassifierFixture, ForeignWriteBeforeFillDoesNotCount) {
  c.on_write_committed(1, 5, 0x1);  // before proc 0 ever had the line
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);                  // fetched copy includes that write
  c.on_copy_lost(0, 5, /*coherence=*/false);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kEviction);
}

TEST_F(ClassifierFixture, UselessInvalidationIsFalseSharing) {
  // Invalidated (e.g. by a lingering notice) but no foreign write actually
  // intervened: the notice was useless — charge false sharing.
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_copy_lost(0, 5, /*coherence=*/true);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kFalseSharing);
}

TEST_F(ClassifierFixture, LazyInvalidationWindowStartsAtFill) {
  // LRC pattern: foreign write happens while we still cache the line
  // (stale), the invalidation applies later at an acquire. The foreign
  // write is inside the (fill, now) window, so the re-miss is sharing.
  c.classify(0, 5, 2, false);
  c.on_fill(0, 5);
  c.on_write_committed(1, 5, 0x4);  // word 2, while proc 0 still caches
  c.on_copy_lost(0, 5, /*coherence=*/true);  // applied at acquire, later
  EXPECT_EQ(c.classify(0, 5, 2, false), MissClass::kTrueSharing);
}

TEST_F(ClassifierFixture, AggregatesAcrossProcessors) {
  c.classify(0, 1, 0, false);
  c.classify(1, 2, 0, false);
  c.classify(1, 3, 0, true);
  const MissCounts total = c.aggregate();
  EXPECT_EQ(total[MissClass::kCold], 2u);
  EXPECT_EQ(total[MissClass::kWrite], 1u);
  EXPECT_EQ(total.total(), 3u);
}

TEST_F(ClassifierFixture, RefillResetsWindow) {
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_write_committed(1, 5, 0x1);
  c.on_copy_lost(0, 5, true);
  c.classify(0, 5, 0, false);  // true sharing; refetches
  c.on_fill(0, 5);
  c.on_copy_lost(0, 5, false);
  // No foreign writes since the second fill: eviction, not sharing.
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kEviction);
}

// The classifier's original formulation, kept as the reference its
// line-record layout must reproduce exactly: one global commit stamp, the
// last writer and stamp of every word, and per-processor line history.
class ReferenceClassifier {
 public:
  ReferenceClassifier(unsigned nprocs, unsigned words_per_line)
      : words_per_line_(words_per_line), per_proc_(nprocs) {}

  void on_write_committed(NodeId writer, LineId line, WordMask words) {
    std::vector<Word>& info = words_[line];
    info.resize(words_per_line_);
    ++stamp_;
    for (unsigned w = 0; w < words_per_line_; ++w) {
      if ((words >> w) & 1) info[w] = Word{writer, stamp_};
    }
  }
  void on_fill(NodeId proc, LineId line) {
    hist_[{proc, line}] = Hist{Status::kCached, stamp_};
  }
  void on_copy_lost(NodeId proc, LineId line, bool coherence) {
    hist_[{proc, line}].status =
        coherence ? Status::kLostInval : Status::kLostEvict;
  }
  MissClass classify(NodeId proc, LineId line, unsigned word, bool upgrade) {
    MissClass c = MissClass::kCold;
    const auto h = hist_.find({proc, line});
    if (upgrade) {
      c = MissClass::kWrite;
    } else if (h != hist_.end()) {
      bool word_written = false;
      bool line_written = false;
      const auto info = words_.find(line);
      for (unsigned w = 0; info != words_.end() && w < words_per_line_; ++w) {
        const Word& x = info->second[w];
        if (x.writer != kInvalidNode && x.writer != proc &&
            x.stamp > h->second.fill_stamp) {
          line_written = true;
          if (w == word) word_written = true;
        }
      }
      if (word_written) {
        c = MissClass::kTrueSharing;
      } else if (line_written) {
        c = MissClass::kFalseSharing;
      } else {
        c = h->second.status == Status::kLostEvict ? MissClass::kEviction
                                                   : MissClass::kFalseSharing;
      }
    }
    ++per_proc_[proc][c];
    return c;
  }
  const MissCounts& counts(NodeId proc) const { return per_proc_[proc]; }
  bool cached(NodeId proc, LineId line) const {
    const auto h = hist_.find({proc, line});
    return h != hist_.end() && h->second.status == Status::kCached;
  }

 private:
  enum class Status { kCached, kLostEvict, kLostInval };
  struct Word {
    NodeId writer = kInvalidNode;
    std::uint64_t stamp = 0;
  };
  struct Hist {
    Status status = Status::kCached;
    std::uint64_t fill_stamp = 0;
  };
  unsigned words_per_line_;
  std::uint64_t stamp_ = 0;
  std::map<LineId, std::vector<Word>> words_;
  std::map<std::pair<NodeId, LineId>, Hist> hist_;
  std::vector<MissCounts> per_proc_;
};

// Seeded random event streams over a few lines, so fills, losses and
// commits of different processors interleave on the same line. A miss is
// classified only where the protocol would see one: not on a line the
// processor still caches (upgrades excepted).
TEST(MissClassifierDifferential, MatchesReferenceOnRandomStreams) {
  constexpr LineId kLines = 6;
  constexpr int kEvents = 20000;
  for (const unsigned nprocs : {2u, 7u, 64u}) {
    for (const unsigned wpl : {1u, 8u, 32u, 64u}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(::testing::Message() << "nprocs " << nprocs << " wpl "
                                          << wpl << " seed " << seed);
        MissClassifier fast(nprocs, wpl);
        ReferenceClassifier ref(nprocs, wpl);
        sim::Rng rng(seed * 1000 + nprocs * 100 + wpl);
        const WordMask all = wpl == 64 ? ~WordMask{0}
                                       : (WordMask{1} << wpl) - 1;
        NodeId last_writer = 0;
        for (int i = 0; i < kEvents; ++i) {
          const auto p = static_cast<NodeId>(rng.below(nprocs));
          const LineId line = 100 + rng.below(kLines);
          switch (rng.below(6)) {
            case 0: {
              // Half the commits repeat the previous writer.
              if (rng.below(2) == 0) last_writer = p;
              WordMask words = rng.next() & all;
              if (rng.below(4) == 0) words &= words - 1;  // sparser
              fast.on_write_committed(last_writer, line, words);
              ref.on_write_committed(last_writer, line, words);
              break;
            }
            case 1:
              fast.on_fill(p, line);
              ref.on_fill(p, line);
              break;
            case 2: {
              // May precede any fill of the line by `p`.
              const bool coherence = rng.below(2) == 0;
              fast.on_copy_lost(p, line, coherence);
              ref.on_copy_lost(p, line, coherence);
              break;
            }
            default: {
              const auto word = static_cast<unsigned>(rng.below(wpl));
              const bool upgrade = ref.cached(p, line) || rng.below(8) == 0;
              ASSERT_EQ(fast.classify(p, line, word, upgrade),
                        ref.classify(p, line, word, upgrade))
                  << "event " << i;
            }
          }
        }
        MissCounts total;
        for (NodeId p = 0; p < nprocs; ++p) {
          EXPECT_EQ(fast.counts(p).n, ref.counts(p).n) << "proc " << p;
          total += ref.counts(p);
        }
        EXPECT_EQ(fast.aggregate().n, total.n);
        EXPECT_GT(total[MissClass::kTrueSharing], 0u);
        EXPECT_GT(total[MissClass::kFalseSharing], 0u);
        EXPECT_GT(total[MissClass::kEviction], 0u);
      }
    }
  }
}

// Directed cases the random streams reach only by chance.
TEST(MissClassifierDifferential, MatchesReferenceOnEdgeCases) {
  MissClassifier fast(64, 64);
  ReferenceClassifier ref(64, 64);
  const auto both = [&](auto&& op) {
    op(fast);
    op(ref);
  };
  const auto same = [&](NodeId p, LineId line, unsigned word, bool upgrade) {
    EXPECT_EQ(fast.classify(p, line, word, upgrade),
              ref.classify(p, line, word, upgrade))
        << "proc " << p << " line " << line << " word " << word;
  };
  // A loss before any fill counts every foreign write ever made.
  both([](auto& c) { c.on_write_committed(63, 1, WordMask{1} << 63); });
  both([](auto& c) { c.on_copy_lost(0, 1, false); });
  same(0, 1, 63, false);
  same(0, 1, 0, false);
  // A loss before any fill, and before any write.
  both([](auto& c) { c.on_copy_lost(5, 2, true); });
  same(5, 2, 0, false);
  // Repeated commits by one writer, then by the reader itself: the reader's
  // own last write hides the earlier foreign one on that word.
  both([](auto& c) { c.on_fill(1, 3); });
  for (int i = 0; i < 3; ++i) {
    both([](auto& c) { c.on_write_committed(2, 3, 0x6); });
  }
  both([](auto& c) { c.on_write_committed(1, 3, 0x2); });
  both([](auto& c) { c.on_copy_lost(1, 3, true); });
  same(1, 3, 1, false);
  same(1, 3, 2, false);
  same(1, 3, 0, false);
  // Upgrades, on lines with and without history.
  same(4, 3, 0, true);
  same(4, 9, 0, true);
  // A commit of no words still orders later fills after it.
  both([](auto& c) { c.on_fill(6, 4); });
  both([](auto& c) { c.on_write_committed(7, 4, 0); });
  both([](auto& c) { c.on_copy_lost(6, 4, false); });
  same(6, 4, 0, false);
  for (NodeId p = 0; p < 64; ++p) {
    EXPECT_EQ(fast.counts(p).n, ref.counts(p).n) << "proc " << p;
  }
}

}  // namespace
}  // namespace lrc::stats
