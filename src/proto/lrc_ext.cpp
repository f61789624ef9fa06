#include <cassert>

#include "proto/lrc.hpp"

namespace lrc::proto {

using cache::LineState;

LrcExt::LrcExt(core::Machine& m)
    : Lrc(m),
      delayed_(m.nprocs()),
      flush_scratch_(m.nprocs()),
      announced_(m.nprocs()) {}

CpuOp LrcExt::cpu_write(core::Cpu& cpu, Addr a, std::uint32_t bytes) {
  const NodeId p = cpu.id();
  const LineId line = line_of(a);
  const WordMask words = words_of(a, bytes);
  auto& cache = cpu.dcache();

  while (true) {
    cache::CacheLine* cl = cache.lookup(line, cpu.now());
    if (cl != nullptr && cl->state == LineState::kReadWrite) {
      retire_write_hit(cpu, line, words);
      co_return;
    }
    if (cl != nullptr) {
      // Present read-only: buffer the write notice locally instead of
      // contacting the home node — this is the protocol's defining delay.
      ++cache.stats().upgrade_misses;
      m_.classifier().classify(p, line, word_of(a), /*upgrade=*/true);
      cl->state = LineState::kReadWrite;
      cb_add(cpu, line, words, cpu.now());
      note_local_write(p, line, words);
      cpu.tick(1 + cache.hit_penalty());
      co_return;
    }
    if (cpu.wb().find(line) >= 0) {
      cpu.wb().push(line, words);
      if (cache::OtEntry* e = cpu.ot().find(line)) e->words |= words;
      ++cache.stats().write_hits;
      cpu.tick(1);
      co_return;
    }
    if (cache::OtEntry* e0 = cpu.ot().find(line); e0 != nullptr) {
      if (e0->data_pending) {
        while (true) {
          cache::OtEntry* cur = cpu.ot().find(line);
          if (cur == nullptr || !cur->data_pending) break;
          co_await Wait{stats::StallKind::kWrite};
        }
      } else {
        while (cpu.ot().find(line) != nullptr) {
          co_await Wait{stats::StallKind::kWrite};
        }
      }
      continue;
    }
    const int slot = cpu.wb().push(line, words);
    if (slot < 0) {
      co_await Wait{stats::StallKind::kWrite};
      continue;
    }
    ++cache.stats().write_misses;
    m_.classifier().classify(p, line, word_of(a), /*upgrade=*/false);
    // Fetch the data with a plain read; the write announcement waits for a
    // release or eviction.
    bool created = false;
    cache::OtEntry& e = cpu.ot().get_or_create(line, &created);
    assert(created);
    e.data_pending = true;
    e.want_write = true;
    e.wb_slot = slot;
    e.words |= words;
    send(cpu.now(), mesh::MsgKind::kReadReq, p, home_of(line, p), line);
    cpu.tick(1);
    co_return;
  }
}

void LrcExt::note_local_write(NodeId p, LineId line, WordMask words) {
  if (announced_[p].count(line) != 0) {
    // The home already lists us as a writer for this line; nothing is
    // buffered, so the write is immediately (classifier-)visible.
    m_.classifier().on_write_committed(p, line, words);
  } else {
    delayed_[p].get_or_create(line) |= words;
  }
}

void LrcExt::flush_delayed_line(NodeId p, LineId line, Cycle at) {
  const WordMask* w = delayed_[p].find(line);
  if (w == nullptr) return;
  const WordMask words = *w;
  delayed_[p].erase(line);
  announced_[p].insert(line);
  m_.classifier().on_write_committed(p, line, words);

  auto& cpu = m_.cpu(p);
  bool created = false;
  cache::OtEntry& e = cpu.ot().get_or_create(line, &created);
  e.want_write = true;
  e.acks_pending += 1;
  e.words |= words;
  send(at, mesh::MsgKind::kWriteReq, p, home_of(line), line, 0, 0, words);
}

void LrcExt::flush_for_release(core::Cpu& cpu) {
  const NodeId p = cpu.id();
  // Snapshot the keys (flushing mutates the map) into a reused scratch
  // buffer so steady-state releases allocate nothing.
  std::vector<LineId>& scratch = flush_scratch_[p];
  scratch.clear();
  delayed_[p].for_each(
      [&scratch](LineId line, WordMask) { scratch.push_back(line); });
  for (LineId line : scratch) flush_delayed_line(p, line, cpu.now());
}

bool LrcExt::drained(core::Cpu& cpu) const {
  return Lrc::drained(cpu) && delayed_[cpu.id()].empty();
}

void LrcExt::before_line_death(NodeId p, LineId line, Cycle at) {
  flush_delayed_line(p, line, at);
  announced_[p].erase(line);
}

}  // namespace lrc::proto
