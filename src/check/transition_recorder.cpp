#include "check/transition_recorder.hpp"

#include <fstream>
#include <stdexcept>

#include "core/machine.hpp"
#include "proto/base.hpp"
#include "proto/sync_manager.hpp"

namespace lrc::check {

void TransitionRecorder::attach(core::Machine& m) {
  base_ = dynamic_cast<proto::ProtocolBase*>(&m.protocol());
  family_ = m.protocol().name();
  m.add_observer(*this);
}

void TransitionRecorder::on_message(const mesh::Message& msg, Cycle) {
  if (base_ == nullptr || proto::SyncManager::owns(msg.kind)) return;
  // find(), not entry(): the pre-handle state of an untouched line is
  // kUncached, and peeking must not materialize a directory entry.
  const proto::DirEntry* e = base_->directory().find(msg.line);
  seen_.emplace(family_, e != nullptr ? e->state : proto::DirState::kUncached,
                msg.kind);
}

void TransitionRecorder::write(const std::string& path) const {
  std::set<std::tuple<std::string_view, std::string_view, std::string_view>>
      sorted;
  for (const auto& [family, state, kind] : seen_) {
    sorted.emplace(family, proto::to_string(state), mesh::to_string(kind));
  }
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [family, state, kind] : sorted) {
    out << family << '\t' << state << '\t' << kind << '\n';
  }
  if (!out.flush()) {
    throw std::runtime_error("transition recorder: cannot write " + path);
  }
}

}  // namespace lrc::check
