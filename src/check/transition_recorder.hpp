// Dynamic half of the static-vs-dynamic transition coverage report
// (docs/STATIC.md): an observer that records the (family, state-before,
// kind) triple of every protocol message a machine handles. One recorder
// may be attached to a sequence of machines (one at a time) and
// accumulates the union of their triples; write() stores it in the format
// `tools/proto_model.py --observed` reads.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <tuple>

#include "core/observer.hpp"
#include "mesh/message.hpp"
#include "proto/directory.hpp"

namespace lrc::core {
class Machine;
}

namespace lrc::proto {
class ProtocolBase;
}

namespace lrc::check {

class TransitionRecorder final : public core::Observer {
 public:
  /// Starts recording `m`'s messages; call before m.run(). `m` must
  /// outlive its run, and the recorder must outlive `m`'s run.
  void attach(core::Machine& m);

  void on_message(const mesh::Message& msg, Cycle t) override;

  /// Distinct triples recorded so far.
  std::size_t size() const { return seen_.size(); }

  /// Writes every triple as `family<TAB>state<TAB>kind`, one per line,
  /// sorted; replaces `path`. Throws std::runtime_error if the file
  /// cannot be written.
  void write(const std::string& path) const;

 private:
  // The family is the protocol's name(), a string literal.
  using Triple = std::tuple<std::string_view, proto::DirState, mesh::MsgKind>;

  proto::ProtocolBase* base_ = nullptr;
  std::string_view family_;
  std::set<Triple> seen_;
};

}  // namespace lrc::check
