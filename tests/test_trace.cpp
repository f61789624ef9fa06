// Message-ordering assertions over a run's deliveries, collected by a test
// observer (core/observer.hpp) attached to the machine.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/machine.hpp"
#include "core/observer.hpp"

namespace lrc::core {
namespace {

using mesh::MsgKind;

struct Delivery {
  Cycle when = 0;
  mesh::Message msg;
};

// Every delivery of the run, in delivery order.
class DeliveryLog final : public Observer {
 public:
  void on_message(const mesh::Message& msg, Cycle t) override {
    all.push_back({t, msg});
  }

  std::vector<Delivery> for_line(LineId line) const {
    std::vector<Delivery> out;
    for (const auto& d : all) {
      if (d.msg.line == line) out.push_back(d);
    }
    return out;
  }
  std::vector<Delivery> of_kind(MsgKind kind) const {
    std::vector<Delivery> out;
    for (const auto& d : all) {
      if (d.msg.kind == kind) out.push_back(d);
    }
    return out;
  }

  std::vector<Delivery> all;
};

TEST(Trace, RecordsDeliveriesInTimeOrder) {
  Machine m(SystemParams::test_scale(4), ProtocolKind::kLRC);
  DeliveryLog log;
  m.add_observer(log);
  auto arr = m.alloc<double>(64, "a");
  m.run([&](Cpu& cpu) {
    for (std::size_t i = cpu.id(); i < arr.size(); i += cpu.nprocs()) {
      arr.put(cpu, i, 1.0);
    }
    cpu.barrier(0);
  });
  ASSERT_FALSE(log.all.empty());
  for (std::size_t i = 1; i < log.all.size(); ++i) {
    EXPECT_GE(log.all[i].when, log.all[i - 1].when);
  }
}

TEST(Trace, FiltersByLineAndKind) {
  Machine m(SystemParams::test_scale(2), ProtocolKind::kLRC);
  DeliveryLog log;
  m.add_observer(log);
  auto arr = m.alloc<double>(8, "a");
  const LineId line = m.amap().line_of(arr.addr(0));
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) arr.put(cpu, 0, 1.0);
  });
  const auto for_line = log.for_line(line);
  EXPECT_FALSE(for_line.empty());
  for (const auto& d : for_line) EXPECT_EQ(d.msg.line, line);
  const auto reqs = log.of_kind(MsgKind::kWriteReq);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].msg.src, 0u);
}

TEST(Trace, LrcRequestPrecedesReplyPerLine) {
  Machine m(SystemParams::test_scale(4), ProtocolKind::kLRC);
  DeliveryLog log;
  m.add_observer(log);
  auto arr = m.alloc<double>(256, "a");
  m.run([&](Cpu& cpu) {
    for (std::size_t i = 0; i < arr.size(); i += 8) (void)arr.get(cpu, i);
  });
  // For every line: the first ReadReply delivery never precedes the first
  // ReadReq delivery.
  std::unordered_map<LineId, Cycle> first_req;
  for (const auto& d : log.all) {
    if (d.msg.kind == MsgKind::kReadReq && !first_req.count(d.msg.line)) {
      first_req[d.msg.line] = d.when;
    }
    if (d.msg.kind == MsgKind::kReadReply) {
      ASSERT_TRUE(first_req.count(d.msg.line)) << "reply before any request";
      EXPECT_GE(d.when, first_req[d.msg.line]);
    }
  }
}

TEST(Trace, NoticePrecedesItsAck) {
  Machine m(SystemParams::paper_default(4), ProtocolKind::kLRC);
  DeliveryLog log;
  m.add_observer(log);
  auto arr = m.alloc<double>(64, "a");
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 1) {
      (void)arr.get(cpu, 0);
    } else if (cpu.id() == 0) {
      cpu.compute(50'000);
      arr.put(cpu, 0, 1.0);
      cpu.compute(50'000);
    }
  });
  const auto notices = log.of_kind(MsgKind::kWriteNotice);
  const auto acks = log.of_kind(MsgKind::kNoticeAck);
  ASSERT_EQ(notices.size(), 1u);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_LT(notices[0].when, acks[0].when);
  EXPECT_EQ(notices[0].msg.dst, acks[0].msg.src);
}

}  // namespace
}  // namespace lrc::core
