// Network interface model. Reproduces the paper's network cost model:
// message latency = hops * (switch_latency + wire_latency) + payload/bandwidth,
// with contention modeled at the sending and receiving endpoints only
// (never at intermediate switches), exactly as in the paper's back end.
//
// Delivery rides the engine's typed-event hot path: each arrival is a
// pooled intrusive event, and back-to-back sends whose messages cross the
// receiving endpoint on the same cycle share one event (see Nic::send).
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/message.hpp"
#include "mesh/topology.hpp"
#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace lrc::mesh {

struct NicParams {
  Cycle switch_latency = 2;        // per-hop switch traversal
  Cycle wire_latency = 1;          // per-hop wire traversal
  std::uint32_t bandwidth = 2;     // bytes per cycle, each direction
  std::uint32_t header_bytes = 8;  // occupancy charge for control messages
};

/// Per-message-kind traffic counters (for reports and tests).
struct NicStats {
  std::uint64_t messages = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t data_messages = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t batched_arrivals = 0;  // messages piggybacked on an event
  std::uint64_t per_kind[static_cast<std::size_t>(MsgKind::kCount)] = {};
  Cycle send_contention = 0;  // cycles messages waited at the source NIC
  Cycle recv_contention = 0;  // cycles messages waited at the sink NIC
};

class Nic {
 public:
  /// Delivery callback: plain function pointer + context, so the
  /// per-message call is one indirect jump (this is the hottest edge in
  /// the simulator — every delivered message crosses it).
  using DeliverFn = void (*)(void* ctx, const Message&, Cycle when);

  Nic(sim::Engine& engine, const Topology& topo, NicParams params);

  /// Installs the delivery callback (the machine's dispatch routine).
  void set_deliver(DeliverFn fn, void* ctx) {
    deliver_fn_ = fn;
    deliver_ctx_ = ctx;
  }

  /// Sends `msg` no earlier than `when`; the delivery callback fires at the
  /// receiver once the message has traversed the mesh and won the receiving
  /// endpoint. Self-messages (src == dst) skip the mesh but still pay header
  /// occupancy, modeling the node-internal bus handoff.
  void send(Cycle when, Message msg);

  /// Pure latency of an uncontended message (for tests and cost preview).
  Cycle uncontended_latency(NodeId src, NodeId dst,
                            std::uint32_t payload_bytes) const;

  /// Enables/disables same-cycle arrival batching. Batching is bit-identical
  /// to one-event-per-message timing (see send()), but the model checker
  /// turns it off so every message is its own schedulable event and the
  /// explorer can reorder individual same-cycle arrivals.
  void set_batching(bool on) { batching_ = on; }

  /// Whole-mesh totals (per-node counters summed in node order).
  NicStats stats() const;
  /// Traffic attributed to one node: sends count at the source, sink
  /// arbitration (recv_contention) at the destination. Per-node rows let
  /// hot-spot reports name the endpoints that queued.
  const NicStats& node_stats(NodeId n) const { return stats_[n]; }
  void reset_stats() {
    for (auto& s : stats_) s = NicStats{};
  }

 private:
  class Arrival;   // pooled event: >=1 messages arriving on one cycle
  class Delivery;  // pooled event: one message that lost endpoint arbitration

  /// Endpoint occupancy charge: payload for data messages, header otherwise.
  Cycle occupancy(const Message& msg) const {
    const std::uint32_t occ_bytes =
        msg.payload_bytes > params_.header_bytes ? msg.payload_bytes
                                                 : params_.header_bytes;
    return ceil_div(occ_bytes, params_.bandwidth);
  }

  /// Arbitrates the sink endpoint for one arrived message and delivers it
  /// (immediately, or via a follow-up event if the endpoint is busy).
  void arbitrate_sink(const Message& msg, Cycle t);

  void deliver(const Message& msg, Cycle t) { deliver_fn_(deliver_ctx_, msg, t); }

  sim::Engine& engine_;
  const Topology& topo_;
  NicParams params_;
  DeliverFn deliver_fn_ = nullptr;
  void* deliver_ctx_ = nullptr;
  std::vector<Cycle> out_free_;  // source-endpoint next-free time
  std::vector<Cycle> in_free_;   // sink-endpoint next-free time
  Arrival* pending_arrival_ = nullptr;  // batching candidate; see send()
  bool batching_ = true;                // see set_batching()
#ifdef LRCSIM_CHECK
  struct TieMark {  // per-sink same-cycle arrival seq watermark
    Cycle cycle = static_cast<Cycle>(-1);
    std::uint64_t max_seq = 0;
  };
  std::vector<TieMark> tie_mark_;
#endif
  std::vector<NicStats> stats_;  // per node; see node_stats()
};

}  // namespace lrc::mesh
