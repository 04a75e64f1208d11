// Simulator backend for the transport interface.
//
// A SimNet owns a set of SimTransport endpoints sharing one
// sim::Simulator: send(edge, bytes) copies the datagram and schedules its
// arrival at the edge's other endpoint after the edge's propagation delay,
// optionally dropping, duplicating, or jittering it (seeded — runs are
// bit-reproducible). Timers are the shared simulator's own.
//
// The copy is the fabric's "wire": it lands in a buffer recycled from
// datagrams already delivered (common/buffer_pool.h), and the arrival
// event carries that buffer inline in the simulator's callback, so a warm
// fabric moves datagrams without touching the heap. The sink sees the
// bytes in place; the buffer returns to the pool when the sink returns.
// Edges live in a flat table indexed by edge id (edge_table.h).
//
// This is the deterministic driver for everything built on Transport: the
// channel tests exercise loss/reorder recovery without sockets, and the
// conformance test runs a whole multi-endpoint NodeEngine cluster —
// frames, codec, channels and all — inside one process, cross-checked
// against the in-memory PubSubSystem on the same scenario. The UDP backend
// then only has to get datagrams and clocks right; the protocol logic
// above is already proven on this one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/buffer_pool.h"
#include "common/check.h"
#include "common/rng.h"
#include "sim/simulator.h"
#include "transport/edge_table.h"
#include "transport/transport.h"

namespace decseq::transport {

class SimNet;

/// Per-edge behavior of the simulated fabric.
struct SimEdgeOptions {
  double delay_ms = 0.05;
  double loss_probability = 0.0;
  double duplicate_probability = 0.0;
  /// Extra uniform [0, jitter_ms) added per transmission — with enough of
  /// it, datagrams genuinely reorder in flight.
  double jitter_ms = 0.0;
};

/// One endpoint of a SimNet. Created by SimNet::add_endpoints.
class SimTransport final : public Transport {
 public:
  [[nodiscard]] double now_ms() override;
  void send(EdgeId edge, const std::uint8_t* data, std::size_t size) override;
  void set_datagram_sink(DatagramSink sink) override {
    sink_ = std::move(sink);
  }
  TimerId schedule_after(double delay_ms,
                         sim::Simulator::Callback cb) override;
  bool cancel(TimerId id) override;

  [[nodiscard]] std::uint32_t index() const { return index_; }

 private:
  friend class SimNet;
  SimTransport(SimNet* net, std::uint32_t index) : net_(net), index_(index) {}

  SimNet* net_;
  std::uint32_t index_;
  DatagramSink sink_;
};

/// The fabric: endpoints, directed-edge table, and the chaos knobs.
class SimNet {
 public:
  SimNet(sim::Simulator& sim, std::uint64_t seed) : sim_(&sim), rng_(seed) {}

  /// Grow the world to `count` endpoints (indices 0..count-1).
  void add_endpoints(std::size_t count);
  [[nodiscard]] SimTransport& endpoint(std::size_t index) {
    DECSEQ_CHECK(index < endpoints_.size());
    return *endpoints_[index];
  }
  [[nodiscard]] std::size_t num_endpoints() const {
    return endpoints_.size();
  }

  /// Register a bidirectional edge between endpoints `a` and `b`: either
  /// endpoint's send(id, ...) arrives at the other.
  void add_edge(EdgeId id, std::uint32_t a, std::uint32_t b,
                SimEdgeOptions options = {});
  /// Adjust a registered edge's behavior mid-run (outage windows, loss
  /// sweeps).
  void set_edge_options(EdgeId id, SimEdgeOptions options);

  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  [[nodiscard]] std::size_t datagrams_delivered() const {
    return datagrams_delivered_;
  }
  [[nodiscard]] std::size_t datagrams_dropped() const {
    return datagrams_dropped_;
  }

 private:
  friend class SimTransport;

  struct Edge {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    SimEdgeOptions options;
  };

  /// Called by an endpoint's send(): route to the edge's other end.
  void transmit(std::uint32_t from, EdgeId edge, const std::uint8_t* data,
                std::size_t size);
  void deliver_copy(std::uint32_t from, std::uint32_t to,
                    const std::uint8_t* data, std::size_t size, double delay);

  sim::Simulator* sim_;
  Rng rng_;
  std::vector<std::unique_ptr<SimTransport>> endpoints_;
  EdgeTable<Edge> edges_;
  /// Buffers of delivered datagrams, reused by the next transmissions.
  common::BufferPool datagrams_;
  std::size_t datagrams_delivered_ = 0;
  std::size_t datagrams_dropped_ = 0;
};

}  // namespace decseq::transport
