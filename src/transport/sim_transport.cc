#include "transport/sim_transport.h"

#include <algorithm>
#include <utility>

namespace decseq::transport {

double SimTransport::now_ms() { return net_->sim_->now(); }

void SimTransport::send(EdgeId edge, const std::uint8_t* data,
                        std::size_t size) {
  net_->transmit(index_, edge, data, size);
}

Transport::TimerId SimTransport::schedule_after(double delay_ms,
                                                sim::Simulator::Callback cb) {
  return net_->sim_->schedule_after(delay_ms, std::move(cb));
}

bool SimTransport::cancel(TimerId id) { return net_->sim_->cancel(id); }

void SimNet::add_endpoints(std::size_t count) {
  while (endpoints_.size() < count) {
    const auto index = static_cast<std::uint32_t>(endpoints_.size());
    endpoints_.emplace_back(new SimTransport(this, index));
  }
}

void SimNet::add_edge(EdgeId id, std::uint32_t a, std::uint32_t b,
                      SimEdgeOptions options) {
  DECSEQ_CHECK(a < endpoints_.size() && b < endpoints_.size() && a != b);
  DECSEQ_CHECK(options.delay_ms >= 0.0 && options.jitter_ms >= 0.0);
  DECSEQ_CHECK_MSG(edges_.insert(id, Edge{a, b, options}),
                   "duplicate sim edge " << id);
}

void SimNet::set_edge_options(EdgeId id, SimEdgeOptions options) {
  Edge* e = edges_.find(id);
  DECSEQ_CHECK_MSG(e != nullptr, "unknown sim edge " << id);
  e->options = options;
}

void SimNet::transmit(std::uint32_t from, EdgeId edge,
                      const std::uint8_t* data, std::size_t size) {
  const Edge* e = edges_.find(edge);
  DECSEQ_CHECK_MSG(e != nullptr, "send on unknown sim edge " << edge);
  DECSEQ_CHECK_MSG(from == e->a || from == e->b,
                   "endpoint " << from << " does not own edge " << edge);
  const std::uint32_t to = from == e->a ? e->b : e->a;
  const SimEdgeOptions& opt = e->options;
  const auto draw_delay = [&] {
    double delay = opt.delay_ms;
    if (opt.jitter_ms > 0.0) delay += rng_.next_double() * opt.jitter_ms;
    return delay;
  };
  if (opt.loss_probability > 0.0 && rng_.next_bool(opt.loss_probability)) {
    ++datagrams_dropped_;
  } else {
    deliver_copy(from, to, data, size, draw_delay());
  }
  if (opt.duplicate_probability > 0.0 &&
      rng_.next_bool(opt.duplicate_probability)) {
    deliver_copy(from, to, data, size, draw_delay());
  }
}

void SimNet::deliver_copy(std::uint32_t from, std::uint32_t to,
                          const std::uint8_t* data, std::size_t size,
                          double delay) {
  common::BufferPool::Buffer bytes = datagrams_.acquire(size);
  std::copy_n(data, size, bytes.data());
  sim_->schedule_after(
      delay, [this, from, to, bytes = std::move(bytes)]() mutable {
        ++datagrams_delivered_;
        SimTransport& dst = *endpoints_[to];
        if (dst.sink_) {
          Origin origin;
          origin.endpoint = from;
          dst.sink_(bytes.data(), bytes.size(), origin);
        }
        datagrams_.release(std::move(bytes));
      });
}

}  // namespace decseq::transport
