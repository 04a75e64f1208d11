#include "transport/udp_transport.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "transport/edge_table.h"

namespace decseq::transport {

namespace {

double monotonic_ms() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1000.0 +
         static_cast<double>(ts.tv_nsec) / 1.0e6;
}

sockaddr_in to_sockaddr(UdpAddr addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = addr.ip_be;
  sa.sin_port = htons(addr.port);
  return sa;
}

/// Largest datagram we ever receive: a frame header plus an encoded
/// message; 64 KiB covers the UDP maximum.
constexpr std::size_t kRecvBufferBytes = 65536;

}  // namespace

std::uint32_t parse_ipv4(const std::string& dotted) {
  in_addr addr{};
  DECSEQ_CHECK_MSG(inet_pton(AF_INET, dotted.c_str(), &addr) == 1,
                   "bad IPv4 address: " << dotted);
  return addr.s_addr;
}

struct UdpTransport::Impl {
  int fd = -1;
  EdgeTable<sockaddr_in> peers;
  std::vector<std::uint8_t> recv_buffer;
};

UdpTransport::UdpTransport(const std::string& ip, std::uint16_t port)
    : impl_(new Impl) {
  impl_->recv_buffer.resize(kRecvBufferBytes);
  impl_->fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  DECSEQ_CHECK_MSG(impl_->fd >= 0,
                   "socket() failed: " << std::strerror(errno));
  sockaddr_in bind_addr = to_sockaddr(UdpAddr{parse_ipv4(ip), port});
  DECSEQ_CHECK_MSG(::bind(impl_->fd,
                          reinterpret_cast<const sockaddr*>(&bind_addr),
                          sizeof(bind_addr)) == 0,
                   "bind() failed: " << std::strerror(errno));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  DECSEQ_CHECK(::getsockname(impl_->fd, reinterpret_cast<sockaddr*>(&bound),
                             &len) == 0);
  local_.ip_be = bound.sin_addr.s_addr;
  local_.port = ntohs(bound.sin_port);
  clock_base_ = monotonic_ms();
}

UdpTransport::~UdpTransport() {
  if (impl_->fd >= 0) ::close(impl_->fd);
  delete impl_;
}

void UdpTransport::add_edge(EdgeId edge, UdpAddr peer) {
  impl_->peers.insert_or_assign(edge, to_sockaddr(peer));
}

bool UdpTransport::has_edge(EdgeId edge) const {
  return impl_->peers.find(edge) != nullptr;
}

void UdpTransport::send_to(UdpAddr peer, const std::uint8_t* data,
                           std::size_t size) {
  const sockaddr_in sa = to_sockaddr(peer);
  const ssize_t n =
      ::sendto(impl_->fd, data, size, 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  if (n < 0) {
    ++send_errors_;  // a dropped datagram; retransmission owns this
  } else {
    ++sent_;
  }
}

double UdpTransport::now_ms() {
  // Keep the timer heap's clock monotone with wall time even between
  // polls: channels read now_ms() when stamping deadlines.
  const double now = monotonic_ms() - clock_base_;
  return std::max(now, timers_.now());
}

void UdpTransport::send(EdgeId edge, const std::uint8_t* data,
                        std::size_t size) {
  const sockaddr_in* peer = impl_->peers.find(edge);
  DECSEQ_CHECK_MSG(peer != nullptr, "send on unregistered edge " << edge);
  const ssize_t n =
      ::sendto(impl_->fd, data, size, 0,
               reinterpret_cast<const sockaddr*>(peer), sizeof(*peer));
  if (n < 0) {
    ++send_errors_;
  } else {
    ++sent_;
  }
}

void UdpTransport::set_datagram_sink(DatagramSink sink) {
  sink_ = std::move(sink);
}

Transport::TimerId UdpTransport::schedule_after(double delay_ms,
                                                sim::Simulator::Callback cb) {
  // Advance the heap's clock first so "after" means "after wall-now", not
  // "after the last poll".
  timers_.run_until(monotonic_ms() - clock_base_);
  return timers_.schedule_after(std::max(0.0, delay_ms), std::move(cb));
}

bool UdpTransport::cancel(TimerId id) { return timers_.cancel(id); }

std::size_t UdpTransport::poll(double max_wait_ms) {
  DECSEQ_CHECK(max_wait_ms >= 0.0);
  double now = monotonic_ms() - clock_base_;
  timers_.run_until(now);

  // Sleep until the earliest timer or the caller's bound, whichever comes
  // first; a readable socket wakes us earlier.
  now = monotonic_ms() - clock_base_;
  double wait = max_wait_ms;
  const double next_timer = timers_.next_event_time();
  if (next_timer < std::numeric_limits<double>::infinity()) {
    wait = std::min(wait, std::max(0.0, next_timer - now));
  }
  pollfd pfd{};
  pfd.fd = impl_->fd;
  pfd.events = POLLIN;
  const int timeout = static_cast<int>(std::ceil(wait));
  ::poll(&pfd, 1, timeout);

  std::size_t delivered = 0;
  if ((pfd.revents & POLLIN) != 0) {
    while (true) {
      sockaddr_in from{};
      socklen_t from_len = sizeof(from);
      const ssize_t n = ::recvfrom(
          impl_->fd, impl_->recv_buffer.data(), impl_->recv_buffer.size(), 0,
          reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n < 0) break;  // EAGAIN: drained
      ++received_;
      if (sink_) {
        Origin origin;
        origin.ip_be = from.sin_addr.s_addr;
        origin.port = ntohs(from.sin_port);
        sink_(impl_->recv_buffer.data(), static_cast<std::size_t>(n), origin);
        ++delivered;
      }
    }
  }
  timers_.run_until(monotonic_ms() - clock_base_);
  return delivered;
}

}  // namespace decseq::transport
