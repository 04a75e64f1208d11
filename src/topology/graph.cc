#include "topology/graph.h"

#include <limits>

namespace decseq::topology {

Graph::Graph(std::size_t num_routers, std::span<const Link> links)
    : offsets_(num_routers + 1, 0), arcs_(2 * links.size()) {
  DECSEQ_CHECK(arcs_.size() <= std::numeric_limits<std::uint32_t>::max());
  // Count each router's arcs, prefix-sum the counts into offsets, then
  // place the arcs link by link through a per-router cursor.
  for (const Link& l : links) {
    DECSEQ_CHECK(l.a.valid() && l.b.valid() && l.a != l.b);
    DECSEQ_CHECK(l.a.value() < num_routers && l.b.value() < num_routers);
    DECSEQ_CHECK(l.delay_ms > 0.0);
    ++offsets_[l.a.value() + 1];
    ++offsets_[l.b.value() + 1];
  }
  for (std::size_t r = 0; r < num_routers; ++r) {
    offsets_[r + 1] += offsets_[r];
  }
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Link& l : links) {
    arcs_[cursor[l.a.value()]++] = {l.b, l.delay_ms};
    arcs_[cursor[l.b.value()]++] = {l.a, l.delay_ms};
  }
}

}  // namespace decseq::topology
