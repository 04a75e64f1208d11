// Output checks shared by every workload.
//
// Traffic is checked in closed windows: a window is a set of publishes that
// were all issued before any of them was known complete, and that all
// completed before the next window's first publish (a closed-loop round).
// Messages of different windows are therefore ordered the same way at every
// receiver, and pairwise order consistency reduces to pairs inside one
// window.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// Who must deliver one message of a window.
struct Expected {
  /// Sorted member set of the group when the message was published.
  std::vector<std::uint32_t> receivers;
  /// Sorted member set after a cutover that began while the message was on
  /// its ingress leg (it is then sequenced in the new epoch); empty when no
  /// cutover touched the group.
  std::vector<std::uint32_t> cutover_receivers;
};

/// One observed delivery: receiver id and the message's index in the window.
using Observed = std::pair<std::uint32_t, std::uint32_t>;

class WindowChecker {
 public:
  /// Check one window. `log` lists deliveries in observation order (each
  /// receiver's deliveries in its delivery order). Returns how many of the
  /// window's messages failed the exactly-once check; sets
  /// `order_violation` and `problem` on the first pairwise-order conflict.
  std::size_t check(const std::vector<Expected>& expected,
                    const std::vector<Observed>& log, bool& order_violation,
                    std::string& problem);

 private:
  /// Orientation of pair (a, b), a < b: 1 = a first, 2 = b first.
  bool record_pair(std::uint32_t a, std::uint32_t b, bool a_first);

  std::size_t window_size_ = 0;
  std::vector<std::uint8_t> orientations_;  ///< window_size_^2 entries
  std::vector<std::vector<std::uint32_t>> by_message_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> by_receiver_;
};

/// Feed the checkers a log with one dropped and one swapped delivery and
/// confirm both are caught, by WindowChecker and by
/// metrics::find_order_violation. Returns an empty string on success.
std::string self_test();

}  // namespace perfbench
