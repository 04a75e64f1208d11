#include "check.h"

#include <algorithm>
#include <sstream>

#include "metrics/logio.h"

namespace perfbench {

bool WindowChecker::record_pair(std::uint32_t a, std::uint32_t b,
                                bool a_first) {
  if (a > b) {
    std::swap(a, b);
    a_first = !a_first;
  }
  const std::uint8_t orient = a_first ? 1 : 2;
  std::uint8_t& slot =
      orientations_[static_cast<std::size_t>(a) * window_size_ + b];
  if (slot == 0) {
    slot = orient;
    return true;
  }
  return slot == orient;
}

std::size_t WindowChecker::check(const std::vector<Expected>& expected,
                                 const std::vector<Observed>& log,
                                 bool& order_violation, std::string& problem) {
  const std::size_t n = expected.size();
  window_size_ = n;
  by_message_.resize(std::max(by_message_.size(), n));
  for (std::size_t m = 0; m < n; ++m) by_message_[m].clear();
  for (auto& [receiver, seq] : by_receiver_) seq.clear();

  std::size_t failed = 0;
  std::size_t stray = 0;
  for (const auto& [receiver, message] : log) {
    if (message >= n) {
      ++stray;
      continue;
    }
    by_message_[message].push_back(receiver);
    by_receiver_[receiver].push_back(message);
  }
  if (stray > 0 && problem.empty()) {
    problem = std::to_string(stray) + " deliveries of unknown messages";
  }

  // Exactly once to each expected receiver (or, across a cutover, to each
  // member of the new epoch).
  for (std::size_t m = 0; m < n; ++m) {
    std::vector<std::uint32_t>& got = by_message_[m];
    std::sort(got.begin(), got.end());
    const Expected& want = expected[m];
    const bool ok = got == want.receivers ||
                    (!want.cutover_receivers.empty() &&
                     got == want.cutover_receivers);
    if (!ok) {
      ++failed;
      if (problem.empty()) {
        std::ostringstream os;
        os << "message " << m << " of a window reached " << got.size()
           << " receivers (duplicates counted), expected "
           << want.receivers.size();
        problem = os.str();
      }
    }
  }

  // Pairwise order: every two receivers agree on their common messages.
  orientations_.assign(n * n, 0);
  for (const auto& [receiver, seq] : by_receiver_) {
    for (std::size_t i = 0; i < seq.size(); ++i) {
      for (std::size_t j = i + 1; j < seq.size(); ++j) {
        if (seq[i] == seq[j]) continue;  // a duplicate; counted above
        if (!record_pair(seq[i], seq[j], true)) {
          if (!order_violation) {
            std::ostringstream os;
            os << "receiver " << receiver << " delivered messages " << seq[i]
               << " and " << seq[j]
               << " in the opposite order to another receiver";
            problem = os.str();
          }
          order_violation = true;
        }
      }
    }
  }
  return failed;
}

std::string self_test() {
  // Three receivers, three groups. Group A = {0,1,2}, B = {0,1}, C = {1,2};
  // one message per group, delivered in the order A, B, C everywhere.
  std::vector<Expected> expected(3);
  expected[0].receivers = {0, 1, 2};
  expected[1].receivers = {0, 1};
  expected[2].receivers = {1, 2};
  const std::vector<Observed> good = {{0, 0}, {1, 0}, {2, 0}, {0, 1},
                                      {1, 1}, {1, 2}, {2, 2}};
  std::vector<Observed> dropped = good;
  dropped.erase(dropped.begin() + 4);  // receiver 1 never gets message 1
  std::vector<Observed> swapped = good;
  std::swap(swapped[0], swapped[3]);  // receiver 0 sees message 1 before 0

  const auto as_deliveries = [](const std::vector<Observed>& log) {
    std::vector<decseq::pubsub::Delivery> out;
    for (const auto& [receiver, message] : log) {
      decseq::pubsub::Delivery d;
      d.receiver = decseq::NodeId(receiver);
      d.message = decseq::MsgId(message);
      out.push_back(d);
    }
    return out;
  };

  WindowChecker checker;
  bool violation = false;
  std::string problem;
  if (checker.check(expected, good, violation, problem) != 0 || violation) {
    return "a correct log was flagged: " + problem;
  }
  if (decseq::metrics::find_order_violation(as_deliveries(good))) {
    return "find_order_violation flagged a correct log";
  }
  problem.clear();
  if (checker.check(expected, dropped, violation, problem) != 1) {
    return "a dropped delivery was not caught";
  }
  problem.clear();
  violation = false;
  checker.check(expected, swapped, violation, problem);
  if (!violation) return "a swapped delivery was not caught";
  if (!decseq::metrics::find_order_violation(as_deliveries(swapped))) {
    return "find_order_violation missed a swapped delivery";
  }
  return {};
}

}  // namespace perfbench
