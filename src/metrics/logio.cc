#include "metrics/logio.h"

#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>

#include "common/check.h"
#include "common/parse.h"

namespace decseq::metrics {

namespace {

constexpr const char* kHeader =
    "receiver,message,group,sender,payload,sent_at,delivered_at";

/// One row's seven fields. Ids stay below their type's invalid sentinel,
/// the payload fits in 64 bits, and a sign or trailing junk fails.
pubsub::Delivery parse_row(const std::vector<std::string>& f) {
  using common::parse_below;
  return {NodeId(parse_below(f[0], NodeId::kInvalid, "receiver")),
          MsgId(parse_below(f[1], MsgId::kInvalid, "message")),
          GroupId(parse_below(f[2], GroupId::kInvalid, "group")),
          NodeId(parse_below(f[3], NodeId::kInvalid, "sender")),
          common::parse_u64(f[4], "payload"),
          common::parse_nonnegative(f[5], "sent_at"),
          common::parse_nonnegative(f[6], "delivered_at")};
}

}  // namespace

void write_delivery_log(const std::vector<pubsub::Delivery>& log,
                        std::ostream& out) {
  out << kHeader << '\n';
  for (const pubsub::Delivery& d : log) {
    out << d.receiver.value() << ',' << d.message.value() << ','
        << d.group.value() << ',' << d.sender.value() << ',' << d.payload
        << ',' << d.sent_at << ',' << d.delivered_at << '\n';
  }
}

std::vector<pubsub::Delivery> read_delivery_log(std::istream& in) {
  std::string line;
  DECSEQ_CHECK_MSG(std::getline(in, line) && line == kHeader,
                   "delivery log missing header");
  std::vector<pubsub::Delivery> log;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(row, field, ',')) fields.push_back(field);
    DECSEQ_CHECK_MSG(fields.size() == 7,
                     "line " << line_number << ": expected 7 fields, got "
                             << fields.size());
    try {
      log.push_back(parse_row(fields));
    } catch (const CheckFailure& e) {
      throw CheckFailure("line " + std::to_string(line_number) + ": " +
                         e.what());
    }
  }
  return log;
}

std::optional<std::string> find_order_violation(
    const std::vector<pubsub::Delivery>& log) {
  // Per receiver: messages in delivery order.
  std::map<NodeId, std::vector<MsgId>> order;
  for (const pubsub::Delivery& d : log) order[d.receiver].push_back(d.message);

  std::vector<NodeId> receivers;
  receivers.reserve(order.size());
  for (const auto& [node, msgs] : order) receivers.push_back(node);

  for (std::size_t i = 0; i < receivers.size(); ++i) {
    for (std::size_t j = i + 1; j < receivers.size(); ++j) {
      const auto& oa = order[receivers[i]];
      const auto& ob = order[receivers[j]];
      std::map<MsgId, std::size_t> rank_b;
      for (std::size_t r = 0; r < ob.size(); ++r) rank_b[ob[r]] = r;
      // Ranks in B of the common messages, in A's order, must increase.
      std::optional<std::pair<MsgId, std::size_t>> prev;
      for (const MsgId m : oa) {
        const auto it = rank_b.find(m);
        if (it == rank_b.end()) continue;
        if (prev && it->second < prev->second) {
          std::ostringstream os;
          os << "receivers " << receivers[i] << " and " << receivers[j]
             << " disagree on messages " << prev->first << " and " << m;
          return os.str();
        }
        prev = {m, it->second};
      }
    }
  }
  return std::nullopt;
}

}  // namespace decseq::metrics
