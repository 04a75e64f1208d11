#include "membership/io.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/parse.h"

namespace decseq::membership {

GroupMembership read_membership(std::istream& in, std::size_t min_nodes) {
  std::vector<std::vector<NodeId>> groups;
  std::size_t max_node = 0;
  bool any_node = false;

  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Strip comments; normalize commas to spaces.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::replace(line.begin(), line.end(), ',', ' ');
    std::istringstream tokens(line);
    std::vector<NodeId> members;
    std::string token;
    while (tokens >> token) {
      NodeId::underlying_type value = 0;
      try {
        value = common::parse_below(token, kMaxMembershipNodes, "node id");
      } catch (const CheckFailure& e) {
        throw CheckFailure("line " + std::to_string(line_number) + ": " +
                           e.what());
      }
      members.push_back(NodeId(value));
      max_node = std::max(max_node, std::size_t{value});
      any_node = true;
    }
    if (!members.empty()) groups.push_back(std::move(members));
  }
  DECSEQ_CHECK_MSG(!groups.empty(), "membership file defines no groups");

  const std::size_t num_nodes =
      std::max(min_nodes, any_node ? max_node + 1 : std::size_t{0});
  GroupMembership membership(num_nodes);
  for (auto& members : groups) {
    membership.add_group(std::move(members));  // validates duplicates/range
  }
  return membership;
}

void write_membership(const GroupMembership& membership, std::ostream& out) {
  out << "# " << membership.num_groups() << " groups over "
      << membership.num_nodes() << " nodes\n";
  for (const GroupId g : membership.live_groups()) {
    const auto& members = membership.members(g);
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i > 0) out << ' ';
      out << members[i].value();
    }
    out << '\n';
  }
}

}  // namespace decseq::membership
