#include "app/cluster_config.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/parse.h"
#include "placement/colocation.h"
#include "protocol/receiver.h"
#include "pubsub/system.h"

namespace decseq::app {

using common::parse_below;

namespace {

/// Cross-rank consecutive (from, to) atom pairs over all group paths,
/// sorted and deduplicated — the deterministic kAtom edge ordering.
std::vector<std::pair<AtomId, AtomId>> atom_edge_pairs(
    const ClusterConfig& config) {
  std::vector<std::pair<AtomId, AtomId>> pairs;
  for (const GroupEntry& group : config.groups) {
    for (std::size_t i = 0; i + 1 < group.path.size(); ++i) {
      if (group.path[i].rank != group.path[i + 1].rank) {
        pairs.emplace_back(group.path[i].atom, group.path[i + 1].atom);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

constexpr std::uint64_t kIdLimit =
    std::uint64_t{std::numeric_limits<std::uint32_t>::max()} + 1;

/// Cross-references the parser cannot check line by line: every rank below
/// `ranks`, every member a host, every subscription a group slot, and every
/// relevant atom no larger than the largest atom on a path (NodeEngine
/// sizes its per-atom state by that atom).
void check_references(const ClusterConfig& config) {
  DECSEQ_CHECK_MSG(config.num_ranks >= 1, "config missing 'ranks'");
  std::uint32_t max_atom = 0;
  for (std::size_t g = 0; g < config.groups.size(); ++g) {
    for (const NodeId member : config.groups[g].members) {
      DECSEQ_CHECK_MSG(member.value() < config.hosts.size(),
                       "group " << g << " member " << member
                                << " is not a host");
    }
    for (const HopEntry& hop : config.groups[g].path) {
      DECSEQ_CHECK_MSG(hop.rank < config.num_ranks,
                       "group " << g << " hop rank " << hop.rank
                                << " >= ranks " << config.num_ranks);
      max_atom = std::max(max_atom, hop.atom.value());
    }
  }
  for (std::size_t h = 0; h < config.hosts.size(); ++h) {
    const HostEntry& host = config.hosts[h];
    DECSEQ_CHECK_MSG(host.rank < config.num_ranks,
                     "host " << h << " rank " << host.rank << " >= ranks "
                             << config.num_ranks);
    for (const GroupId group : host.subscriptions) {
      DECSEQ_CHECK_MSG(group.value() < config.groups.size(),
                       "host " << h << " subscribes to unknown group "
                               << group);
    }
    for (const AtomId atom : host.relevant_atoms) {
      DECSEQ_CHECK_MSG(atom.value() <= max_atom,
                       "host " << h << " relevant atom " << atom
                               << " is past every path's atoms");
    }
  }
}

std::uint32_t rank_of_atom(const ClusterConfig& config, AtomId atom) {
  for (const GroupEntry& group : config.groups) {
    for (const HopEntry& hop : group.path) {
      if (hop.atom == atom) return hop.rank;
    }
  }
  DECSEQ_CHECK_MSG(false, "atom " << atom << " on no group path");
  return 0;
}

}  // namespace

std::vector<EdgeSpec> build_edge_table(const ClusterConfig& config) {
  const std::uint32_t ranks = config.num_ranks;
  DECSEQ_CHECK(ranks >= 1);
  std::vector<EdgeSpec> table;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    table.push_back({r, EdgeKind::kControlCommand, ranks, r, {}, {}});
  }
  for (std::uint32_t r = 0; r < ranks; ++r) {
    table.push_back({ranks + r, EdgeKind::kControlReport, r, ranks, {}, {}});
  }
  const transport::EdgeId ingress_base = 2 * ranks;
  for (std::uint32_t s = 0; s < ranks; ++s) {
    for (std::uint32_t d = 0; d < ranks; ++d) {
      table.push_back({ingress_base + s * ranks + d, EdgeKind::kIngress, s, d,
                       {}, {}});
    }
  }
  const transport::EdgeId dist_base = 2 * ranks + ranks * ranks;
  for (std::uint32_t s = 0; s < ranks; ++s) {
    for (std::uint32_t d = 0; d < ranks; ++d) {
      table.push_back({dist_base + s * ranks + d, EdgeKind::kDistribute, s, d,
                       {}, {}});
    }
  }
  const transport::EdgeId atom_base = 2 * ranks + 2 * ranks * ranks;
  transport::EdgeId next = atom_base;
  for (const auto& [from, to] : atom_edge_pairs(config)) {
    table.push_back({next++, EdgeKind::kAtom, rank_of_atom(config, from),
                     rank_of_atom(config, to), from, to});
  }
  return table;
}

std::vector<std::uint32_t> sequencing_node_ranks(
    const ClusterConfig& config, const placement::Colocation& colocation) {
  const std::uint32_t ranks = config.num_ranks;
  DECSEQ_CHECK(ranks >= 1);
  const std::size_t num_nodes = colocation.num_nodes();
  std::vector<std::uint32_t> node_rank(num_nodes, 0);

  // (node, group) once per pair: a path may visit a node twice.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> visits;
  constexpr std::uint32_t kNoGroup = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> last_group(num_nodes, kNoGroup);
  for (std::size_t g = 0; g < config.groups.size(); ++g) {
    for (const HopEntry& hop : config.groups[g].path) {
      const std::uint32_t node = colocation.node_of(hop.atom).value();
      if (last_group[node] == g) continue;
      last_group[node] = static_cast<std::uint32_t>(g);
      visits.emplace_back(node, static_cast<std::uint32_t>(g));
    }
  }
  std::sort(visits.begin(), visits.end());

  std::vector<std::uint32_t> votes(ranks, 0);
  std::vector<std::uint32_t> voted;  // ranks with a vote for this node
  for (std::size_t i = 0; i < visits.size();) {
    const std::uint32_t node = visits[i].first;
    for (; i < visits.size() && visits[i].first == node; ++i) {
      for (const NodeId member : config.groups[visits[i].second].members) {
        const std::uint32_t r = config.hosts[member.value()].rank;
        if (votes[r]++ == 0) voted.push_back(r);
      }
    }
    std::uint32_t best = 0;  // no vote at all is a tie over every rank
    for (const std::uint32_t r : voted) {
      if (votes[r] > votes[best] || (votes[r] == votes[best] && r < best)) {
        best = r;
      }
    }
    node_rank[node] = best;
    for (const std::uint32_t r : voted) votes[r] = 0;
    voted.clear();
  }
  return node_rank;
}

ClusterConfig build_cluster_config(const pubsub::PubSubSystem& system,
                                   std::uint32_t num_ranks,
                                   double retransmit_timeout_ms,
                                   std::uint32_t max_retransmits,
                                   std::uint64_t seed) {
  DECSEQ_CHECK(num_ranks >= 1);
  ClusterConfig config;
  config.num_ranks = num_ranks;
  config.seed = seed;
  config.retransmit_timeout_ms = retransmit_timeout_ms;
  config.max_retransmits = max_retransmits;

  const auto& membership = system.membership();
  const auto& graph = system.graph();
  const auto& colocation = system.colocation();

  config.hosts.resize(membership.num_nodes());
  for (std::size_t h = 0; h < config.hosts.size(); ++h) {
    const NodeId node(static_cast<std::uint32_t>(h));
    HostEntry& entry = config.hosts[h];
    entry.rank = static_cast<std::uint32_t>(h) % num_ranks;
    entry.subscriptions = membership.groups_of(node);
    entry.relevant_atoms = protocol::relevant_atoms_for(node, graph);
  }

  config.groups.resize(membership.num_group_slots());
  for (std::size_t g = 0; g < config.groups.size(); ++g) {
    const GroupId gid(static_cast<std::uint32_t>(g));
    if (!membership.is_alive(gid) || !graph.has_path(gid)) continue;
    GroupEntry& entry = config.groups[g];
    entry.members = membership.members(gid);
    for (const AtomId atom : graph.path(gid)) {
      entry.path.push_back({atom, graph.atom(atom).stamps(gid), 0});
    }
  }
  const std::vector<std::uint32_t> node_rank =
      sequencing_node_ranks(config, colocation);
  for (GroupEntry& entry : config.groups) {
    for (HopEntry& hop : entry.path) {
      hop.rank = node_rank[colocation.node_of(hop.atom).value()];
    }
  }
  return config;
}

void write_cluster_config(const ClusterConfig& config, std::ostream& out) {
  out << "cluster v1\n";
  out << "ranks " << config.num_ranks << "\n";
  out << "seed " << config.seed << "\n";
  out << "rto " << config.retransmit_timeout_ms << "\n";
  out << "budget " << config.max_retransmits << "\n";
  for (std::size_t h = 0; h < config.hosts.size(); ++h) {
    const HostEntry& entry = config.hosts[h];
    out << "host " << h << " " << entry.rank << " subs";
    for (const GroupId g : entry.subscriptions) out << " " << g.value();
    out << " atoms";
    for (const AtomId a : entry.relevant_atoms) out << " " << a.value();
    out << "\n";
  }
  for (std::size_t g = 0; g < config.groups.size(); ++g) {
    const GroupEntry& entry = config.groups[g];
    if (entry.path.empty()) continue;  // dead slot; readers leave it empty
    out << "group " << g << " members";
    for (const NodeId n : entry.members) out << " " << n.value();
    out << " path";
    for (const HopEntry& hop : entry.path) {
      out << " " << hop.atom.value() << ":" << (hop.stamps ? 1 : 0) << ":"
          << hop.rank;
    }
    out << "\n";
  }
  out << "end\n";
}

ClusterConfig read_cluster_config(std::istream& in) {
  ClusterConfig config;
  std::string line;
  bool saw_header = false;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream tokens(line);
    std::string keyword;
    tokens >> keyword;
    if (!saw_header) {
      DECSEQ_CHECK_MSG(keyword == "cluster", "missing 'cluster v1' header");
      std::string version;
      tokens >> version;
      DECSEQ_CHECK_MSG(version == "v1", "unsupported config version");
      saw_header = true;
      continue;
    }
    if (keyword == "ranks") {
      std::string token;
      DECSEQ_CHECK(static_cast<bool>(tokens >> token));
      config.num_ranks = parse_below(token, kMaxClusterRanks + 1, "ranks");
    } else if (keyword == "seed") {
      std::string token;
      DECSEQ_CHECK(static_cast<bool>(tokens >> token));
      config.seed = common::parse_u64(token, "seed");
    } else if (keyword == "rto") {
      DECSEQ_CHECK(static_cast<bool>(tokens >> config.retransmit_timeout_ms));
      DECSEQ_CHECK_MSG(std::isfinite(config.retransmit_timeout_ms) &&
                           config.retransmit_timeout_ms > 0.0,
                       "rto must be finite and positive");
    } else if (keyword == "budget") {
      std::string token;
      DECSEQ_CHECK(static_cast<bool>(tokens >> token));
      config.max_retransmits = parse_below(token, kIdLimit, "budget");
    } else if (keyword == "host") {
      std::string index;
      std::string rank;
      std::string tag;
      DECSEQ_CHECK(static_cast<bool>(tokens >> index >> rank >> tag));
      // Dense and in order, as written: the index is the next host's.
      DECSEQ_CHECK_MSG(parse_below(index, kIdLimit, "host index") ==
                           config.hosts.size(),
                       "host " << index << " out of order; expected host "
                               << config.hosts.size());
      DECSEQ_CHECK_MSG(tag == "subs", "host line missing 'subs'");
      HostEntry entry;
      entry.rank = parse_below(rank, kIdLimit, "host rank");
      std::string token;
      bool in_atoms = false;
      while (tokens >> token) {
        if (token == "atoms") {
          in_atoms = true;
        } else if (in_atoms) {
          entry.relevant_atoms.push_back(
              AtomId(parse_below(token, kMaxClusterIds, "atom")));
        } else {
          entry.subscriptions.push_back(
              GroupId(parse_below(token, kMaxClusterIds, "group")));
        }
      }
      DECSEQ_CHECK_MSG(in_atoms, "host line missing 'atoms'");
      config.hosts.push_back(std::move(entry));
    } else if (keyword == "group") {
      std::string index_token;
      std::string tag;
      DECSEQ_CHECK(static_cast<bool>(tokens >> index_token >> tag));
      // Increasing, as written; the gaps are dead slots.
      const std::uint32_t index =
          parse_below(index_token, kMaxClusterIds, "group index");
      DECSEQ_CHECK_MSG(index >= config.groups.size(),
                       "group " << index << " out of order");
      DECSEQ_CHECK_MSG(tag == "members", "group line missing 'members'");
      GroupEntry entry;
      std::string token;
      bool in_path = false;
      while (tokens >> token) {
        if (token == "path") {
          in_path = true;
          continue;
        }
        if (!in_path) {
          entry.members.push_back(
              NodeId(parse_below(token, kIdLimit, "member")));
          continue;
        }
        const std::size_t c1 = token.find(':');
        const std::size_t c2 = token.find(':', c1 + 1);
        DECSEQ_CHECK_MSG(c1 != std::string::npos && c2 != std::string::npos,
                         "malformed hop token: " << token);
        const std::string_view view(token);
        HopEntry hop;
        hop.atom = AtomId(parse_below(view.substr(0, c1), kMaxClusterIds,
                                      "hop atom"));
        hop.stamps = parse_below(view.substr(c1 + 1, c2 - c1 - 1), 2,
                                 "hop stamp flag") == 1;
        hop.rank = parse_below(view.substr(c2 + 1), kIdLimit, "hop rank");
        entry.path.push_back(hop);
      }
      DECSEQ_CHECK_MSG(in_path && !entry.path.empty(),
                       "group line missing 'path'");
      config.groups.resize(index + 1);
      config.groups[index] = std::move(entry);
    } else if (keyword == "end") {
      saw_end = true;
      break;
    } else {
      DECSEQ_CHECK_MSG(false, "unknown config keyword: " << keyword);
    }
  }
  DECSEQ_CHECK_MSG(saw_header && saw_end, "truncated cluster config");
  check_references(config);
  return config;
}

void save_cluster_config(const ClusterConfig& config,
                         const std::string& path) {
  std::ofstream out(path);
  DECSEQ_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  write_cluster_config(config, out);
}

ClusterConfig load_cluster_config(const std::string& path) {
  std::ifstream in(path);
  DECSEQ_CHECK_MSG(in.good(), "cannot open " << path);
  return read_cluster_config(in);
}

}  // namespace decseq::app
