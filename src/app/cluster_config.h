// Membership / placement configuration for a decseqd cluster.
//
// A decseqd deployment partitions the protocol state of one sequencing
// world across N daemon processes ("ranks"): every sequencing atom lives
// on the rank of its colocated sequencing node, and every subscriber host
// lives on a rank too (its receiver state machine runs there). The
// ClusterConfig is the complete static picture each daemon loads at
// startup — hosts with their subscriptions and relevant atoms, groups with
// their members and sequencing paths (per hop: atom, whether it stamps,
// and its rank) — so that all N daemons independently agree on routing
// without any runtime coordination beyond the datagrams themselves.
//
// The config is derived from an in-memory PubSubSystem built on the same
// scenario (build_cluster_config), which is also what the conformance
// suite compares delivery traces against: same topology seed, same graph,
// same placement — the only difference is what carries the bytes.
//
// Edge numbering: every directed channel in the deployment gets a dense
// EdgeId derived from the config alone (build_edge_table) — both ends
// compute the same table, nothing is negotiated:
//
//   [0, R)            control commands,  coordinator -> rank r
//   [R, 2R)           control reports,   rank r -> coordinator
//   2R + s*R + d      ingress legs,      host rank s -> ingress rank d
//   2R + R^2 + s*R + d  distribution,    last-hop rank s -> member rank d
//   2R + 2R^2 + k     k-th cross-rank consecutive (atom, atom) path pair,
//                     in sorted order over all group paths
//
// Same-rank hops and deliveries never touch an edge: they are direct
// function calls inside the daemon (the whole point of colocation).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/ids.h"
#include "transport/transport.h"

namespace decseq::pubsub {
class PubSubSystem;
}

namespace decseq::app {

/// One subscriber host as a daemon sees it.
struct HostEntry {
  std::uint32_t rank = 0;
  std::vector<GroupId> subscriptions;
  std::vector<AtomId> relevant_atoms;
};

/// One hop of a group's sequencing path.
struct HopEntry {
  AtomId atom;
  bool stamps = false;
  std::uint32_t rank = 0;
};

struct GroupEntry {
  std::vector<NodeId> members;
  std::vector<HopEntry> path;  ///< front = ingress; empty = dead group slot
};

struct ClusterConfig {
  std::uint32_t num_ranks = 0;
  std::uint64_t seed = 1;  ///< base for per-rank jitter RNG streams
  double retransmit_timeout_ms = 50.0;
  std::uint32_t max_retransmits = 200;
  std::vector<HostEntry> hosts;    ///< indexed by NodeId value
  std::vector<GroupEntry> groups;  ///< indexed by GroupId value
};

/// What an edge id means; see the numbering scheme in the file header.
enum class EdgeKind : std::uint8_t {
  kControlCommand,  ///< coordinator -> rank
  kControlReport,   ///< rank -> coordinator
  kIngress,         ///< publishing host's rank -> group ingress rank
  kDistribute,      ///< last sequencing hop's rank -> a member's rank
  kAtom,            ///< consecutive cross-rank sequencing hop
};

struct EdgeSpec {
  transport::EdgeId id = 0;
  EdgeKind kind = EdgeKind::kControlCommand;
  std::uint32_t src_rank = 0;
  std::uint32_t dst_rank = 0;
  AtomId from;  ///< kAtom only
  AtomId to;    ///< kAtom only
};

/// Every edge of the deployment, in id order. Deterministic in the config.
[[nodiscard]] std::vector<EdgeSpec> build_edge_table(
    const ClusterConfig& config);

/// Snapshot a live system's membership/graph/placement into a cluster
/// config for `num_ranks` daemons. Atom rank = colocated sequencing node
/// mod ranks; host rank = host id mod ranks.
[[nodiscard]] ClusterConfig build_cluster_config(
    const pubsub::PubSubSystem& system, std::uint32_t num_ranks,
    double retransmit_timeout_ms, std::uint32_t max_retransmits,
    std::uint64_t seed);

/// Bounds read_cluster_config enforces on outside input. The edge table has
/// 2R + 2R^2 entries, about 2.1M at 1,024 ranks. Group slots and atom ids
/// stay below 2^20, about ten times the 100k groups and 115k atoms of the
/// million-host compile (BENCH_routing.json): each reader sizes a table by
/// the largest of them, so one hostile line cannot ask for terabytes.
inline constexpr std::uint32_t kMaxClusterRanks = 1024;
inline constexpr std::uint32_t kMaxClusterIds = 1u << 20;

/// Line-oriented text round-trip (same spirit as the fuzz .repro format:
/// human-editable, fails loudly on malformed input via CheckFailure). The
/// reader takes hosts dense and in order and groups in increasing order,
/// as the writer emits them (gaps are dead group slots), takes every id,
/// rank and the budget as an unsigned decimal, and checks every id against
/// the bounds above and every rank against `ranks`.
void write_cluster_config(const ClusterConfig& config, std::ostream& out);
[[nodiscard]] ClusterConfig read_cluster_config(std::istream& in);
void save_cluster_config(const ClusterConfig& config, const std::string& path);
[[nodiscard]] ClusterConfig load_cluster_config(const std::string& path);

}  // namespace decseq::app
