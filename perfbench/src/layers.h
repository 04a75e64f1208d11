// The epoch compile driven layer by layer from the benchmark: the traced
// set-up every workload shares, and the churn mirror of paper_churn.
#pragma once

#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "membership/membership.h"
#include "membership/overlap.h"
#include "placement/assignment.h"
#include "placement/colocation.h"
#include "protocol/network.h"
#include "pubsub/system.h"
#include "seqgraph/graph.h"
#include "sim/simulator.h"
#include "topology/hosts.h"
#include "topology/shortest_path.h"
#include "util.h"

namespace perfbench {

using Change = decseq::pubsub::PubSubSystem::MembershipChange;

/// Apply one membership change; a created group's id is appended to
/// `created` when it is given.
void apply_change(decseq::membership::GroupMembership& m, const Change& c,
                  std::vector<decseq::GroupId>* created);

/// The epoch, built layer by layer by the benchmark itself in
/// PubSubSystem's constructor + create_groups order, on the same inputs and
/// the same random stream, with a span around each layer call. It owns its
/// topology, oracle and simulator, so its queries never touch the facade's.
struct LayeredStack {
  decseq::pubsub::SystemConfig config;
  decseq::Rng rng;
  decseq::topology::Graph net_graph;
  std::unique_ptr<decseq::topology::HostMap> hosts;
  std::unique_ptr<decseq::topology::DistanceOracle> oracle;
  decseq::membership::GroupMembership membership;
  std::unique_ptr<decseq::membership::OverlapIndex> overlaps;
  decseq::seqgraph::BuildScratch scratch;
  std::unique_ptr<decseq::seqgraph::SequencingGraph> graph;
  std::unique_ptr<decseq::placement::Colocation> colocation;
  std::unique_ptr<decseq::placement::Assignment> assignment;
  decseq::sim::Simulator sim;
  std::unique_ptr<decseq::protocol::SequencingNetwork> network;

  explicit LayeredStack(const decseq::pubsub::SystemConfig& c);

  void build_topology(SpanLog& spans);
  /// The full epoch compile of PubSubSystem::rebuild.
  void rebuild(SpanLog& spans);
  /// reconfigure_async's layer sequence for one batch; `affected` receives
  /// the groups the graph delta re-laid.
  void apply_batch(const std::vector<Change>& batch, SpanLog& spans,
                   std::vector<decseq::GroupId>& affected);
};

/// Mismatches between the layered overlap index and the facade's. After a
/// batch only the overlap index can be compared: the later layers draw from
/// the facade's random stream, which channel retransmissions also consume
/// while traffic flows, so the mirror's random choices legitimately differ.
std::size_t compare_overlaps(const LayeredStack& s,
                             const decseq::pubsub::PubSubSystem& sys);

/// The traced set-up.
struct TracedSetup {
  std::unique_ptr<decseq::pubsub::PubSubSystem> system;
  /// The layered stack, kept only when asked for (the churn mirror).
  std::unique_ptr<LayeredStack> layers;
  double layered_ms = 0.0;     ///< wall time of the layered build
  double attributed_ms = 0.0;  ///< the part of it inside a layer span
  std::size_t mismatches = 0;  ///< layered epoch vs the facade's
};

/// Build the epoch for `groups` layer by layer, then the facade on the same
/// inputs, and check the two epochs identical (a difference is a problem in
/// `result`). Reports the set-up's per-layer metrics into `result`: the
/// layer times, the shape of the compiled epoch, protocol.network_build_ms,
/// protocol.routing_table_bytes and pubsub.create_groups_ms. Unless
/// `keep_layers`, the layered network and oracle are freed before the
/// facade is built and the rest of the stack after the comparison.
TracedSetup traced_setup(const decseq::pubsub::SystemConfig& config,
                         const std::vector<std::vector<decseq::NodeId>>& groups,
                         bool keep_layers, SpanLog& spans, Result& result);

/// Report trace.setup_wall_ms and trace.setup_unattributed_ms: the set-up's
/// wall time and the part of it no layer span covers.
void report_setup_split(double wall_ms, double attributed_ms, Result& result);

/// Report the facade oracle's work so far: topology.oracle_full_rows and
/// topology.oracle_point_queries.
void report_oracle(decseq::pubsub::PubSubSystem& sys, Result& result);

}  // namespace perfbench
