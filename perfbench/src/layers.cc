#include "layers.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "topology/transit_stub.h"

namespace perfbench {

using decseq::GroupId;
using decseq::NodeId;

void apply_change(decseq::membership::GroupMembership& m, const Change& c,
                  std::vector<GroupId>* created) {
  switch (c.kind) {
    case Change::Kind::kCreateGroup: {
      const GroupId g = m.add_group(c.members);
      if (created != nullptr) created->push_back(g);
      break;
    }
    case Change::Kind::kRemoveGroup:
      m.remove_group(c.group);
      break;
    case Change::Kind::kJoin:
      m.add_member(c.group, c.node);
      break;
    case Change::Kind::kLeave:
      m.remove_member(c.group, c.node);
      break;
  }
}

LayeredStack::LayeredStack(const decseq::pubsub::SystemConfig& c)
    : config(c), rng(c.seed), membership(c.hosts.num_hosts) {}

void LayeredStack::build_topology(SpanLog& spans) {
  SpanLog::Scope span(spans, "topology.generate");
  auto topo = decseq::topology::generate_transit_stub(config.topology, rng);
  hosts = std::make_unique<decseq::topology::HostMap>(
      decseq::topology::attach_hosts(topo, config.hosts, rng));
  net_graph = std::move(topo.graph);
  // Below the facade's scaled-oracle threshold: the default options.
  oracle = std::make_unique<decseq::topology::DistanceOracle>(net_graph);
}

void LayeredStack::rebuild(SpanLog& spans) {
  {
    SpanLog::Scope span(spans, "membership.overlap_build");
    overlaps = std::make_unique<decseq::membership::OverlapIndex>(membership);
  }
  std::vector<std::size_t> labels;
  {
    SpanLog::Scope span(spans, "placement.colocate");
    labels =
        decseq::placement::colocate_overlaps(*overlaps, config.colocation, rng);
  }
  {
    SpanLog::Scope span(spans, "seqgraph.build");
    decseq::seqgraph::BuildOptions options = config.graph;
    options.colocation_labels = &labels;
    options.scratch = &scratch;
    graph = std::make_unique<decseq::seqgraph::SequencingGraph>(
        decseq::seqgraph::build_sequencing_graph(membership, *overlaps,
                                                 options));
  }
  {
    SpanLog::Scope span(spans, "placement.colocate");
    colocation = std::make_unique<decseq::placement::Colocation>(
        decseq::placement::apply_labels(*graph, labels));
  }
  {
    SpanLog::Scope span(spans, "placement.assign");
    assignment = std::make_unique<decseq::placement::Assignment>(
        decseq::placement::assign_machines(*graph, *colocation, membership,
                                           *hosts, net_graph,
                                           config.assignment, rng));
  }
  network.reset();
  SpanLog::Scope span(spans, "protocol.network_build");
  network = std::make_unique<decseq::protocol::SequencingNetwork>(
      sim, rng, *graph, *colocation, *assignment, membership, *hosts, *oracle,
      config.network, &net_graph, nullptr);
}

void LayeredStack::apply_batch(const std::vector<Change>& batch,
                               SpanLog& spans,
                               std::vector<GroupId>& affected) {
  std::vector<std::vector<NodeId>> old_members(membership.num_group_slots());
  for (const GroupId g : membership.live_groups()) {
    old_members[g.value()] = membership.members(g);
  }
  std::vector<GroupId> dirty;
  {
    SpanLog::Scope span(spans, "membership.apply");
    for (const Change& c : batch) {
      apply_change(membership, c, nullptr);
      dirty.push_back(c.kind == Change::Kind::kCreateGroup
                          ? GroupId(static_cast<GroupId::underlying_type>(
                                membership.num_group_slots() - 1))
                          : c.group);
    }
  }
  std::unique_ptr<decseq::membership::OverlapIndex> next;
  {
    SpanLog::Scope span(spans, "membership.delta_build");
    next = std::make_unique<decseq::membership::OverlapIndex>(
        *overlaps, membership, dirty);
  }
  std::vector<std::size_t> labels;
  {
    SpanLog::Scope span(spans, "placement.delta_colocate");
    labels = decseq::placement::colocate_overlaps(*next, config.colocation, rng);
  }
  decseq::seqgraph::DeltaBuildStats delta;
  decseq::seqgraph::SequencingGraph next_graph;
  {
    SpanLog::Scope span(spans, "seqgraph.delta_build");
    decseq::seqgraph::BuildOptions options = config.graph;
    options.colocation_labels = &labels;
    options.scratch = &scratch;
    next_graph = decseq::seqgraph::build_sequencing_graph_delta(
        *graph, *overlaps, membership, *next, dirty, options, &delta);
  }
  const std::size_t first_new_atom = graph->num_atoms();
  *overlaps = std::move(*next);
  *graph = std::move(next_graph);
  {
    SpanLog::Scope span(spans, "placement.extend");
    colocation->extend(*graph, first_new_atom, labels);
    decseq::placement::extend_assignment(
        *assignment, *graph, *colocation, membership, *hosts, net_graph,
        config.assignment, rng, delta.affected_groups, first_new_atom);
  }
  {
    SpanLog::Scope span(spans, "protocol.begin_reconfigure");
    network->begin_reconfigure(delta.affected_groups, old_members);
  }
  sim.run();  // no traffic: only the cutover fences drain
  affected = std::move(delta.affected_groups);
}

namespace {

/// Mismatches between the layered epoch and the facade's.
std::size_t compare_epoch(const LayeredStack& s,
                          const decseq::pubsub::PubSubSystem& sys) {
  std::size_t mismatches = 0;
  if (s.overlaps->num_overlaps() != sys.overlaps().num_overlaps()) {
    ++mismatches;
  }
  const auto& ga = *s.graph;
  const auto& gb = sys.graph();
  if (ga.num_atoms() != gb.num_atoms()) return mismatches + 1;
  for (const GroupId g : sys.membership().live_groups()) {
    if (!ga.has_path(g) || ga.path(g) != gb.path(g)) ++mismatches;
  }
  for (std::size_t a = 0; a < ga.num_atoms(); ++a) {
    const decseq::AtomId id(static_cast<decseq::AtomId::underlying_type>(a));
    if (s.colocation->node_of(id) != sys.colocation().node_of(id)) {
      ++mismatches;
    }
  }
  if (s.assignment->num_nodes() != sys.assignment().num_nodes()) {
    return mismatches + 1;
  }
  for (std::size_t n = 0; n < s.assignment->num_nodes(); ++n) {
    const decseq::SeqNodeId id(
        static_cast<decseq::SeqNodeId::underlying_type>(n));
    if (s.assignment->machine_of(id) != sys.assignment().machine_of(id)) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// The compiled epoch's shape: seqgraph.atoms, seqgraph.path_atoms_*,
/// membership.overlaps, membership.pair_increments and placement.machines.
void report_shape(const decseq::pubsub::PubSubSystem& sys, Result& result) {
  const auto& graph = sys.graph();
  double sum = 0.0, max = 0.0;
  std::size_t groups = 0;
  for (const GroupId g : sys.membership().live_groups()) {
    const double n = static_cast<double>(graph.path(g).size());
    sum += n;
    max = std::max(max, n);
    ++groups;
  }
  result.add("seqgraph.atoms", "count", static_cast<double>(graph.num_atoms()));
  result.add("seqgraph.path_atoms_mean", "count",
             groups > 0 ? sum / static_cast<double>(groups) : 0.0, groups);
  result.add("seqgraph.path_atoms_max", "count", max, groups);
  result.add("membership.overlaps", "count",
             static_cast<double>(sys.overlaps().num_overlaps()));
  result.add("membership.pair_increments", "count",
             static_cast<double>(sys.overlaps().build_stats().pair_increments));
  std::unordered_set<std::uint32_t> machines;
  for (std::size_t n = 0; n < sys.assignment().num_nodes(); ++n) {
    const decseq::SeqNodeId id(
        static_cast<decseq::SeqNodeId::underlying_type>(n));
    if (sys.assignment().assigned(id)) {
      machines.insert(sys.assignment().machine_of(id).value());
    }
  }
  result.add("placement.machines", "count",
             static_cast<double>(machines.size()));
}

}  // namespace

std::size_t compare_overlaps(const LayeredStack& s,
                             const decseq::pubsub::PubSubSystem& sys) {
  const auto& a = s.overlaps->overlaps();
  const auto& b = sys.overlaps().overlaps();
  if (a.size() != b.size()) return 1;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || a[i].second != b[i].second ||
        a[i].members != b[i].members) {
      ++mismatches;
    }
  }
  return mismatches;
}

TracedSetup traced_setup(const decseq::pubsub::SystemConfig& config,
                         const std::vector<std::vector<NodeId>>& groups,
                         bool keep_layers, SpanLog& spans, Result& result) {
  TracedSetup out;
  // The layer spans of set-up; each is a direct child of setup.layered.
  static constexpr const char* kLayers[] = {
      "topology.generate",   "membership.install", "membership.overlap_build",
      "placement.colocate",  "seqgraph.build",     "placement.assign",
      "protocol.network_build"};
  const Clock::time_point start = Clock::now();
  {
    SpanLog::Scope span(spans, "setup.layered");
    out.layers = std::make_unique<LayeredStack>(config);
    out.layers->build_topology(spans);
    out.layers->rebuild(spans);  // the constructor's empty epoch
    {
      SpanLog::Scope install(spans, "membership.install");
      for (const auto& members : groups) {
        out.layers->membership.add_group(members);
      }
    }
    out.layers->rebuild(spans);
  }
  out.layered_ms = ms_since(start);
  for (const char* layer : kLayers) {
    out.attributed_ms += spans.totals_of(layer).total_ms;
  }
  const auto ms = [&](const char* name) {
    return spans.totals_of(name).total_ms;
  };
  result.add("topology.generate_ms", "ms", ms("topology.generate"));
  result.add("membership.overlap_build_ms", "ms",
             ms("membership.overlap_build"));
  result.add("placement.colocate_ms", "ms", ms("placement.colocate"));
  result.add("placement.assign_ms", "ms", ms("placement.assign"));
  result.add("seqgraph.build_ms", "ms", ms("seqgraph.build"));
  result.add("protocol.network_build_ms", "ms", ms("protocol.network_build"));
  result.add("protocol.routing_table_bytes", "bytes",
             static_cast<double>(out.layers->network->routing_table_bytes()));
  if (!keep_layers) {
    // The oracle's rows are most of the 100k-host footprint; the compiled
    // epoch stays for the comparison below.
    out.layers->network.reset();
    out.layers->oracle.reset();
  }
  {
    SpanLog::Scope span(spans, "setup.facade");
    {
      SpanLog::Scope construct(spans, "pubsub.construct");
      out.system = std::make_unique<decseq::pubsub::PubSubSystem>(config);
    }
    {
      SpanLog::Scope install(spans, "pubsub.create_groups");
      out.system->create_groups(groups);
    }
  }
  result.add("pubsub.create_groups_ms", "ms", ms("pubsub.create_groups"));
  report_shape(*out.system, result);
  out.mismatches = compare_epoch(*out.layers, *out.system);
  if (out.mismatches != 0) {
    result.problem("layered epoch differs from the facade's in " +
                   std::to_string(out.mismatches) + " places");
  }
  if (!keep_layers) out.layers.reset();
  return out;
}

void report_setup_split(double wall_ms, double attributed_ms, Result& result) {
  result.add("trace.setup_wall_ms", "ms", wall_ms);
  result.add("trace.setup_unattributed_ms", "ms", wall_ms - attributed_ms);
}

void report_oracle(decseq::pubsub::PubSubSystem& sys, Result& result) {
  const auto& stats = sys.oracle().stats();
  result.add("topology.oracle_full_rows", "count",
             static_cast<double>(stats.full_rows));
  result.add("topology.oracle_point_queries", "count",
             static_cast<double>(stats.point_queries));
}

}  // namespace perfbench
