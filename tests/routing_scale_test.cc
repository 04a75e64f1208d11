// Golden tests pinning the scaled routing control plane to the legacy
// implementations it replaced: the CSR/arena sequencing-graph builder (full
// and delta), the inverted-index overlap co-location, and the closed-form
// machine assignment must produce *identical* output — same atoms, paths,
// labels, machines — and consume identical RNG draw sequences, over 200
// seeds of randomized workloads. The legacy builders ran beside them until
// their answers were recorded as one digest per test
// (pubsub/epoch_digest.h); each test now compares with the recording.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fnv1a.h"
#include "common/zipf.h"

#include "membership/generators.h"
#include "membership/membership.h"
#include "membership/overlap.h"
#include "placement/assignment.h"
#include "placement/colocation.h"
#include "pubsub/epoch_digest.h"
#include "runtime/parallel.h"
#include "seqgraph/graph.h"
#include "seqgraph/validator.h"
#include "tests/test_util.h"
#include "topology/hosts.h"
#include "topology/transit_stub.h"

namespace decseq {
namespace {

using membership::GroupMembership;
using membership::OverlapIndex;
using seqgraph::BuildOptions;
using seqgraph::BuildStrategy;
using seqgraph::SequencingGraph;

constexpr int kSeeds = 200;

/// Recorded digests of each test's builds, every seed folded in order, as
/// the legacy builders built them. Regenerate one only for a deliberate
/// change of the compiled epoch.
constexpr std::uint64_t kFullBuildDigest = 0x7eecb3f27703c1b7ULL;
constexpr std::uint64_t kDeltaBuildDigest = 0x2295c988cf2951fbULL;
constexpr std::uint64_t kPaperSizedChainsDigest = 0xc2feac011b930cf0ULL;
constexpr std::uint64_t kThreadedCompileDigest = 0x69ac2bc74bbebc09ULL;
constexpr std::uint64_t kColocationDigest = 0x50042c6ed9f4527eULL;
constexpr std::uint64_t kAssignmentDigest = 0x2139d2f0205bc5acULL;

/// A golden digest names no seed, so each build must also keep C1/C2: a
/// miss that breaks them names its seed here.
void expect_valid(const SequencingGraph& graph, const GroupMembership& m,
                  const OverlapIndex& idx, int seed) {
  const seqgraph::ValidationReport report =
      seqgraph::validate_sequencing_graph(graph, m, idx);
  ASSERT_TRUE(report.ok) << "seed " << seed << ": " << report.errors.front();
}

GroupMembership workload(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 0x9e3779b9u + 1);
  return membership::zipf_membership(
      {.num_nodes = 24 + static_cast<std::size_t>(seed % 5) * 8,
       .num_groups = 6 + static_cast<std::size_t>(seed % 4) * 2,
       .scale = 1.0 + 0.25 * static_cast<double>(seed % 3)},
      rng);
}

BuildOptions options_for(int seed) {
  BuildOptions options;
  switch (seed % 3) {
    case 0: options.strategy = BuildStrategy::kChain; break;
    case 1: options.strategy = BuildStrategy::kChainUnordered; break;
    default: options.strategy = BuildStrategy::kGreedyTree; break;
  }
  return options;
}

TEST(RoutingScale, FullBuildMatchesLegacyOver200Seeds) {
  // One scratch shared across all seeds: reuse across workloads of
  // different shapes must not leak state between compiles.
  seqgraph::BuildScratch scratch;
  std::uint64_t digest = kFnvOffsetBasis;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const GroupMembership m = workload(seed);
    const OverlapIndex idx(m);
    BuildOptions options = options_for(seed);
    std::vector<std::size_t> labels;
    if (seed % 2 == 0) {
      Rng label_rng(static_cast<std::uint64_t>(seed) + 77);
      labels = placement::colocate_overlaps(idx, {}, label_rng);
      options.colocation_labels = &labels;
    }
    if (seed % 4 < 2) options.scratch = &scratch;
    const SequencingGraph got =
        seqgraph::build_sequencing_graph(m, idx, options);
    expect_valid(got, m, idx, seed);
    digest = pubsub::fold_graph(digest, got, m);
  }
  EXPECT_EQ(digest, kFullBuildDigest);
}

TEST(RoutingScale, DeltaBuildMatchesLegacyMidReconfigure) {
  seqgraph::BuildScratch scratch;
  std::uint64_t digest = kFnvOffsetBasis;
  for (int seed = 0; seed < kSeeds; ++seed) {
    GroupMembership m = workload(seed);
    const OverlapIndex idx(m);
    BuildOptions options = options_for(seed);
    options.scratch = &scratch;
    const SequencingGraph base =
        seqgraph::build_sequencing_graph(m, idx, options);
    expect_valid(base, m, idx, seed);
    digest = pubsub::fold_graph(digest, base, m);

    // One membership mutation, then the delta rebuild — the path a live
    // reconfigure_async compiles mid-transition.
    Rng rng(static_cast<std::uint64_t>(seed) + 31);
    const auto live = m.live_groups();
    std::vector<GroupId> dirty;
    const std::size_t kind = rng.next_below(3);
    if (kind == 0 || live.empty()) {
      std::vector<NodeId> members;
      const std::size_t size = 2 + rng.next_below(3);
      while (members.size() < size) {
        const NodeId cand(static_cast<NodeId::underlying_type>(
            rng.next_below(m.num_nodes())));
        bool dup = false;
        for (const NodeId v : members) dup = dup || v == cand;
        if (!dup) members.push_back(cand);
      }
      dirty.push_back(m.add_group(std::move(members)));
    } else if (kind == 1) {
      const GroupId g = live[rng.next_below(live.size())];
      m.remove_group(g);
      dirty.push_back(g);
    } else {
      const GroupId g = live[rng.next_below(live.size())];
      NodeId joiner;
      for (std::size_t probe = 0; probe < m.num_nodes(); ++probe) {
        const NodeId cand(static_cast<NodeId::underlying_type>(probe));
        if (!m.is_member(g, cand)) {
          joiner = cand;
          break;
        }
      }
      if (!joiner.valid()) continue;  // the group spans every node
      m.add_member(g, joiner);
      dirty.push_back(g);
    }

    const OverlapIndex new_idx(idx, m, dirty);
    seqgraph::DeltaBuildStats got_stats;
    const SequencingGraph got = seqgraph::build_sequencing_graph_delta(
        base, idx, m, new_idx, dirty, options, &got_stats);
    expect_valid(got, m, new_idx, seed);
    digest = pubsub::fold_graph(digest, got, m);
    digest = pubsub::fold_delta_stats(digest, got_stats);

    // The form PubSubSystem uses: the old graph moved in and edited in
    // place rather than copied.
    SequencingGraph consumed = base;
    seqgraph::DeltaBuildStats moved_stats;
    const SequencingGraph moved = seqgraph::build_sequencing_graph_delta(
        std::move(consumed), idx, m, new_idx, dirty, options, &moved_stats);
    digest = pubsub::fold_graph(digest, moved, m);
    digest = pubsub::fold_delta_stats(digest, moved_stats);
  }
  EXPECT_EQ(digest, kDeltaBuildDigest);
}

TEST(RoutingScale, PaperSizedLabelledChainsMatchLegacy) {
  // The paper deployment's shape: 128 hosts, 64 Zipf-popular groups,
  // co-location labels, kChain. Its overlap components reach about 30
  // groups and its chains about 40 entries, so the local search prices and
  // makes many swaps. The full build and a run of successive labelled
  // delta builds (one join and one leave each) must match the recorded
  // answer of the legacy builder, whose local search kept every group's
  // positions in a multiset.
  using Kind = pubsub::PubSubSystem::MembershipChange::Kind;
  seqgraph::BuildScratch scratch;
  const ZipfSampler popularity(128, 1.0);
  std::size_t largest_component = 0;
  std::uint64_t digest = kFnvOffsetBasis;
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 20060102);
    GroupMembership m = membership::zipf_membership(
        {.num_nodes = 128, .num_groups = 64}, rng);
    auto idx = std::make_unique<OverlapIndex>(m);
    Rng label_rng(static_cast<std::uint64_t>(seed) + 41);
    std::vector<std::size_t> labels =
        placement::colocate_overlaps(*idx, {}, label_rng);
    BuildOptions options;
    options.strategy = BuildStrategy::kChain;
    options.colocation_labels = &labels;
    options.scratch = &scratch;
    SequencingGraph got = seqgraph::build_sequencing_graph(m, *idx, options);
    expect_valid(got, m, *idx, seed);
    digest = pubsub::fold_graph(digest, got, m);
    for (std::size_t t = 0; t < 24; ++t) {
      for (const auto& component : idx->components()) {
        largest_component = std::max(largest_component, component.size());
      }
      std::vector<GroupId> dirty;
      for (const auto& change : test::churn_batch(m, t, popularity, rng)) {
        if (change.kind == Kind::kJoin) {
          m.add_member(change.group, change.node);
        } else {
          m.remove_member(change.group, change.node);
        }
        dirty.push_back(change.group);
      }
      auto next = std::make_unique<OverlapIndex>(*idx, m, dirty);
      labels = placement::colocate_overlaps(*next, {}, label_rng);
      seqgraph::DeltaBuildStats got_stats;
      SequencingGraph next_got = seqgraph::build_sequencing_graph_delta(
          std::move(got), *idx, m, *next, dirty, options, &got_stats);
      expect_valid(next_got, m, *next, seed * 100 + static_cast<int>(t));
      digest = pubsub::fold_graph(digest, next_got, m);
      digest = pubsub::fold_delta_stats(digest, got_stats);
      got = std::move(next_got);
      idx = std::move(next);
    }
  }
  EXPECT_GE(largest_component, 20u) << "the family lost its large components";
  EXPECT_EQ(digest, kPaperSizedChainsDigest);
}

TEST(RoutingScale, ThreadedCompileMatchesLegacy) {
  // The compile lays components out on runtime::compile_threads() workers
  // once at least two components hold 512 groups between them. 300
  // disjoint components of two to four groups (each group 4 or 5 of its
  // component's 6 hosts, so any two share at least 2) cross that line,
  // under every strategy and with co-location labels for the chains; the
  // output must equal the serial legacy build's, as recorded. Under
  // DECSEQ_COMPILE_THREADS=1 the same digest pins the serial layout.
  Rng rng(300);
  GroupMembership m(300 * 6);
  for (std::uint32_t c = 0; c < 300; ++c) {
    for (std::uint32_t j = 0; j < 2 + c % 3; ++j) {
      std::vector<NodeId> members;
      for (std::uint32_t h = 0; h < 6; ++h) members.push_back(NodeId(c * 6 + h));
      rng.shuffle(members);
      members.resize(4 + rng.next_below(2));
      std::sort(members.begin(), members.end());
      (void)m.add_group(std::move(members));
    }
  }
  const OverlapIndex idx(m);
  ASSERT_EQ(idx.components().size(), 300u);
  Rng label_rng(301);
  const std::vector<std::size_t> labels =
      placement::colocate_overlaps(idx, {}, label_rng);
  seqgraph::BuildScratch scratch;
  std::uint64_t digest = kFnvOffsetBasis;
  for (const BuildStrategy strategy :
       {BuildStrategy::kChain, BuildStrategy::kChainUnordered,
        BuildStrategy::kGreedyTree}) {
    for (const bool labelled : {false, true}) {
      if (labelled && strategy == BuildStrategy::kGreedyTree) continue;
      BuildOptions options;
      options.strategy = strategy;
      if (labelled) options.colocation_labels = &labels;
      options.scratch = &scratch;
      const SequencingGraph got =
          seqgraph::build_sequencing_graph(m, idx, options);
      expect_valid(got, m, idx, static_cast<int>(strategy) * 2 + labelled);
      digest = pubsub::fold_graph(digest, got, m);
    }
  }
  EXPECT_EQ(digest, kThreadedCompileDigest);
}

TEST(CompileThreads, ParsesTheVariableStrictly) {
  using runtime::parse_compile_threads;
  EXPECT_EQ(parse_compile_threads("0"), 1u);
  EXPECT_EQ(parse_compile_threads("1"), 1u);
  EXPECT_EQ(parse_compile_threads("4"), 4u);
  EXPECT_EQ(parse_compile_threads("256"), runtime::kMaxCompileThreads);
  for (const char* bad : {"-1", "+4", "4x", "", "257", " 4",
                          "18446744073709551616"}) {
    EXPECT_THROW((void)parse_compile_threads(bad), CheckFailure)
        << "'" << bad << "'";
  }
  try {
    (void)parse_compile_threads("-1");
    FAIL() << "-1 accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("DECSEQ_COMPILE_THREADS"),
              std::string::npos)
        << e.what();
  }
}

TEST(RoutingScale, ColocationMatchesLegacyOver200Seeds) {
  constexpr placement::ColocationMode kModes[] = {
      placement::ColocationMode::kNone, placement::ColocationMode::kSubsetOnly,
      placement::ColocationMode::kFull};
  std::uint64_t digest = kFnvOffsetBasis;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const GroupMembership m = workload(seed);
    const OverlapIndex idx(m);
    const placement::ColocationOptions options{kModes[seed % 3]};
    Rng rng(static_cast<std::uint64_t>(seed) + 5);
    digest = pubsub::fold_labels(
        digest, placement::colocate_overlaps(idx, options, rng));
    // The next draw pins the draw sequence too: the streams stay aligned
    // for everything the pipeline draws afterwards.
    digest = fnv1a_word(digest, rng());
  }
  EXPECT_EQ(digest, kColocationDigest);
}

TEST(RoutingScale, AssignmentMatchesLegacyOver200Seeds) {
  Rng topo_rng(11);
  const auto topo =
      topology::generate_transit_stub(test::small_topology(), topo_rng);
  const auto hosts = topology::attach_hosts(
      topo, {.num_hosts = 64, .num_clusters = 8}, topo_rng);
  std::uint64_t digest = kFnvOffsetBasis;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const GroupMembership m = workload(seed);
    const OverlapIndex idx(m);
    BuildOptions options = options_for(seed);
    Rng label_rng(static_cast<std::uint64_t>(seed) + 13);
    const auto labels = placement::colocate_overlaps(idx, {}, label_rng);
    options.colocation_labels = &labels;
    const SequencingGraph graph =
        seqgraph::build_sequencing_graph(m, idx, options);
    expect_valid(graph, m, idx, seed);
    const placement::Colocation colocation =
        placement::apply_labels(graph, labels);
    placement::AssignmentOptions assign_options;
    assign_options.mode = seed % 4 == 3 ? placement::AssignmentMode::kAllRandom
                                        : placement::AssignmentMode::kPaperHeuristic;
    assign_options.seed = seed % 2 == 0 ? placement::SeedPolicy::kGroupMember
                                        : placement::SeedPolicy::kRandomRouter;
    Rng rng(static_cast<std::uint64_t>(seed) + 19);
    digest = pubsub::fold_assignment(
        digest, placement::assign_machines(graph, colocation, m, hosts,
                                           topo.graph, assign_options, rng));
    digest = fnv1a_word(digest, rng());
  }
  EXPECT_EQ(digest, kAssignmentDigest);
}

}  // namespace
}  // namespace decseq
