// The simulator workloads (paper, hosts100k, paper_churn).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "pubsub/system.h"
#include "util.h"

namespace perfbench {

/// The deployment every simulator workload runs on: the paper's
/// 10,000-router transit-stub topology and host attachment, generated from
/// this fixed seed. The workload seed drives only the membership, the
/// publish schedule and the churn batches.
constexpr std::uint64_t kDeploymentSeed = 20060101;
/// The initial membership is part of the deployment too: the generator
/// runs at this fixed seed. The workload seed draws every publish's sender
/// and the churn batches. (A seed that also redrew the membership, or only
/// moved its hosts around the topology, swung the paper tier's throughput
/// and latency by a fifth to a third between seeds: 128 hosts are too few
/// for the draw to average out.)
constexpr std::uint64_t kMembershipSeed = 20060102;

struct SimSpec {
  const char* name;
  std::size_t hosts;
  std::size_t clusters;
  std::size_t groups;
  bool popularity;  ///< Zipf-popular members (else uniform)
  bool churn;       ///< one reconfigure_async batch per round
  /// Untraced runs build this many fresh systems (each set up, then a cold
  /// and a warm pass over its slice of the schedule).
  std::size_t blocks;
  /// Rounds per pass per requested second: the pass length is fixed by
  /// the seconds argument alone, so every build replays the same inputs.
  double rounds_per_second;
};

const SimSpec* find_sim_spec(const std::string& name);

/// The workload's system configuration: the fixed deployment.
decseq::pubsub::SystemConfig deployment(const SimSpec& spec);

/// The workload's initial member lists in creation order (the membership
/// generator at kMembershipSeed).
std::vector<std::vector<decseq::NodeId>> initial_groups(const SimSpec& spec);

Result run_sim_workload(const SimSpec& spec, std::uint64_t seed,
                        double seconds, bool trace, SpanLog& spans);

}  // namespace perfbench
