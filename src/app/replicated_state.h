// Replicated state machines over ordered delivery.
//
// The stock-ticker application (paper §1.1) is the canonical use: "an
// ordering protocol ensures that update operations that change state result
// in consistent states across the receivers that apply those updates in the
// same order." This header packages that pattern: one deterministic state
// machine per subscriber, fed that subscriber's deliveries in order, plus a
// convergence checker that compares digests across replicas with identical
// subscription sets.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "pubsub/system.h"

namespace decseq::app {

/// A set of per-node replicas of a deterministic state machine.
///
/// `State` must be default-constructible. `apply` must be deterministic in
/// (state, delivery): replicas that apply the same deliveries in the same
/// order end in the same state — which the ordering layer guarantees for
/// replicas subscribing to the same groups.
template <typename State>
class ReplicaSet {
 public:
  using ApplyFn = std::function<void(State&, const pubsub::Delivery&)>;
  using DigestFn = std::function<std::uint64_t(const State&)>;

  ReplicaSet(pubsub::PubSubSystem& system, ApplyFn apply, DigestFn digest)
      : system_(&system),
        apply_(std::move(apply)),
        digest_(std::move(digest)) {
    DECSEQ_CHECK(apply_ != nullptr && digest_ != nullptr);
  }

  /// Host a replica at `node`. Deliveries that already happened are
  /// replayed into it on the next sync().
  void add_replica(NodeId node) { replicas_.try_emplace(node); }

  /// Apply all deliveries recorded since the last sync to their replicas,
  /// in delivery order. Call after system.run().
  void sync() {
    const auto& log = system_->deliveries();
    for (; cursor_ < log.size(); ++cursor_) {
      const pubsub::Delivery& d = log[cursor_];
      const auto it = replicas_.find(d.receiver);
      if (it != replicas_.end()) apply_(it->second, d);
    }
  }

  [[nodiscard]] const State& state_of(NodeId node) const {
    const auto it = replicas_.find(node);
    DECSEQ_CHECK_MSG(it != replicas_.end(), "no replica at node " << node);
    return it->second;
  }

  [[nodiscard]] std::uint64_t digest_of(NodeId node) const {
    return digest_(state_of(node));
  }

  /// First pair of replicas with identical subscription sets whose digests
  /// differ — the divergence the ordering layer must prevent. nullopt when
  /// all comparable replicas agree.
  [[nodiscard]] std::optional<std::pair<NodeId, NodeId>> find_divergence()
      const {
    std::vector<std::pair<std::vector<GroupId>, NodeId>> keyed;
    for (const auto& [node, state] : replicas_) {
      keyed.push_back({system_->membership().groups_of(node), node});
    }
    for (std::size_t i = 0; i < keyed.size(); ++i) {
      for (std::size_t j = i + 1; j < keyed.size(); ++j) {
        if (keyed[i].first != keyed[j].first) continue;  // not comparable
        if (digest_of(keyed[i].second) != digest_of(keyed[j].second)) {
          return std::make_pair(keyed[i].second, keyed[j].second);
        }
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t num_replicas() const { return replicas_.size(); }

 private:
  pubsub::PubSubSystem* system_;
  ApplyFn apply_;
  DigestFn digest_;
  std::map<NodeId, State> replicas_;
  std::size_t cursor_ = 0;
};

}  // namespace decseq::app
