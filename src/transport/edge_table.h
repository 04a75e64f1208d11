// Flat per-edge lookup table for the channel demultiplexer and both
// fabrics.
//
// Edge ids are dense by construction (app/cluster_config.h numbers every
// directed channel from 0), so a vector indexed by id is the whole map: a
// lookup is a bounds check and a load, with no hashing. The bounds check
// is the robustness rule: an id off the table — a corrupted or forged
// frame naming an edge nobody registered — reads as absent.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "transport/transport.h"

namespace decseq::transport {

template <typename T>
class EdgeTable {
 public:
  /// The entry for `edge`, or nullptr if none is registered.
  [[nodiscard]] T* find(EdgeId edge) {
    if (edge >= slots_.size() || !slots_[edge].has_value()) return nullptr;
    return &*slots_[edge];
  }

  /// Register `edge` unless it already has an entry; returns whether it
  /// was inserted. The table grows to the largest id registered.
  bool insert(EdgeId edge, T value) {
    if (find(edge) != nullptr) return false;
    insert_or_assign(edge, std::move(value));
    return true;
  }
  void insert_or_assign(EdgeId edge, T value) {
    if (edge >= slots_.size()) {
      slots_.resize(static_cast<std::size_t>(edge) + 1);
    }
    slots_[edge] = std::move(value);
  }

 private:
  std::vector<std::optional<T>> slots_;
};

}  // namespace decseq::transport
