// Membership matrix file format.
//
// One group per line: whitespace/comma-separated subscriber ids, `#`
// comments, blank lines ignored. Example:
//
//   # three groups over nodes 0..5
//   0 1 2
//   1,2,3
//   4 5
//
// Lets users run their own matrices through explore_cli --membership, and
// snapshots generated workloads for exact reproduction.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "membership/membership.h"

namespace decseq::membership {

/// Node ids a membership file may name stay below this: 2^22, four times
/// the million-host tier (2^20 hosts). The reader sizes the membership by
/// the largest id, so the bound also caps what a one-line file can make
/// GroupMembership allocate (one per-node list per id, about 100 MB here).
inline constexpr std::uint32_t kMaxMembershipNodes = std::uint32_t{1} << 22;

/// Parse a membership file. `num_nodes` of the result is one past the
/// largest node id seen (or the explicit minimum if larger). Throws
/// CheckFailure on malformed input (non-numeric tokens, a sign, ids at or
/// above kMaxMembershipNodes, empty groups, duplicate members).
[[nodiscard]] GroupMembership read_membership(std::istream& in,
                                              std::size_t min_nodes = 0);

/// Serialize live groups, one line per group, ids space-separated.
void write_membership(const GroupMembership& membership, std::ostream& out);

}  // namespace decseq::membership
