#include <gtest/gtest.h>

#include <sstream>

#include "membership/io.h"
#include "tests/test_util.h"

namespace decseq::membership {
namespace {

using test::G;
using test::N;

TEST(MembershipIo, ParsesGroupsCommentsAndCommas) {
  std::stringstream in(
      "# header comment\n"
      "0 1 2\n"
      "\n"
      "1,2,3   # trailing comment\n"
      "4 5\n");
  const auto m = read_membership(in);
  EXPECT_EQ(m.num_groups(), 3u);
  EXPECT_EQ(m.num_nodes(), 6u);
  EXPECT_EQ(m.members(G(0)), (std::vector<NodeId>{N(0), N(1), N(2)}));
  EXPECT_EQ(m.members(G(1)), (std::vector<NodeId>{N(1), N(2), N(3)}));
}

TEST(MembershipIo, MinNodesExtendsPopulation) {
  std::stringstream in("0 1\n");
  const auto m = read_membership(in, /*min_nodes=*/10);
  EXPECT_EQ(m.num_nodes(), 10u);
}

TEST(MembershipIo, RejectsGarbageAndDuplicates) {
  std::stringstream bad_token("0 banana\n");
  EXPECT_THROW((void)read_membership(bad_token), CheckFailure);
  std::stringstream duplicate("0 0 1\n");
  EXPECT_THROW((void)read_membership(duplicate), CheckFailure);
  std::stringstream empty("# nothing\n\n");
  EXPECT_THROW((void)read_membership(empty), CheckFailure);
}

TEST(MembershipIo, RejectsSignedAndOutOfRangeIds) {
  // "0 4294967296" once read as nodes 0 and 0 and sized the membership for
  // 2^32 + 1 nodes. Ids carry no sign and stay below kMaxMembershipNodes,
  // so nothing is allocated for any of these.
  for (const char* text : {"0 4294967296\n", "0 4294967297\n", "0 -1\n",
                           "-0 1\n", "0 +1\n", "0 18446744073709551616\n",
                           "0 4194304\n"}) {
    std::stringstream in(text);
    EXPECT_THROW((void)read_membership(in), CheckFailure) << text;
  }
  static_assert(kMaxMembershipNodes == 4194304u);
  std::stringstream below("0 100000\n");
  EXPECT_EQ(read_membership(below).num_nodes(), 100001u);
}

TEST(MembershipIo, RoundTrip) {
  const auto original = test::make_membership(
      8, {{0, 1, 2, 3}, {2, 3, 4}, {5, 6, 7}});
  std::stringstream buffer;
  write_membership(original, buffer);
  const auto loaded = read_membership(buffer);
  ASSERT_EQ(loaded.num_groups(), original.num_groups());
  for (const GroupId g : original.live_groups()) {
    EXPECT_EQ(loaded.members(g), original.members(g));
  }
}

}  // namespace
}  // namespace decseq::membership
