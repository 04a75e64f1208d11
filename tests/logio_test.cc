#include <gtest/gtest.h>

#include <sstream>

#include "metrics/logio.h"
#include "tests/test_util.h"

namespace decseq::metrics {
namespace {

using test::N;

std::vector<pubsub::Delivery> sample_log() {
  return {
      {N(1), MsgId(10), test::G(0), N(0), 77, 1.5, 20.25},
      {N(2), MsgId(10), test::G(0), N(0), 77, 1.5, 31.0},
      {N(1), MsgId(11), test::G(1), N(3), 0, 2.0, 25.5},
  };
}

TEST(LogIo, RoundTrip) {
  const auto original = sample_log();
  std::stringstream buffer;
  write_delivery_log(original, buffer);
  const auto loaded = read_delivery_log(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].receiver, original[i].receiver);
    EXPECT_EQ(loaded[i].message, original[i].message);
    EXPECT_EQ(loaded[i].group, original[i].group);
    EXPECT_EQ(loaded[i].sender, original[i].sender);
    EXPECT_EQ(loaded[i].payload, original[i].payload);
    EXPECT_DOUBLE_EQ(loaded[i].sent_at, original[i].sent_at);
    EXPECT_DOUBLE_EQ(loaded[i].delivered_at, original[i].delivered_at);
  }
}

TEST(LogIo, RejectsMissingHeader) {
  std::stringstream buffer("1,2,3,4,5,6,7\n");
  EXPECT_THROW((void)read_delivery_log(buffer), CheckFailure);
}

TEST(LogIo, RejectsShortRow) {
  std::stringstream buffer;
  write_delivery_log({}, buffer);
  buffer << "1,2,3\n";
  EXPECT_THROW((void)read_delivery_log(buffer), CheckFailure);
}

TEST(LogIo, RejectsNonNumericField) {
  std::stringstream buffer;
  write_delivery_log({}, buffer);
  buffer << "1,2,3,4,banana,6,7\n";
  EXPECT_THROW((void)read_delivery_log(buffer), CheckFailure);
}

TEST(LogIo, RejectsSignedAndOutOfRangeIntegers) {
  // Each row would wrap or narrow through a cast of std::stoul: a signed
  // id, ids at or above 2^32 (and the invalid-id sentinel 2^32 - 1), a
  // signed payload and one past 2^64 - 1, and a sign or space on a field.
  // std::stod took the last six rows' times: nan, infinite, space-led,
  // negative and hex.
  for (const char* row : {"-1,10,0,0,77,1.5,20.25",
                          "4294967297,10,0,0,77,1.5,20.25",
                          "1,10,0,4294967296,77,1.5,20.25",
                          "4294967295,10,0,0,77,1.5,20.25",
                          "1,4294967296,0,0,77,1.5,20.25",
                          "1,10,4294967296,0,77,1.5,20.25",
                          "1,10,0,0,-5,1.5,20.25",
                          "1,10,0,0,18446744073709551616,1.5,20.25",
                          "+1,10,0,0,77,1.5,20.25", " 1,10,0,0,77,1.5,20.25",
                          "1,10,0,0,77 ,1.5,20.25", "1,10,0,0,,1.5,20.25",
                          "1,10,0,0,77,,20.25", "1,10,0,0,77,nan,inf",
                          "1,10,0,0,77,1.5,inf", "1,10,0,0,77, 1.5,-3",
                          "1,10,0,0,77,1.5,-3", "1,10,0,0,77,0x1p3,2"}) {
    std::stringstream buffer;
    write_delivery_log({}, buffer);
    buffer << row << "\n";
    EXPECT_THROW((void)read_delivery_log(buffer), CheckFailure) << row;
  }
}

TEST(LogIo, ReadsTheLargestIdsAndPayload) {
  std::stringstream buffer;
  write_delivery_log({}, buffer);
  buffer << "4294967294,4294967294,4294967294,4294967294,"
            "18446744073709551615,0,0\n";
  const auto log = read_delivery_log(buffer);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].receiver.value(), 4294967294u);
  EXPECT_EQ(log[0].sender.value(), 4294967294u);
  EXPECT_EQ(log[0].payload, 18446744073709551615u);
}

TEST(LogIo, SkipsBlankLines) {
  std::stringstream buffer;
  write_delivery_log(sample_log(), buffer);
  buffer << "\n\n";
  EXPECT_EQ(read_delivery_log(buffer).size(), 3u);
}

TEST(LogIo, OfflineVerifierAcceptsConsistentLog) {
  EXPECT_FALSE(find_order_violation(sample_log()).has_value());
}

TEST(LogIo, OfflineVerifierFlagsInversion) {
  // Receivers 1 and 2 both see messages 10 and 11, in opposite orders.
  const std::vector<pubsub::Delivery> bad = {
      {N(1), MsgId(10), test::G(0), N(0), 0, 0.0, 1.0},
      {N(1), MsgId(11), test::G(0), N(0), 0, 0.0, 2.0},
      {N(2), MsgId(11), test::G(0), N(0), 0, 0.0, 1.0},
      {N(2), MsgId(10), test::G(0), N(0), 0, 0.0, 2.0},
  };
  const auto violation = find_order_violation(bad);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("disagree"), std::string::npos);
}

TEST(LogIo, EndToEndSaveAndAudit) {
  pubsub::PubSubSystem system(test::small_config(131));
  const GroupId g0 = system.create_group({N(0), N(1), N(2)});
  const GroupId g1 = system.create_group({N(1), N(2), N(3)});
  for (int i = 0; i < 5; ++i) {
    system.publish(N(0), g0);
    system.publish(N(3), g1);
  }
  system.run();

  std::stringstream buffer;
  write_delivery_log(system.deliveries(), buffer);
  const auto loaded = read_delivery_log(buffer);
  EXPECT_EQ(loaded.size(), system.deliveries().size());
  EXPECT_FALSE(find_order_violation(loaded).has_value());
}

}  // namespace
}  // namespace decseq::metrics
