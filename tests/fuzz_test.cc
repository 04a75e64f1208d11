// Self-tests for the scenario fuzzer: generator and run determinism, the
// oracle set on clean seeds and on synthetic bad traces, repro round-trip,
// shrinker mutation algebra, and the end-to-end bug hunt — an injected
// ordering bug (receivers skipping stamp validation) must be caught by the
// oracles and shrunk to a minimal scenario.
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "fuzz/oracle.h"
#include "fuzz/repro.h"
#include "fuzz/runner.h"
#include "fuzz/scenario.h"
#include "fuzz/shrink.h"
#include "protocol/receiver.h"

namespace decseq::fuzz {
namespace {

/// Scoped enable for the hidden receiver bug (always restored, also on
/// test failure).
class StampBugGuard {
 public:
  StampBugGuard() { protocol::testhooks::g_skip_stamp_validation = true; }
  ~StampBugGuard() { protocol::testhooks::g_skip_stamp_validation = false; }
};

/// Byte-stable rendering of everything observable in a trace; two runs of
/// the same scenario must produce identical fingerprints.
std::string fingerprint(const RunTrace& t) {
  std::ostringstream os;
  os.precision(17);
  for (const pubsub::Delivery& d : t.log) {
    os << d.receiver << ',' << d.message << ',' << d.group << ',' << d.sender
       << ',' << d.payload << ',' << d.sent_at << ',' << d.delivered_at
       << '\n';
  }
  for (const PublishRecord& r : t.publishes) {
    os << r.payload << ':' << r.rejected << ';';
  }
  os << '\n';
  for (const std::size_t b : t.buffered_after_phase) os << b << ' ';
  os << '\n' << t.threw << ':' << t.exception_what;
  for (const std::string& e : t.graph_errors) os << '\n' << e;
  return os.str();
}

TEST(FuzzScenario, GeneratorIsDeterministic) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 31337ULL}) {
    EXPECT_EQ(generate_scenario(seed), generate_scenario(seed))
        << "seed " << seed;
  }
}

TEST(FuzzScenario, DistinctSeedsDiverge) {
  EXPECT_NE(generate_scenario(1), generate_scenario(2));
}

TEST(FuzzScenario, ChurnOpsNeverTargetSameBatchCreates) {
  // Regression: churn join/leave draws used to include the group created
  // earlier in the same phase's batch — an index the runner cannot resolve
  // to a GroupId yet, so the op was silently skipped and the sweep lost
  // that scenario weight. The generator must validate targets itself.
  const GeneratorOptions churny = sweep_options(false, true);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Scenario scenario =
        seed % 2 == 0 ? generate_scenario(seed, churny)
                      : generate_scenario(seed);
    std::uint32_t groups_before_phase = 0;
    for (std::size_t p = 0; p < scenario.phases.size(); ++p) {
      std::uint32_t created_this_phase = 0;
      for (const MembershipOp& op : scenario.phases[p].reconfig) {
        if (op.kind == MembershipOp::Kind::kCreate) {
          ++created_this_phase;
          continue;
        }
        if (op.kind == MembershipOp::Kind::kJoin ||
            op.kind == MembershipOp::Kind::kLeave) {
          EXPECT_LT(op.group, groups_before_phase)
              << "seed " << seed << " phase " << p
              << " churn op targets a group created in the same batch";
        }
      }
      groups_before_phase += created_this_phase;
    }
  }
}

TEST(FuzzRunner, RunIsBitDeterministic) {
  for (const std::uint64_t seed : {3ULL, 11ULL, 29ULL}) {
    const Scenario scenario = generate_scenario(seed);
    const std::string a = fingerprint(run_scenario(scenario));
    const std::string b = fingerprint(run_scenario(scenario));
    EXPECT_EQ(a, b) << "seed " << seed << " not deterministic";
  }
}

TEST(FuzzRunner, CleanSeedsPassAllOracles) {
  const std::vector<Oracle> oracles = default_oracles();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Scenario scenario = generate_scenario(seed);
    const RunTrace trace = run_scenario(scenario);
    const auto verdict = check_oracles(trace, oracles);
    EXPECT_FALSE(verdict.has_value())
        << "seed " << seed << " (" << scenario.summary() << ") violated ["
        << verdict->oracle << "]: " << verdict->detail;
  }
}

// The oracles must also fire on bad data — exercised with synthetic traces
// so each failure mode is pinned down independently of the protocol.
TEST(FuzzOracle, LivenessCatchesLostAndDuplicatedDeliveries) {
  const std::vector<Oracle> oracles = default_oracles();
  RunTrace t;
  PublishRecord r;
  r.payload = 0;
  r.ordinal = 0;
  r.expected_receivers = {NodeId(1), NodeId(2)};
  t.publishes.push_back(r);

  // Missing delivery at node 2.
  t.log.push_back({NodeId(1), MsgId(0), GroupId(0), NodeId(0), 0, 0.0, 1.0});
  auto verdict = check_oracles(t, oracles);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->oracle, "liveness");

  // Duplicate delivery at node 1.
  t.log.push_back({NodeId(2), MsgId(0), GroupId(0), NodeId(0), 0, 0.0, 1.0});
  t.log.push_back({NodeId(1), MsgId(0), GroupId(0), NodeId(0), 0, 0.0, 2.0});
  verdict = check_oracles(t, oracles);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->oracle, "liveness");

  // Exactly once to both members: clean.
  t.log.pop_back();
  EXPECT_FALSE(check_oracles(t, oracles).has_value());

  // A delivery matching no issued publish.
  t.log.push_back({NodeId(1), MsgId(9), GroupId(0), NodeId(0), 99, 0.0, 3.0});
  verdict = check_oracles(t, oracles);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->oracle, "liveness");
}

TEST(FuzzOracle, CausalityCatchesInvertedChain) {
  const std::vector<Oracle> oracles = default_oracles();
  RunTrace t;
  for (std::uint32_t ordinal : {0u, 1u}) {
    PublishRecord r;
    r.ordinal = ordinal;
    r.payload = ordinal | kCausalPayloadBit;
    r.causal = true;
    r.expected_receivers = {NodeId(1)};
    t.publishes.push_back(r);
  }
  // Node 1 observes sender 0's causal chain inverted: #1 before #0.
  t.log.push_back({NodeId(1), MsgId(1), GroupId(0), NodeId(0),
                   1 | kCausalPayloadBit, 0.0, 1.0});
  t.log.push_back({NodeId(1), MsgId(0), GroupId(1), NodeId(0),
                   0 | kCausalPayloadBit, 0.0, 2.0});
  const auto verdict = check_oracles(t, oracles);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->oracle, "causality");
}

TEST(FuzzRepro, RoundTripsExactly) {
  for (const std::uint64_t seed : {1ULL, 5ULL, 23ULL, 99ULL}) {
    const Scenario original = generate_scenario(seed);
    std::stringstream buffer;
    write_repro(original, buffer);
    const Scenario reloaded = read_repro(buffer);
    EXPECT_EQ(original, reloaded) << "seed " << seed << " repro not exact";
  }
}

TEST(FuzzRepro, RejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return read_repro(in);
  };
  EXPECT_THROW(parse(""), CheckFailure);
  EXPECT_THROW(parse("scenario v2\n"), CheckFailure);
  const std::string header =
      "scenario v1\nseed 1\nhosts 8\nclusters 2\nloss 0\nrto 40\n";
  EXPECT_THROW(parse(header), CheckFailure);  // no phase block
  EXPECT_THROW(parse(header + "phase\ncreate 0 1\n"), CheckFailure);  // no end
  EXPECT_THROW(parse(header + "phase\nwarp 1\nend\n"), CheckFailure);
  EXPECT_THROW(parse(header + "phase\npub 1.0 3\nend\n"), CheckFailure);
  EXPECT_THROW(parse(header + "phase\njoin 0 x\nend\n"), CheckFailure);
  // Missing header field.
  EXPECT_THROW(parse("scenario v1\nseed 1\nphase\nend\n"), CheckFailure);
  // Integers take digits only and never wrap: std::stoull read seed -1 as
  // 2^64 - 1 and took a '+'.
  const std::string tail = "clusters 2\nloss 0\nrto 40\nphase\nend\n";
  for (const char* fields :
       {"seed -1\nhosts 8\n", "seed +1\nhosts 8\n",
        "seed 18446744073709551616\nhosts 8\n", "seed 1\nhosts 4294967296\n",
        "seed 1\nhosts -8\n", "seed 1\nhosts 8x\n"}) {
    EXPECT_THROW(parse(std::string("scenario v1\n") + fields + tail),
                 CheckFailure)
        << fields;
  }
  EXPECT_NO_THROW(parse(
      "scenario v1\nseed 18446744073709551615\nhosts 4294967295\n" + tail));
  // A timeout that is not finite and positive, or a loss outside [0, 1):
  // rto 0 re-arms the retransmit timer at the same instant forever, and at
  // loss 1 no packet ever crosses.
  const std::string body = "phase\ncreate 0 1\nend\n";
  const std::string head = "scenario v1\nseed 1\nhosts 8\nclusters 2\n";
  for (const char* rto : {"0", "-0", "-5", "nan", "inf"}) {
    EXPECT_THROW(parse(head + "loss 0\nrto " + rto + "\n" + body),
                 CheckFailure)
        << "rto " << rto;
  }
  for (const char* loss : {"nan", "-0.1", "1", "1.5", "inf"}) {
    EXPECT_THROW(parse(head + "loss " + loss + "\nrto 40\n" + body),
                 CheckFailure)
        << "loss " << loss;
  }
  EXPECT_NO_THROW(parse(head + "loss 0.999\nrto 0.001\n" + body));
  // Comments and blank lines are fine.
  EXPECT_NO_THROW(parse("# hi\n" + header + "\nphase\ncreate 0 1\nend\n"));
}

TEST(FuzzRepro, RejectsMalformedTimes) {
  // Times and durations are finite numbers >= 0 in the strict from_chars
  // form. std::stod took nan, inf, negative and hex times, and the replay
  // then reported "scheduling into the past" as a protocol-stack bug.
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return read_repro(in);
  };
  // Lines 1-6 are the header, 7 the phase and 8 a group; the timed line is
  // line 9, with %s standing for the token under test.
  const std::string head =
      "scenario v1\nseed 1\nhosts 8\nclusters 2\nloss 0\nrto 40\n"
      "phase\ncreate 0 1\n";
  const std::vector<std::string> lines = {
      "pub %s 0 0",      "pubc %s 0 0",  "crash 0 %s 1",  "crash 0 1 %s",
      "pubcrash 0 %s 1", "pubcrash 0 1 %s", "cut 7 %s 1", "cut 7 1 %s",
      "fin 0 %s 0"};
  const auto with = [](std::string line, const std::string& token) {
    return line.replace(line.find("%s"), 2, token);
  };
  for (const std::string& line : lines) {
    for (const char* bad : {"nan", "inf", "-inf", "-5", "-1e-9", "0x1p3",
                            "+1", "1e400", "1.5x", ".", ""}) {
      try {
        (void)parse(head + with(line, bad) + "\nend\n");
        ADD_FAILURE() << "accepted '" << with(line, bad) << "'";
      } catch (const CheckFailure& e) {
        EXPECT_NE(std::string(e.what()).find("repro line 9"),
                  std::string::npos)
            << e.what();
      }
    }
    EXPECT_NO_THROW(parse(head + with(line, "0") + "\nend\n")) << line;
    EXPECT_NO_THROW(parse(head + with(line, "2.5e1") + "\nend\n")) << line;
  }
}

TEST(FuzzOracle, FifoForgivesRetriedIngressButCatchesPlainInversion) {
  const std::vector<Oracle> oracles = default_oracles();
  RunTrace t;
  for (std::uint32_t ordinal : {0u, 1u, 2u}) {
    PublishRecord r;
    r.ordinal = ordinal;
    r.payload = ordinal;
    r.id = MsgId(ordinal);
    r.expected_receivers = {NodeId(1)};
    t.publishes.push_back(r);
  }
  // Publish #0's ingress leg was retried (its machine was down): the retry
  // may legitimately land after the sender's later traffic.
  t.publishes[0].ingress_retried = true;
  t.log.push_back({NodeId(1), MsgId(1), GroupId(0), NodeId(0), 1, 0.0, 1.0});
  t.log.push_back({NodeId(1), MsgId(2), GroupId(0), NodeId(0), 2, 0.0, 2.0});
  t.log.push_back({NodeId(1), MsgId(0), GroupId(0), NodeId(0), 0, 0.0, 3.0});
  EXPECT_FALSE(check_oracles(t, oracles).has_value())
      << "the retried publish's late arrival is not a FIFO violation";

  // Inverting the two NON-retried publishes is a real violation; the
  // oracle must run (not be skipped) despite the fault in the trace.
  std::swap(t.log[0], t.log[1]);
  const auto verdict = check_oracles(t, oracles);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->oracle, "fifo");
}

TEST(FuzzOracle, ChannelFaultsCatchStuckFault) {
  const std::vector<Oracle> oracles = default_oracles();
  RunTrace t;
  // Faults that entered and later recovered are legal (informational).
  t.channel_fault_events = 3;
  EXPECT_FALSE(check_oracles(t, oracles).has_value());
  // An edge still faulted after a phase drain means a lost recovery.
  t.stuck_channel_faults.push_back("phase 0: 2->5");
  const auto verdict = check_oracles(t, oracles);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->oracle, "channel-faults");
}

TEST(FuzzOracle, LivenessCatchesUnexplainedIngressFailure) {
  const std::vector<Oracle> oracles = default_oracles();
  RunTrace t;
  PublishRecord r;
  r.payload = 0;
  r.expected_receivers = {NodeId(1)};
  r.ingress_failed = true;
  t.publishes.push_back(r);
  // Failed ingress with no publisher-crash window to blame: violation.
  auto verdict = check_oracles(t, oracles);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->oracle, "liveness");
  // Blamed on a crash window: clean, and nobody expects a delivery.
  t.publishes[0].ingress_failure_allowed = true;
  EXPECT_FALSE(check_oracles(t, oracles).has_value());
  // A message that failed ingress must never also be delivered.
  t.log.push_back({NodeId(1), MsgId(0), GroupId(0), NodeId(0), 0, 0.0, 1.0});
  verdict = check_oracles(t, oracles);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->oracle, "liveness");
}

/// Hand-built scenario for the mutation-algebra tests:
///   phase 0: create g0, create g1; fin g1; pubs to g0 and g1
///   phase 1: create g2; join(g0), leave(g2); pub to g2; crash
Scenario two_phase_fixture() {
  Scenario s;
  s.num_hosts = 8;
  Phase p0;
  p0.reconfig.push_back({MembershipOp::Kind::kCreate, 0, 0, {0, 1, 2}});
  p0.reconfig.push_back({MembershipOp::Kind::kCreate, 0, 0, {1, 2, 3}});
  p0.publishes.push_back({10.0, 0, 0, false});
  p0.publishes.push_back({20.0, 1, 1, false});
  p0.terminations.push_back({1, 50.0, 0});
  Phase p1;
  p1.reconfig.push_back({MembershipOp::Kind::kCreate, 0, 0, {4, 5, 6}});
  p1.reconfig.push_back({MembershipOp::Kind::kJoin, 0, 7, {}});
  p1.reconfig.push_back({MembershipOp::Kind::kLeave, 2, 4, {}});
  p1.publishes.push_back({5.0, 4, 2, false});
  p1.crashes.push_back({3, 0.0, 60.0});
  s.phases = {std::move(p0), std::move(p1)};
  return s;
}

TEST(FuzzShrink, RemoveGroupRenumbersReferences) {
  const Scenario shrunk = remove_scenario_group(two_phase_fixture(), 1);
  EXPECT_EQ(shrunk.num_groups(), 2u);
  // g1's publish and fin are gone; g2's references renumbered to 1.
  ASSERT_EQ(shrunk.phases[0].publishes.size(), 1u);
  EXPECT_EQ(shrunk.phases[0].publishes[0].group, 0u);
  EXPECT_TRUE(shrunk.phases[0].terminations.empty());
  ASSERT_EQ(shrunk.phases[1].publishes.size(), 1u);
  EXPECT_EQ(shrunk.phases[1].publishes[0].group, 1u);
  ASSERT_EQ(shrunk.phases[1].reconfig.size(), 3u);
  EXPECT_EQ(shrunk.phases[1].reconfig[1].group, 0u);  // join g0 untouched
  EXPECT_EQ(shrunk.phases[1].reconfig[2].group, 1u);  // leave g2 -> g1
}

TEST(FuzzShrink, DropPhaseRemovesItsGroupsEverywhere) {
  const Scenario shrunk = drop_phase(two_phase_fixture(), 0);
  ASSERT_EQ(shrunk.phases.size(), 1u);
  EXPECT_EQ(shrunk.num_groups(), 1u);
  // g2 becomes g0; the join on (now nonexistent) g0 is dropped.
  std::size_t joins = 0;
  for (const MembershipOp& op : shrunk.phases[0].reconfig) {
    if (op.kind == MembershipOp::Kind::kJoin) ++joins;
  }
  EXPECT_EQ(joins, 0u);
  ASSERT_EQ(shrunk.phases[0].publishes.size(), 1u);
  EXPECT_EQ(shrunk.phases[0].publishes[0].group, 0u);
  ASSERT_EQ(shrunk.phases[0].reconfig.size(), 2u);
  EXPECT_EQ(shrunk.phases[0].reconfig[1].group, 0u);  // leave g2 -> g0
}

TEST(FuzzRepro, HostFaultFieldsRoundTrip) {
  Scenario s = two_phase_fixture();
  s.max_retransmits = 3;
  s.phases[0].publisher_crashes.push_back({5, 12.5, 80.0});
  s.phases[1].partitions.push_back({0xdeadbeefULL, 7.25, 150.0});
  std::stringstream buffer;
  write_repro(s, buffer);
  EXPECT_EQ(read_repro(buffer), s);
}

TEST(FuzzRepro, PreHostFaultFilesKeepDefaults) {
  // A v1 file written before host faults existed (no budget / pubcrash /
  // cut lines) must still parse, with the old defaults.
  std::istringstream in(
      "scenario v1\nseed 1\nhosts 8\nclusters 2\nloss 0\nrto 40\n"
      "phase\ncreate 0 1\npub 1.0 0 0\nend\n");
  const Scenario s = read_repro(in);
  EXPECT_EQ(s.max_retransmits, 5000u);
  ASSERT_EQ(s.phases.size(), 1u);
  EXPECT_TRUE(s.phases[0].publisher_crashes.empty());
  EXPECT_TRUE(s.phases[0].partitions.empty());
}

TEST(FuzzShrink, HostFaultWindowsDroppedAndNarrowed) {
  Scenario s = two_phase_fixture();
  s.phases[0].publisher_crashes.push_back({2, 5.0, 100.0});
  s.phases[1].partitions.push_back({99, 10.0, 200.0});

  // Against a predicate indifferent to faults, every host-fault window is
  // shrinkable noise and must be stripped.
  const ShrinkResult stripped =
      shrink(s, [](const Scenario&) { return true; }, {.max_runs = 500});
  EXPECT_EQ(stripped.scenario.num_host_faults(), 0u);

  // Against one that needs the partition, the window survives but the
  // narrowing pass halves it down.
  const ShrinkResult kept = shrink(
      s,
      [](const Scenario& candidate) {
        for (const Phase& p : candidate.phases) {
          if (!p.partitions.empty()) return true;
        }
        return false;
      },
      {.max_runs = 500});
  std::size_t windows = 0;
  double total_duration = 0.0;
  for (const Phase& p : kept.scenario.phases) {
    for (const PartitionWindow& w : p.partitions) {
      ++windows;
      total_duration += w.duration;
    }
  }
  ASSERT_EQ(windows, 1u);
  EXPECT_LT(total_duration, 200.0) << "narrowing must shrink the window";
}

/// Generator knobs matching the driver's --hostile mode.
GeneratorOptions hostile_options() { return sweep_options(true, false); }

TEST(FuzzRunner, HostileSeedsPassOraclesAndExerciseFaults) {
  // Host-fault-heavy generation: every scenario must run abort-free and
  // clean through the full oracle set, and the sweep as a whole must
  // actually exercise the fault machinery (budget exhaustion, abandoned
  // ingress) — otherwise the knobs are decorative.
  const std::vector<Oracle> oracles = default_oracles();
  std::size_t with_host_faults = 0;
  std::size_t with_channel_faults = 0;
  std::size_t abandoned_publishes = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const Scenario scenario = generate_scenario(seed, hostile_options());
    if (scenario.num_host_faults() > 0) ++with_host_faults;
    const RunTrace trace = run_scenario(scenario);
    EXPECT_FALSE(trace.threw)
        << "seed " << seed << " aborted: " << trace.exception_what;
    const auto verdict = check_oracles(trace, oracles);
    EXPECT_FALSE(verdict.has_value())
        << "seed " << seed << " (" << scenario.summary() << ") violated ["
        << verdict->oracle << "]: " << verdict->detail;
    if (trace.channel_fault_events > 0) ++with_channel_faults;
    for (const PublishRecord& r : trace.publishes) {
      if (r.ingress_failed) ++abandoned_publishes;
    }
  }
  EXPECT_GE(with_host_faults, 5u);
  EXPECT_GE(with_channel_faults, 1u)
      << "no scenario drove a channel past its budget";
  EXPECT_GE(abandoned_publishes, 1u)
      << "no publisher crash ever abandoned a publish";
}

TEST(FuzzEndToEnd, ExhaustedBudgetScenarioRunsAndShrinksCleanly) {
  // Outage windows longer than the retransmission budget used to hit the
  // channel's give-up CHECK and abort the whole run. Hunt a hostile seed
  // that exhausts a budget, confirm it runs clean, and shrink it against
  // a "still exhausts" predicate — the fault must survive minimization.
  std::optional<Scenario> found;
  for (std::uint64_t seed = 1; seed <= 40 && !found; ++seed) {
    const Scenario scenario = generate_scenario(seed, hostile_options());
    const RunTrace trace = run_scenario(scenario);
    EXPECT_FALSE(trace.threw)
        << "seed " << seed << " aborted: " << trace.exception_what;
    if (trace.channel_fault_events > 0) found = scenario;
  }
  ASSERT_TRUE(found.has_value())
      << "no hostile seed in 1..40 exhausted a channel budget";

  const ShrinkResult result = shrink(
      *found,
      [](const Scenario& candidate) {
        return run_scenario(candidate).channel_fault_events > 0;
      },
      {.max_runs = 120});
  const RunTrace small = run_scenario(result.scenario);
  EXPECT_FALSE(small.threw);
  EXPECT_GT(small.channel_fault_events, 0u);
  EXPECT_LE(result.scenario.num_publishes(), found->num_publishes());
}

// The acceptance self-test: hide a real ordering bug behind the test hook,
// let the fuzzer find it, and require the shrinker to reduce the failure
// to a tiny scenario.
TEST(FuzzEndToEnd, InjectedStampBugIsCaughtAndShrunkSmall) {
  StampBugGuard bug;
  const std::vector<Oracle> oracles = default_oracles();

  std::optional<Scenario> failing;
  std::string failing_oracle;
  for (std::uint64_t seed = 1; seed <= 60 && !failing; ++seed) {
    const Scenario scenario = generate_scenario(seed);
    const auto verdict = check_oracles(run_scenario(scenario), oracles);
    if (verdict) {
      failing = scenario;
      failing_oracle = verdict->oracle;
    }
  }
  ASSERT_TRUE(failing.has_value())
      << "no seed in 1..60 exposed the injected stamp bug";

  const ShrinkResult result = shrink(
      *failing,
      [&](const Scenario& candidate) {
        const auto v = check_oracles(run_scenario(candidate), oracles);
        return v.has_value() && v->oracle == failing_oracle;
      },
      {.max_runs = 400});

  // Still failing, and minimal: the cross-group ordering bug needs two
  // overlapping groups and a handful of publishes, nothing more.
  const auto verdict = check_oracles(run_scenario(result.scenario), oracles);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->oracle, failing_oracle);
  EXPECT_LE(result.scenario.num_groups(), 3u)
      << result.scenario.summary() << " after " << result.runs << " runs";
  EXPECT_LE(result.scenario.num_publishes(), 10u)
      << result.scenario.summary() << " after " << result.runs << " runs";
  EXPECT_LE(result.scenario.phases.size(), 2u);
}

}  // namespace
}  // namespace decseq::fuzz
