// Replays the committed fuzz corpus (fuzz/corpus/*.repro) and requires
// every scenario to pass the full oracle set. Each corpus file is a
// previously interesting scenario — a shrunken failure that was fixed, or
// a seed that exercises a rare schedule — so this is the regression net
// for the whole protocol stack, and runs under the sanitizer CI job too.
//
// DECSEQ_FUZZ_CORPUS_DIR is injected by tests/CMakeLists.txt.
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/oracle.h"
#include "fuzz/repro.h"
#include "fuzz/runner.h"
#include "tests/test_util.h"

namespace decseq::fuzz {
namespace {

using test::corpus_files;

/// Byte-stable rendering of a trace (mirror of tests/fuzz_test.cc).
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
  os << '\n' << t.threw << ':' << t.exception_what;
  return os.str();
}

TEST(FuzzReplay, CorpusPassesAllOracles) {
  const auto files = corpus_files();
  ASSERT_FALSE(files.empty())
      << "empty corpus in " << DECSEQ_FUZZ_CORPUS_DIR;

  const std::vector<Oracle> oracles = default_oracles();
  for (const auto& file : files) {
    SCOPED_TRACE(file.filename().string());
    const Scenario scenario = load_repro(file.string());
    const RunTrace trace = run_scenario(scenario);
    const auto verdict = check_oracles(trace, oracles);
    EXPECT_FALSE(verdict.has_value())
        << scenario.summary() << " violated [" << verdict->oracle
        << "]: " << verdict->detail;
  }
}

TEST(FuzzReplay, CorpusMatchesAcrossShardCounts) {
  // Every regression scenario in the corpus must replay to the identical
  // observable trace under 1, 2, and 4 worker shards — the corpus doubles
  // as the determinism regression net for the sharded runtime.
  const auto files = corpus_files();
  ASSERT_FALSE(files.empty());
  const std::vector<Oracle> oracles = default_oracles();
  for (const auto& file : files) {
    SCOPED_TRACE(file.filename().string());
    const Scenario scenario = load_repro(file.string());
    RunnerOptions options;
    options.shards = 1;
    const RunTrace one = run_scenario(scenario, options);
    EXPECT_FALSE(one.threw) << one.exception_what;
    const auto verdict = check_oracles(one, oracles);
    EXPECT_FALSE(verdict.has_value())
        << "sharded replay violated [" << verdict->oracle
        << "]: " << verdict->detail;
    const std::string want = fingerprint(one);
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      options.shards = shards;
      EXPECT_EQ(want, fingerprint(run_scenario(scenario, options)))
          << "1 vs " << shards << " shards";
    }
  }
}

}  // namespace
}  // namespace decseq::fuzz
