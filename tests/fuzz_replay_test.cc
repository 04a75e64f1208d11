// Replays the committed fuzz corpus (fuzz/corpus/*.repro) and requires
// every scenario to pass the full oracle set. Each corpus file is a
// previously interesting scenario — a shrunken failure that was fixed, or
// a seed that exercises a rare schedule — so this is the regression net
// for the whole protocol stack, and runs under the sanitizer CI job too.
//
// DECSEQ_FUZZ_CORPUS_DIR is injected by tests/CMakeLists.txt.
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv1a.h"
#include "fuzz/oracle.h"
#include "fuzz/repro.h"
#include "fuzz/runner.h"
#include "fuzz/scenario.h"
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

/// FNV-1a digests of every corpus file's fingerprint(). The replay is
/// libm-free (no transcendental function on the fuzz path), so the digests
/// hold in optimised and sanitizer builds alike. Regenerate an entry only
/// for a deliberate change of observable behaviour, and say so in the
/// commit; an engine refactor must leave the table untouched.
struct GoldenDigest {
  const char* file;
  std::uint64_t digest;
};
constexpr GoldenDigest kGoldenDigests[] = {
    {"hostile-seed-2.repro", 0xb16c69f9967dd9c1ULL},
    {"hostile-seed-9.repro", 0x6b0f69eb7e685b45ULL},
    {"seed-1.repro", 0xdd2f0236e8339c8cULL},
    {"seed-10.repro", 0x01518951486e3ef3ULL},
    {"seed-22.repro", 0xed4e4360d291da2fULL},
    {"seed-25.repro", 0xb2a1f58007e8e2daULL},
    {"seed-29.repro", 0xe21206492eb3e101ULL},
    {"seed-6.repro", 0x8be4853624998ee9ULL},
    {"seed-7.repro", 0xe35b8edad75d20b5ULL},
};

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

TEST(FuzzReplay, CorpusTracesMatchGoldenDigests) {
  // The oracle test above stays green if an engine change reorders
  // same-instant events consistently everywhere; these digests pin the
  // traces themselves.
  const auto files = corpus_files();
  ASSERT_FALSE(files.empty());
  std::size_t matched = 0;
  for (const auto& file : files) {
    const std::string name = file.filename().string();
    SCOPED_TRACE(name);
    const GoldenDigest* golden = nullptr;
    for (const GoldenDigest& g : kGoldenDigests) {
      if (name == g.file) golden = &g;
    }
    if (golden != nullptr) ++matched;
    const Scenario scenario = load_repro(file.string());
    const RunTrace trace = run_scenario(scenario);
    EXPECT_FALSE(trace.threw) << trace.exception_what;
    const std::uint64_t got = fnv1a_bytes(kFnvOffsetBasis, fingerprint(trace));
    if (golden == nullptr) {
      ADD_FAILURE() << "no golden digest; the trace gives 0x" << std::hex
                    << got;
      continue;
    }
    EXPECT_EQ(golden->digest, got) << "want 0x" << std::hex << golden->digest
                                   << ", got 0x" << got;
  }
  EXPECT_EQ(matched, std::size(kGoldenDigests))
      << "a golden digest names a file missing from the corpus";
}

/// Digests of generated scenarios with the channel loss forced to 0, one
/// per fuzz_driver generator setting. Each folds, for seeds
/// 1..kGeneratedSeeds, the run's
/// fingerprint() and its channel_fault_events into one FNV-1a digest. The
/// corpus holds only two loss-free scenarios with faults; these runs put
/// crashes, partitions, publisher crashes, FINs and reconfigurations on 0 ms
/// channels without a loss coin, the regime where a colocated hop's launch
/// sampling, its buffered failure path and its recovery all decide the
/// trace. Regenerate only for a deliberate change of observable behaviour.
struct GeneratedDigest {
  const char* setting;
  bool hostile;
  bool churn;
  std::uint64_t digest;
};
constexpr std::uint64_t kGeneratedSeeds = 32;
constexpr GeneratedDigest kGeneratedDigests[] = {
    {"default", false, false, 0xd62b110a1c895e00ULL},
    {"hostile", true, false, 0xa00ff5bdeb412668ULL},
    {"hostile+churn", true, true, 0x8cfc04fecd132f4eULL},
};

TEST(FuzzReplay, LossFreeGeneratedTracesMatchGoldenDigests) {
  for (const GeneratedDigest& golden : kGeneratedDigests) {
    SCOPED_TRACE(golden.setting);
    const GeneratorOptions gen = sweep_options(golden.hostile, golden.churn);
    std::uint64_t digest = kFnvOffsetBasis;
    std::size_t deliveries = 0;
    std::size_t faults = 0;
    for (std::uint64_t seed = 1; seed <= kGeneratedSeeds; ++seed) {
      Scenario scenario = generate_scenario(seed, gen);
      scenario.loss_probability = 0.0;
      const RunTrace trace = run_scenario(scenario);
      EXPECT_FALSE(trace.threw)
          << "seed " << seed << ": " << trace.exception_what;
      digest = fnv1a_bytes(digest, fingerprint(trace));
      digest = fnv1a_bytes(
          digest, '#' + std::to_string(trace.channel_fault_events) + '\n');
      deliveries += trace.log.size();
      faults += trace.channel_fault_events;
    }
    EXPECT_EQ(golden.digest, digest)
        << "want 0x" << std::hex << golden.digest << ", got 0x" << digest
        << std::dec << " (" << deliveries << " deliveries, " << faults
        << " channel faults)";
  }
}

}  // namespace
}  // namespace decseq::fuzz
