// Deterministic scenario fuzzer for the ordering protocol.
//
// Sweeps seeds, deriving one adversarial end-to-end scenario per seed
// (random membership, traffic, loss, crash windows, reconfigurations, and
// group terminations), runs each through pubsub::PubSubSystem on the
// simulator, and checks the full oracle set (see src/fuzz/oracle.h). A
// failing scenario is automatically shrunk to a minimal reproduction and
// written as a self-contained .repro file that this driver (--replay) and
// the fuzz_replay_test replay bit-identically.
//
// Usage:
//   fuzz_driver [--seed S] [--count N] [--budget-ms B] [--out DIR]
//               [--max-shrink-runs R] [--hostile] [--churn]
//               [--inject-stamp-bug]
//   fuzz_driver --replay FILE [FILE...]
//   fuzz_driver [--hostile] [--churn] --seed S --emit FILE
//
//   --seed S            base seed; scenario i uses seed S + i (default 1)
//   --count N           scenarios to run (default 50)
//   --budget-ms B       stop starting new scenarios after B wall-clock ms
//                       (0 = no budget; for bounded CI jobs)
//   --out DIR           where shrunken .repro files go (default .)
//   --max-shrink-runs R shrink budget in scenario re-executions (default 400)
//   --hostile           host-fault-focused generation: much higher odds of
//                       sequencer crashes, publisher crashes, cluster
//                       partitions, and tiny channel retransmit budgets
//   --churn             reconfiguration-focused generation: more phases,
//                       near-certain group creation per boundary, and more
//                       join/leave ops per batch (composes with --hostile)
//   --inject-stamp-bug  disable receiver stamp validation (the hidden bug
//                       the fuzzer must find; self-test / demo only)
//   --replay FILE...    re-execute saved repros instead of sweeping
//   --emit FILE         write the scenario for --seed as a repro, no run
//
// Membership ops the runner had to skip (lost scenario weight) are printed
// per scenario; the generator's validation should keep them rare.
//
// Exit status: 0 all scenarios passed, 1 any oracle violation, 2 usage.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "fuzz/oracle.h"
#include "fuzz/repro.h"
#include "fuzz/runner.h"
#include "fuzz/scenario.h"
#include "fuzz/shrink.h"
#include "protocol/receiver.h"

namespace {

using namespace decseq;

struct Options {
  std::uint64_t seed = 1;
  std::size_t count = 50;
  double budget_ms = 0.0;
  std::string out = ".";
  std::size_t max_shrink_runs = 400;
  bool hostile = false;
  bool churn = false;
  bool inject_stamp_bug = false;
  std::vector<std::string> replays;
  std::string emit;

  /// Generator knobs for this run; --hostile cranks every fault kind,
  /// --churn cranks reconfiguration pressure.
  [[nodiscard]] fuzz::GeneratorOptions generator() const {
    return fuzz::sweep_options(hostile, churn);
  }
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed S] [--count N] [--budget-ms B] [--out DIR]\n"
               "          [--max-shrink-runs R] [--hostile] "
               "[--inject-stamp-bug]\n"
               "       %s --replay FILE [FILE...]\n"
               "       %s [--hostile] --seed S --emit FILE\n",
               argv0, argv0, argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--count") {
      opt.count = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--budget-ms") {
      opt.budget_ms = std::strtod(value(), nullptr);
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--max-shrink-runs") {
      opt.max_shrink_runs = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--hostile") {
      opt.hostile = true;
    } else if (arg == "--churn") {
      opt.churn = true;
    } else if (arg == "--inject-stamp-bug") {
      opt.inject_stamp_bug = true;
    } else if (arg == "--replay") {
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        opt.replays.emplace_back(argv[++i]);
      }
      if (opt.replays.empty()) usage(argv[0]);
    } else if (arg == "--emit") {
      opt.emit = value();
    } else {
      usage(argv[0]);
    }
  }
  return opt;
}

/// Run one scenario and report the first violated oracle. When `skipped` is
/// given, it receives the runner's skipped-membership-op log; `atom_paths`
/// receives the scenario's atom-path diversity (distinct atom sequences
/// across all epochs' compiled graphs).
std::optional<fuzz::OracleVerdict> check(
    const fuzz::Scenario& scenario, const std::vector<fuzz::Oracle>& set,
    std::vector<std::string>* skipped = nullptr,
    std::size_t* atom_paths = nullptr) {
  const fuzz::RunTrace trace = fuzz::run_scenario(scenario);
  if (skipped != nullptr) *skipped = trace.skipped_membership_ops;
  if (atom_paths != nullptr) *atom_paths = trace.distinct_atom_paths;
  return fuzz::check_oracles(trace, set);
}

void print_skips(const std::vector<std::string>& skipped) {
  for (const std::string& entry : skipped) {
    std::printf("     skipped membership op: %s\n", entry.c_str());
  }
}

int replay_files(const Options& opt, const std::vector<fuzz::Oracle>& set) {
  int failures = 0;
  for (const std::string& path : opt.replays) {
    const fuzz::Scenario scenario = fuzz::load_repro(path);
    std::vector<std::string> skipped;
    std::size_t atom_paths = 0;
    if (const auto verdict = check(scenario, set, &skipped, &atom_paths)) {
      std::printf("FAIL %s: [%s] %s\n", path.c_str(),
                  verdict->oracle.c_str(), verdict->detail.c_str());
      ++failures;
    } else {
      std::printf("PASS %s: %s, atom-paths %zu\n", path.c_str(),
                  scenario.summary().c_str(), atom_paths);
    }
    print_skips(skipped);
  }
  return failures == 0 ? 0 : 1;
}

int sweep(const Options& opt, const std::vector<fuzz::Oracle>& set) {
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  std::size_t ran = 0;
  int failures = 0;
  for (std::size_t i = 0; i < opt.count; ++i) {
    if (opt.budget_ms > 0.0 && elapsed_ms() > opt.budget_ms) break;
    const std::uint64_t seed = opt.seed + i;
    const fuzz::Scenario scenario = fuzz::generate_scenario(seed,
                                                            opt.generator());
    ++ran;
    std::vector<std::string> skipped;
    std::size_t atom_paths = 0;
    const auto verdict = check(scenario, set, &skipped, &atom_paths);
    if (!verdict) {
      std::printf("ok   seed %" PRIu64 ": %s, atom-paths %zu\n", seed,
                  scenario.summary().c_str(), atom_paths);
      print_skips(skipped);
      continue;
    }
    ++failures;
    std::printf("FAIL seed %" PRIu64 ": [%s] %s\n", seed,
                verdict->oracle.c_str(), verdict->detail.c_str());
    // Shrink while the same oracle keeps failing, then persist.
    const std::string oracle = verdict->oracle;
    const fuzz::ShrinkResult shrunk = fuzz::shrink(
        scenario,
        [&](const fuzz::Scenario& candidate) {
          const auto v = check(candidate, set);
          return v.has_value() && v->oracle == oracle;
        },
        {.max_runs = opt.max_shrink_runs});
    std::error_code ec;
    std::filesystem::create_directories(opt.out, ec);  // best effort
    const std::string path =
        opt.out + "/seed-" + std::to_string(seed) + ".repro";
    fuzz::save_repro(shrunk.scenario, path);
    std::printf("     shrunk to %s in %zu runs -> %s\n",
                shrunk.scenario.summary().c_str(), shrunk.runs, path.c_str());
  }
  std::printf("# %zu scenario(s), %d failure(s), %.0f ms\n", ran, failures,
              elapsed_ms());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  protocol::testhooks::g_skip_stamp_validation = opt.inject_stamp_bug;
  const std::vector<fuzz::Oracle> set = fuzz::default_oracles();
  if (!opt.emit.empty()) {
    const fuzz::Scenario scenario =
        fuzz::generate_scenario(opt.seed, opt.generator());
    fuzz::save_repro(scenario, opt.emit);
    std::printf("wrote seed %" PRIu64 " (%s) to %s\n", opt.seed,
                scenario.summary().c_str(), opt.emit.c_str());
    return 0;
  }
  if (!opt.replays.empty()) return replay_files(opt, set);
  return sweep(opt, set);
}
