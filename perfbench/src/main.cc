// perfbench — the repository's end-to-end benchmark runner.
//
//   perfbench --workload <paper|hosts100k|paper_churn|simnet_cluster>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--commit <id>]
//
// Prints one line per metric ("metric <name> <value> <unit> n=<samples>"),
// an "env" line with the provenance block, and as its last line one JSON
// object with the checks' verdict and every metric computed. The checker
// self-test runs first on every invocation. Exit status: 0 on success, 1 if
// the outputs broke pairwise order, 2 on bad usage or a failed self-test.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "check.h"
#include "runtime/parallel.h"
#include "sim_workloads.h"
#include "simnet_cluster.h"
#include "util.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>] [--commit <id>]\n");
  std::exit(2);
}

std::string env_json(std::uint64_t seed, const std::string& commit) {
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"seqgraph_compile_threads\": " +
         std::to_string(decseq::runtime::compile_threads());
  out += ", \"build_type\": \"" + perfbench::json_escape(PERFBENCH_BUILD_TYPE) +
         "\"";
  out += ", \"compiler\": \"" + perfbench::json_escape(PERFBENCH_COMPILER) +
         "\"";
  out += ", \"git_commit\": \"" + perfbench::json_escape(commit) + "\"";
  out += ", \"seed\": " + std::to_string(seed);
  // Every workload's traffic crosses the simulator, none a real interface.
  out += ", \"traffic\": \"simulator\"";
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (arg == "--out") {
      out_dir = value();
    } else if (arg == "--commit") {
      commit = value();
    } else {
      usage();
    }
  }

  const std::string self = perfbench::self_test();
  if (!self.empty()) {
    std::fprintf(stderr, "checker self-test failed: %s\n", self.c_str());
    return 2;
  }
  if (workload.empty() || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    usage();
  }

  perfbench::SpanLog spans(trace == 1);
  perfbench::Result result;
  if (const perfbench::SimSpec* spec = perfbench::find_sim_spec(workload)) {
    result = perfbench::run_sim_workload(*spec, seed, seconds, trace == 1,
                                         spans);
  } else if (workload == "simnet_cluster") {
    result = perfbench::run_simnet_cluster(seed, seconds, trace == 1, spans);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  if (spans.enabled()) {
    const std::string path = out_dir + "/spans-" + workload + "-" +
                             std::to_string(seed) + ".jsonl";
    if (!spans.write_jsonl(path)) {
      result.problem("cannot write span file " + path);
    } else {
      std::printf("spans %s\n", path.c_str());
    }
    for (const auto& [name, t] : spans.totals()) {
      std::printf("self_time %s %.3f ms (total %.3f ms, n=%llu)\n", name,
                  t.self_ms(), t.total_ms,
                  static_cast<unsigned long long>(t.count));
    }
  }

  const double failed_ratio =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  result.add("failed_ratio", "ratio", failed_ratio, result.attempted);
  if (result.failed != 0) result.correct = false;

  for (const auto& m : result.metrics) {
    std::printf("metric %s %.6g %s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const auto& p : result.problems) {
    std::printf("problem %s\n", p.c_str());
  }
  for (const auto& n : result.notes) std::printf("note %s\n", n.c_str());
  const std::string env = env_json(seed, commit);
  std::printf("env %s\n", env.c_str());

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"order_violation\": ";
  json += result.order_violation ? "true" : "false";
  json += ", \"env\": " + env + ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + perfbench::json_escape(m.name) + "\": {\"value\": " +
            perfbench::json_number(m.value) + ", \"unit\": \"" +
            perfbench::json_escape(m.unit) +
            "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.order_violation ? 1 : 0;
}
