// Multi-process loopback cluster conformance suite — the headline test of
// the UDP transport backend.
//
// For each committed fuzz-corpus scenario: derive the lockstep workload
// (app/replay.h), run it on the in-memory PubSubSystem for the reference
// trace, then spawn one real `decseqd` process per rank, bootstrap them
// over UDP (JOIN → PEERS), and drive the same workload through the cluster
// via the control channels — one op at a time, waiting for its full
// delivery fan-out before issuing the next. On shutdown each daemon writes
// its per-receiver delivery trace; the suite requires the merged
// per-receiver traces to equal the simulator's exactly.
//
// Artifacts (cluster config, daemon logs, daemon traces, and a copy of the
// scenario) land in DECSEQ_CLUSTER_ARTIFACT_DIR if set (CI uploads it on
// failure), else a mkdtemp directory that is left on disk when the test
// fails.
//
// DECSEQ_CLUSTER_SCENARIO selects an extra corpus scenario for the
// rotating CI job; unset, that test is skipped (the two pinned scenarios
// always run).
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "fuzz/repro.h"
#include "app/cluster_config.h"
#include "app/decseqd.h"
#include "app/replay.h"
#include "transport/channel.h"
#include "transport/frame.h"
#include "transport/udp_transport.h"

namespace decseq::app {
namespace {

using transport::ChannelSet;
using transport::EdgeId;
using transport::Frame;
using transport::FrameType;
using transport::Origin;
using transport::RecvChannel;
using transport::SendChannel;
using transport::UdpAddr;
using transport::UdpTransport;

/// (group, sender, payload) per receiver, in delivery order.
using Trace = std::map<std::uint32_t,
                       std::vector<std::tuple<std::uint32_t, std::uint32_t,
                                              std::uint64_t>>>;

std::string artifact_dir() {
  if (const char* dir = std::getenv("DECSEQ_CLUSTER_ARTIFACT_DIR")) {
    return dir;
  }
  char tmpl[] = "/tmp/decseq-cluster-XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? dir : "/tmp";
}

/// The coordinator: spawns daemons, runs the bootstrap, drives the
/// lockstep workload over control channels, and collects the traces.
class ClusterHarness {
 public:
  // `repro_name` is either a bare corpus file name (resolved against the
  // committed corpus) or a path containing '/' (used verbatim — the CI
  // rotating job passes absolute paths).
  ClusterHarness(const std::string& repro_name, std::uint32_t num_ranks)
      : num_ranks_(num_ranks),
        dir_(artifact_dir() + "/" +
             repro_name.substr(repro_name.find_last_of('/') + 1) + "-r" +
             std::to_string(num_ranks)),
        rng_(77) {
    std::ignore = system(("mkdir -p " + dir_).c_str());
    const std::string repro_path =
        repro_name.find('/') != std::string::npos
            ? repro_name
            : std::string(DECSEQ_FUZZ_CORPUS_DIR) + "/" + repro_name;
    scenario_ = fuzz::load_repro(repro_path);
    script_ = script_from_scenario(scenario_);
    system_ = make_reference_system(script_);
    config_ = build_cluster_config(*system_, num_ranks,
                                   /*retransmit_timeout_ms=*/20.0,
                                   /*max_retransmits=*/400, /*seed=*/1234);
    config_path_ = dir_ + "/cluster.cfg";
    save_cluster_config(config_, config_path_);
    std::ignore =
        system(("cp " + repro_path + " " + dir_ + "/scenario.repro").c_str());

    ChannelOptions ctrl;
    ctrl.retransmit_timeout_ms = 20.0;
    ctrl.max_retransmits = 400;
    joined_.resize(num_ranks_);
    peer_addr_.resize(num_ranks_);
    for (std::uint32_t r = 0; r < num_ranks_; ++r) {
      cmd_out_.push_back(
          std::make_unique<SendChannel>(io_, rng_, /*edge=*/r, ctrl));
      channels_.add_sender(cmd_out_.back().get());
      report_in_.push_back(std::make_unique<RecvChannel>(
          io_, /*edge=*/num_ranks_ + r,
          [this](const std::uint8_t* payload, std::size_t size,
                 std::uint8_t) { on_report(payload, size); }));
      channels_.add_receiver(report_in_.back().get());
    }
    channels_.set_control_handler(
        [this](const Frame& frame, const Origin& origin) {
          if (frame.type == FrameType::kJoin) on_join(frame, origin);
        });
    io_.set_datagram_sink([this](const std::uint8_t* data, std::size_t size,
                                 const Origin& origin) {
      channels_.handle(data, size, origin);
    });
  }

  ~ClusterHarness() {
    for (const pid_t pid : pids_) {
      if (pid > 0 && kill(pid, 0) == 0) kill(pid, SIGKILL);
    }
    for (const pid_t pid : pids_) {
      if (pid > 0) waitpid(pid, nullptr, 0);
    }
  }

  [[nodiscard]] const ClusterScript& script() const { return script_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  void spawn_daemons() {
    const std::uint16_t port = io_.local_addr().port;
    for (std::uint32_t r = 0; r < num_ranks_; ++r) {
      const std::string rank = std::to_string(r);
      const std::string trace = dir_ + "/trace-" + rank + ".txt";
      const std::string log = dir_ + "/daemon-" + rank + ".log";
      const std::string coord_port = std::to_string(port);
      const pid_t pid = fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        execl(DECSEQ_DECSEQD_PATH, "decseqd", "--config",
              config_path_.c_str(), "--rank", rank.c_str(),
              "--coordinator-port", coord_port.c_str(), "--trace",
              trace.c_str(), "--log", log.c_str(),
              static_cast<char*>(nullptr));
        _exit(127);  // exec failed
      }
      pids_.push_back(pid);
    }
  }

  void await_ready(double timeout_ms) {
    pump_until([this] { return ready_ == num_ranks_; }, timeout_ms);
    ASSERT_EQ(ready_, num_ranks_) << "cluster bootstrap timed out";
  }

  /// Issue one op and wait for its complete delivery fan-out (lockstep).
  void run_op(const ScriptOp& op) {
    Command command;
    command.kind = op.kind == ScriptOp::Kind::kTerminate
                       ? Command::Kind::kTerminate
                       : Command::Kind::kPublish;
    command.ordinal = op.ordinal;
    command.sender = op.sender;
    command.group = op.group;
    command.payload = op.ordinal;
    const auto bytes = encode_command(command);
    const std::uint32_t rank = config_.hosts[op.sender].rank;
    cmd_out_[rank]->send(bytes.data(), bytes.size());

    const std::size_t expected = script_.groups[op.group].size();
    auto& count = op_events_[op.ordinal];
    pump_until([&count, expected] { return count >= expected; },
               /*timeout_ms=*/30000.0);
    ASSERT_EQ(count, expected)
        << "op " << op.ordinal << " (group " << op.group
        << ") delivered at " << count << "/" << expected
        << " members before timeout";
  }

  void shutdown_and_wait() {
    Command command;
    command.kind = Command::Kind::kShutdown;
    const auto bytes = encode_command(command);
    for (auto& out : cmd_out_) out->send(bytes.data(), bytes.size());

    // Keep pumping so the shutdown commands (and their acks) flow while
    // the daemons wind down.
    const double deadline = io_.now_ms() + 30000.0;
    std::vector<bool> exited(pids_.size(), false);
    std::size_t running = pids_.size();
    while (running > 0 && io_.now_ms() < deadline) {
      io_.poll(5.0);
      for (std::size_t i = 0; i < pids_.size(); ++i) {
        if (exited[i]) continue;
        int status = 0;
        const pid_t done = waitpid(pids_[i], &status, WNOHANG);
        if (done == pids_[i]) {
          exited[i] = true;
          --running;
          EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
              << "rank " << i << " exited abnormally (status " << status
              << "); logs in " << dir_;
          pids_[i] = -1;
        }
      }
    }
    ASSERT_EQ(running, 0u) << "daemons did not exit; logs in " << dir_;
  }

  /// Parse every rank's trace file into one per-receiver trace, checking
  /// per-(receiver, group) sequence numbers are gapless along the way.
  Trace collect_traces() {
    Trace trace;
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>
        last_seq;
    for (std::uint32_t r = 0; r < num_ranks_; ++r) {
      std::ifstream in(dir_ + "/trace-" + std::to_string(r) + ".txt");
      EXPECT_TRUE(in.good()) << "missing trace for rank " << r;
      std::string line;
      while (std::getline(in, line)) {
        std::istringstream tokens(line);
        std::string tag;
        std::uint32_t receiver = 0, group = 0, sender = 0;
        std::uint64_t payload = 0, group_seq = 0;
        tokens >> tag >> receiver >> group >> sender >> payload >> group_seq;
        EXPECT_EQ(tag, "deliver");
        trace[receiver].emplace_back(group, sender, payload);
        auto& last = last_seq[{receiver, group}];
        EXPECT_EQ(group_seq, last + 1)
            << "receiver " << receiver << " group " << group
            << " has a sequence gap";
        last = group_seq;
      }
    }
    return trace;
  }

  [[nodiscard]] const Trace& report_trace() const { return report_trace_; }

 private:
  void on_join(const Frame& frame, const Origin& origin) {
    const auto rank = static_cast<std::uint32_t>(frame.seq);
    if (rank >= num_ranks_) return;
    if (!joined_[rank]) {
      joined_[rank] = true;
      peer_addr_[rank] = {origin.ip_be, origin.port};
      io_.add_edge(/*cmd edge*/ rank, peer_addr_[rank]);
      io_.add_edge(/*report edge*/ num_ranks_ + rank, peer_addr_[rank]);
      ++joined_count_;
    }
    if (joined_count_ < num_ranks_) return;
    // All ranks known: answer this (and every later re-)JOIN with the
    // address book. Daemons re-JOIN until they see it, so a lost PEERS
    // datagram only costs a retry round.
    std::vector<transport::PeerAddr> peers;
    for (std::uint32_t r = 0; r < num_ranks_; ++r) {
      peers.push_back({r, peer_addr_[r].ip_be, peer_addr_[r].port});
    }
    const auto payload = transport::encode_peers(peers);
    const auto reply =
        transport::encode_frame(FrameType::kPeers, 0, 0, peers.size(),
                                payload.data(), payload.size());
    io_.send_to({origin.ip_be, origin.port}, reply.data(), reply.size());
  }

  void on_report(const std::uint8_t* payload, std::size_t size) {
    const auto report = decode_report(payload, size);
    ASSERT_TRUE(report.has_value());
    switch (report->kind) {
      case Report::Kind::kReady:
        ++ready_;
        break;
      case Report::Kind::kDelivery:
        report_trace_[report->receiver].emplace_back(
            report->group, report->sender, report->payload);
        ++op_events_[static_cast<std::uint32_t>(report->payload)];
        break;
      case Report::Kind::kFin:
        ++op_events_[static_cast<std::uint32_t>(report->payload)];
        break;
      case Report::Kind::kRejected:
        // Lockstep leaves no room for a FIN race; a rejection means the
        // cluster diverged from the script.
        ADD_FAILURE() << "unexpected ingress rejection: group "
                      << report->group << " payload " << report->payload;
        break;
    }
  }

  template <typename Stop>
  void pump_until(Stop stop, double timeout_ms) {
    const double deadline = io_.now_ms() + timeout_ms;
    while (!stop() && io_.now_ms() < deadline) io_.poll(5.0);
  }

  std::uint32_t num_ranks_;
  std::string dir_;
  Rng rng_;
  fuzz::Scenario scenario_;
  ClusterScript script_;
  std::unique_ptr<pubsub::PubSubSystem> system_;
  ClusterConfig config_;
  std::string config_path_;

  UdpTransport io_;
  ChannelSet channels_;
  std::vector<std::unique_ptr<SendChannel>> cmd_out_;
  std::vector<std::unique_ptr<RecvChannel>> report_in_;
  std::vector<char> joined_;
  std::vector<UdpAddr> peer_addr_;
  std::uint32_t joined_count_ = 0;
  std::uint32_t ready_ = 0;
  std::map<std::uint32_t, std::size_t> op_events_;
  Trace report_trace_;
  std::vector<pid_t> pids_;
};

Trace reference_trace(const std::vector<pubsub::Delivery>& deliveries) {
  Trace trace;
  for (const pubsub::Delivery& d : deliveries) {
    trace[d.receiver.value()].emplace_back(d.group.value(), d.sender.value(),
                                           d.payload);
  }
  return trace;
}

void run_cluster_conformance(const std::string& repro,
                             std::uint32_t num_ranks) {
  ClusterHarness harness(repro, num_ranks);
  ASSERT_FALSE(harness.script().ops.empty());
  SCOPED_TRACE("artifacts in " + harness.dir());

  harness.spawn_daemons();
  harness.await_ready(/*timeout_ms=*/30000.0);
  if (::testing::Test::HasFatalFailure()) return;

  for (const ScriptOp& op : harness.script().ops) {
    harness.run_op(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
  harness.shutdown_and_wait();
  if (::testing::Test::HasFatalFailure()) return;

  // The reference run happens after the cluster run purely for ordering
  // convenience; both executions are fully determined by the script.
  auto system = make_reference_system(harness.script());
  const Trace expected =
      reference_trace(run_reference(harness.script(), *system));

  const Trace actual = harness.collect_traces();
  EXPECT_EQ(actual, expected)
      << "per-receiver delivery traces diverged; artifacts in "
      << harness.dir();
  // The live report stream must agree with the written traces — same
  // deliveries observed two ways.
  EXPECT_EQ(harness.report_trace(), expected);
}

TEST(TransportCluster, ConformsOnCorpusSeed7) {
  run_cluster_conformance("seed-7.repro", /*num_ranks=*/4);
}

TEST(TransportCluster, ConformsOnCorpusSeed1) {
  run_cluster_conformance("seed-1.repro", /*num_ranks=*/4);
}

TEST(TransportCluster, ConformsOnRotatingScenario) {
  const char* scenario = std::getenv("DECSEQ_CLUSTER_SCENARIO");
  if (scenario == nullptr || scenario[0] == '\0') {
    GTEST_SKIP() << "DECSEQ_CLUSTER_SCENARIO not set";
  }
  run_cluster_conformance(scenario, /*num_ranks=*/4);
}

}  // namespace
}  // namespace decseq::app
