#include "fuzz/repro.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"

namespace decseq::fuzz {

namespace {

/// Shortest decimal that round-trips the exact double (%.17g is always
/// enough; trailing precision noise is fine, exactness is the point).
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Parser {
  std::istream& in;
  std::size_t line_no = 0;

  /// Next meaningful line split into tokens; empty vector at EOF.
  std::vector<std::string> next() {
    std::string line;
    while (std::getline(in, line)) {
      ++line_no;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::istringstream tokens(line);
      std::vector<std::string> out;
      std::string token;
      while (tokens >> token) out.push_back(std::move(token));
      if (!out.empty()) return out;
    }
    return {};
  }

  [[noreturn]] void fail(const std::string& what) const {
    DECSEQ_CHECK_MSG(false, "repro line " << line_no << ": " << what);
    __builtin_unreachable();
  }

  std::uint32_t parse_u32(const std::string& token) {
    std::size_t used = 0;
    unsigned long v = 0;
    try {
      v = std::stoul(token, &used);
    } catch (const std::exception&) {
      fail("expected integer, got '" + token + "'");
    }
    if (used != token.size() || v > 0xffffffffUL) {
      fail("expected 32-bit integer, got '" + token + "'");
    }
    return static_cast<std::uint32_t>(v);
  }

  std::uint64_t parse_u64(const std::string& token) {
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
      v = std::stoull(token, &used);
    } catch (const std::exception&) {
      fail("expected integer, got '" + token + "'");
    }
    if (used != token.size()) fail("expected integer, got '" + token + "'");
    return v;
  }

  double parse_double(const std::string& token) {
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(token, &used);
    } catch (const std::exception&) {
      fail("expected number, got '" + token + "'");
    }
    if (used != token.size()) fail("expected number, got '" + token + "'");
    return v;
  }

  void want_arity(const std::vector<std::string>& tokens, std::size_t n) {
    if (tokens.size() != n) {
      fail("'" + tokens.front() + "' wants " + std::to_string(n - 1) +
           " operand(s), got " + std::to_string(tokens.size() - 1));
    }
  }
};

}  // namespace

void write_repro(const Scenario& s, std::ostream& out) {
  out << "# decseq fuzz repro: " << s.summary() << "\n";
  out << "scenario v1\n";
  out << "seed " << s.system_seed << "\n";
  out << "hosts " << s.num_hosts << "\n";
  out << "clusters " << s.num_clusters << "\n";
  out << "loss " << fmt(s.loss_probability) << "\n";
  out << "rto " << fmt(s.retransmit_timeout_ms) << "\n";
  // Written only when non-default, so pre-budget readers (and byte-exact
  // golden files) are unaffected by scenarios that never touch the knob.
  if (s.max_retransmits != 5000) out << "budget " << s.max_retransmits << "\n";
  for (const Phase& phase : s.phases) {
    out << "phase\n";
    for (const MembershipOp& op : phase.reconfig) {
      switch (op.kind) {
        case MembershipOp::Kind::kCreate:
          out << "create";
          for (const std::uint32_t m : op.members) out << ' ' << m;
          out << "\n";
          break;
        case MembershipOp::Kind::kRemove:
          out << "remove " << op.group << "\n";
          break;
        case MembershipOp::Kind::kJoin:
          out << "join " << op.group << ' ' << op.node << "\n";
          break;
        case MembershipOp::Kind::kLeave:
          out << "leave " << op.group << ' ' << op.node << "\n";
          break;
      }
    }
    for (const CrashWindow& c : phase.crashes) {
      out << "crash " << c.victim << ' ' << fmt(c.start) << ' '
          << fmt(c.duration) << "\n";
    }
    for (const PublisherCrash& c : phase.publisher_crashes) {
      out << "pubcrash " << c.victim << ' ' << fmt(c.start) << ' '
          << fmt(c.duration) << "\n";
    }
    for (const PartitionWindow& w : phase.partitions) {
      out << "cut " << w.cut_seed << ' ' << fmt(w.start) << ' '
          << fmt(w.duration) << "\n";
    }
    for (const TerminationOp& t : phase.terminations) {
      out << "fin " << t.group << ' ' << fmt(t.at) << ' ' << t.initiator_rank
          << "\n";
    }
    for (const PublishOp& p : phase.publishes) {
      out << (p.causal ? "pubc " : "pub ") << fmt(p.at) << ' ' << p.sender
          << ' ' << p.group << "\n";
    }
    out << "end\n";
  }
}

Scenario read_repro(std::istream& in) {
  Parser parser{in};
  Scenario s;

  auto tokens = parser.next();
  if (tokens.size() != 2 || tokens[0] != "scenario" || tokens[1] != "v1") {
    parser.fail("expected 'scenario v1' header");
  }

  bool saw_seed = false, saw_hosts = false, saw_clusters = false,
       saw_loss = false, saw_rto = false;
  // Header fields until the first 'phase'.
  while (true) {
    tokens = parser.next();
    if (tokens.empty()) parser.fail("expected at least one 'phase' block");
    const std::string& kw = tokens.front();
    if (kw == "phase") break;
    if (kw == "seed") {
      parser.want_arity(tokens, 2);
      s.system_seed = parser.parse_u64(tokens[1]);
      saw_seed = true;
    } else if (kw == "hosts") {
      parser.want_arity(tokens, 2);
      s.num_hosts = parser.parse_u32(tokens[1]);
      saw_hosts = true;
    } else if (kw == "clusters") {
      parser.want_arity(tokens, 2);
      s.num_clusters = parser.parse_u32(tokens[1]);
      saw_clusters = true;
    } else if (kw == "loss") {
      parser.want_arity(tokens, 2);
      s.loss_probability = parser.parse_double(tokens[1]);
      // At a loss of 1 no packet ever crosses and the replay never ends.
      if (!(s.loss_probability >= 0.0 && s.loss_probability < 1.0)) {
        parser.fail("loss must lie in [0, 1)");
      }
      saw_loss = true;
    } else if (kw == "rto") {
      parser.want_arity(tokens, 2);
      s.retransmit_timeout_ms = parser.parse_double(tokens[1]);
      if (!(std::isfinite(s.retransmit_timeout_ms) &&
            s.retransmit_timeout_ms > 0.0)) {
        parser.fail("rto must be finite and positive");
      }
      saw_rto = true;
    } else if (kw == "budget") {
      // Optional (format extension): absent in pre-budget files, which
      // keep the old 5000 default.
      parser.want_arity(tokens, 2);
      s.max_retransmits = parser.parse_u32(tokens[1]);
    } else {
      parser.fail("unknown header keyword '" + kw + "'");
    }
  }
  if (!saw_seed || !saw_hosts || !saw_clusters || !saw_loss || !saw_rto) {
    parser.fail("incomplete header (need seed/hosts/clusters/loss/rto)");
  }

  // Phase blocks; `tokens` currently holds a 'phase' line.
  while (true) {
    parser.want_arity(tokens, 1);
    Phase phase;
    bool closed = false;
    while (!closed) {
      tokens = parser.next();
      if (tokens.empty()) parser.fail("unclosed phase (missing 'end')");
      const std::string& kw = tokens.front();
      if (kw == "end") {
        parser.want_arity(tokens, 1);
        closed = true;
      } else if (kw == "create") {
        if (tokens.size() < 2) parser.fail("'create' wants members");
        MembershipOp op;
        op.kind = MembershipOp::Kind::kCreate;
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          op.members.push_back(parser.parse_u32(tokens[i]));
        }
        phase.reconfig.push_back(std::move(op));
      } else if (kw == "remove") {
        parser.want_arity(tokens, 2);
        MembershipOp op;
        op.kind = MembershipOp::Kind::kRemove;
        op.group = parser.parse_u32(tokens[1]);
        phase.reconfig.push_back(std::move(op));
      } else if (kw == "join" || kw == "leave") {
        parser.want_arity(tokens, 3);
        MembershipOp op;
        op.kind = kw == "join" ? MembershipOp::Kind::kJoin
                               : MembershipOp::Kind::kLeave;
        op.group = parser.parse_u32(tokens[1]);
        op.node = parser.parse_u32(tokens[2]);
        phase.reconfig.push_back(std::move(op));
      } else if (kw == "crash") {
        parser.want_arity(tokens, 4);
        CrashWindow c;
        c.victim = parser.parse_u32(tokens[1]);
        c.start = parser.parse_double(tokens[2]);
        c.duration = parser.parse_double(tokens[3]);
        phase.crashes.push_back(c);
      } else if (kw == "pubcrash") {
        parser.want_arity(tokens, 4);
        PublisherCrash c;
        c.victim = parser.parse_u32(tokens[1]);
        c.start = parser.parse_double(tokens[2]);
        c.duration = parser.parse_double(tokens[3]);
        phase.publisher_crashes.push_back(c);
      } else if (kw == "cut") {
        parser.want_arity(tokens, 4);
        PartitionWindow w;
        w.cut_seed = parser.parse_u64(tokens[1]);
        w.start = parser.parse_double(tokens[2]);
        w.duration = parser.parse_double(tokens[3]);
        phase.partitions.push_back(w);
      } else if (kw == "fin") {
        parser.want_arity(tokens, 4);
        TerminationOp t;
        t.group = parser.parse_u32(tokens[1]);
        t.at = parser.parse_double(tokens[2]);
        t.initiator_rank = parser.parse_u32(tokens[3]);
        phase.terminations.push_back(t);
      } else if (kw == "pub" || kw == "pubc") {
        parser.want_arity(tokens, 4);
        PublishOp p;
        p.causal = kw == "pubc";
        p.at = parser.parse_double(tokens[1]);
        p.sender = parser.parse_u32(tokens[2]);
        p.group = parser.parse_u32(tokens[3]);
        phase.publishes.push_back(p);
      } else {
        parser.fail("unknown keyword '" + kw + "' inside phase");
      }
    }
    s.phases.push_back(std::move(phase));
    tokens = parser.next();
    if (tokens.empty()) break;  // EOF after a closed phase
    if (tokens.front() != "phase") {
      parser.fail("expected 'phase' or end of file, got '" + tokens.front() +
                  "'");
    }
  }
  return s;
}

void save_repro(const Scenario& scenario, const std::string& path) {
  std::ofstream out(path);
  DECSEQ_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  write_repro(scenario, out);
  out.flush();
  DECSEQ_CHECK_MSG(out.good(), "short write to " << path);
}

Scenario load_repro(const std::string& path) {
  std::ifstream in(path);
  DECSEQ_CHECK_MSG(in.good(), "cannot open " << path);
  return read_repro(in);
}

}  // namespace decseq::fuzz
