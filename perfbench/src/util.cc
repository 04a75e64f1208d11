#include "util.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double cpu_ms() {
  timespec now{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now) != 0) return 0.0;
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) * 1e-6;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

void CpuRotation::pin_next() {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort
  pinned_at_ = cpu_ms();
}

void CpuRotation::tick() {
  if (cpus_.size() < 2) return;
  if (pinned_at_ < 0.0 || cpu_ms() - pinned_at_ >= kStepMs) pin_next();
}

void CpuRotation::release() {
  if (pinned_at_ < 0.0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
  pinned_at_ = -1.0;
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  index = std::min(index, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

std::size_t tail_count(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const auto at = static_cast<std::size_t>(std::max(rank, 1.0));
  return n > at ? n - at : 0;
}

Histogram::Histogram()
    : counts_(2 + (static_cast<std::size_t>(kMaxExp - kMinExp) << kSubBits)),
      sums_(counts_.size()) {}

void Histogram::add(double v) {
  std::size_t bucket = 0;
  if (v > 0.0) {
    int exp = 0;
    const double mantissa = std::frexp(v, &exp);  // v = mantissa * 2^exp
    if (exp > kMaxExp) {
      bucket = counts_.size() - 1;
    } else if (exp > kMinExp) {
      const auto sub =
          static_cast<std::size_t>((mantissa - 0.5) * (2 << kSubBits));
      bucket = 1 + (static_cast<std::size_t>(exp - kMinExp - 1) << kSubBits) +
               std::min<std::size_t>(sub, (1u << kSubBits) - 1);
    }
  }
  ++counts_[bucket];
  sums_[bucket] += v;
  ++count_;
}

double Histogram::band_percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = [&](double q) {
    const double r = std::floor(q / 100.0 * static_cast<double>(count_));
    return std::min<std::uint64_t>(
        count_ - 1, static_cast<std::uint64_t>(std::max(r, 0.0)));
  };
  const std::uint64_t lo = rank(p - 0.5);
  const std::uint64_t hi = std::max(lo, rank(p + 0.5));
  // Ranks [first, first + counts_[b]) sit in bucket b.
  std::uint64_t first = 0;
  double sum = 0.0;
  for (std::size_t b = 0; b < counts_.size() && first <= hi; ++b) {
    const std::uint64_t n = counts_[b];
    if (n == 0) continue;
    const std::uint64_t from = std::max(first, lo);
    const std::uint64_t to = std::min(first + n - 1, hi);
    if (from <= to) {
      sum += static_cast<double>(to - from + 1) *
             (sums_[b] / static_cast<double>(n));
    }
    first += n;
  }
  return sum / static_cast<double>(hi - lo + 1);
}

void Result::add_times(const RunTimes& t) {
  std::vector<double> cpu = t.setup_cpu_ms, wall = t.setup_wall_ms;
  add("setup_s", "s", percentile(cpu, 50.0) / 1e3, cpu.size());
  add("setup_wall_s", "s", percentile(wall, 50.0) / 1e3, wall.size());
  add("deliveries_per_s", "1/s", rate_per_s(t.warm.deliveries, t.warm.cpu_ms),
      t.warm.deliveries);
  add("cold_deliveries_per_s", "1/s",
      rate_per_s(t.cold.deliveries, t.cold.cpu_ms), t.cold.deliveries);
  add("deliveries_per_wall_s", "1/s",
      rate_per_s(t.warm.deliveries, t.warm.wall_ms), t.warm.deliveries);
}

void Result::problem(const std::string& what) {
  correct = false;
  if (problems.size() < 8) problems.push_back(what);
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) {
    spans_.reserve(kMaxKept);
    stack_.reserve(64);
  }
}

int SpanLog::open(const char* name, std::int64_t message) {
  const Clock::time_point now = Clock::now();
  int kept = -1;
  if (spans_.size() < kMaxKept) {
    kept = static_cast<int>(spans_.size());
    const int parent = stack_.empty() ? -1 : stack_.back().kept;
    spans_.push_back({name, parent, message, now, now});
  } else {
    ++dropped_;
  }
  stack_.push_back({name, kept, now, message, 0.0});
  return static_cast<int>(stack_.size()) - 1;
}

void SpanLog::close(int handle) {
  // Spans nest strictly: the handle is always the innermost open span.
  if (handle != static_cast<int>(stack_.size()) - 1) return;
  const Clock::time_point now = Clock::now();
  const Open open = stack_.back();
  stack_.pop_back();
  const double ms = ms_between(open.start, now);
  if (open.kept >= 0) spans_[static_cast<std::size_t>(open.kept)].end = now;
  Totals& t = totals_[open.name];
  ++t.count;
  t.total_ms += ms;
  t.child_ms += open.child_ms;
  if (!stack_.empty()) stack_.back().child_ms += ms;
}

SpanLog::Totals SpanLog::totals_of(const std::string& name) const {
  // One literal may have several addresses across translation units.
  Totals sum;
  for (const auto& [key, t] : totals_) {
    if (name != key) continue;
    sum.count += t.count;
    sum.total_ms += t.total_ms;
    sum.child_ms += t.child_ms;
  }
  return sum;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent
        << ",\"start_ms\":" << json_number(ms_between(origin_, s.start))
        << ",\"end_ms\":" << json_number(ms_between(origin_, s.end));
    if (s.message >= 0) out << ",\"message\":" << s.message;
    out << "}\n";
  }
  for (const auto& [name, t] : totals_) {
    out << "{\"totals\":\"" << name << "\",\"count\":" << t.count
        << ",\"total_ms\":" << json_number(t.total_ms)
        << ",\"self_ms\":" << json_number(t.self_ms()) << "}\n";
  }
  out << "{\"dropped_spans\":" << dropped_ << "}\n";
  return out.good();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
