// Shared helpers for the end-to-end benchmark: wall clocks, percentiles,
// process memory, the counting allocator's counters, the span log of the
// traced run, and the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point start) {
  return ms_between(start, Clock::now());
}

/// Heap allocations made through operator new since process start (the
/// counting allocator in alloc.cc).
std::uint64_t allocations();

/// Peak resident set size of this process in MiB.
double peak_rss_mb();
/// CPU time this process has used so far, all threads, in milliseconds.
/// Set-up and throughput are timed with it, not with the wall clock: the
/// measured loops run on one thread and never wait for I/O, so the two
/// agree on a dedicated machine, while on a shared VM the wall clock also
/// counts the bursts of time the hypervisor gives the vCPU to another guest
/// (see perfbench/README.md). Threads the program starts are counted too,
/// so moving work off the measured thread cannot read as a gain.
double cpu_ms();
/// Moves the measured thread from vCPU to vCPU in turn, a step per
/// kStepMs of CPU time. On a shared VM each vCPU is slowed by whatever its
/// physical core's other tenants run, differently and changing by the
/// minute; left to the scheduler, a whole run can sit on the slowest one.
/// Rotating makes every run sample every vCPU alike.
class CpuRotation {
 public:
  static constexpr double kStepMs = 100.0;
  CpuRotation();
  /// Call between rounds of a measured pass: moves on once the current
  /// vCPU has had its step.
  void tick();
  /// Let the process run on any vCPU again, before a set-up (the epoch
  /// compile's worker threads inherit the mask).
  void release();

 private:
  void pin_next();
  std::vector<int> cpus_;  ///< the vCPUs the process may run on
  std::size_t next_ = 0;
  double pinned_at_ = -1.0;  ///< cpu_ms() at the last step; < 0: unpinned
};

/// `count` per second of `ms` milliseconds.
inline double rate_per_s(std::size_t count, double ms) {
  return ms > 0.0 ? static_cast<double>(count) / ms * 1e3 : 0.0;
}

/// Nearest-rank percentile `p` in [0, 100] of `values` (reorders them).
double percentile(std::vector<double>& values, double p);
/// Samples strictly beyond the percentile-p sample (the tail count).
std::size_t tail_count(std::size_t n, double p);

/// Samples of one timing in fixed-size state, so a long run's latencies do
/// not grow the benchmark's own memory: log-linear buckets at most 2^-9 of
/// their values wide, each holding its sample count and sum.
class Histogram {
 public:
  Histogram();
  void add(double v);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Percentile `p` in [0, 100] estimated as the mean of the samples ranked
  /// within half a percentile point of it. Simulated latencies take a few
  /// hundred distinct values, so a nearest-rank quantile would not move
  /// between runs whose inputs differ; the band mean does. A bucket enters
  /// with its own mean, which is exact while it holds one distinct value.
  [[nodiscard]] double band_percentile(double p) const;

 private:
  static constexpr int kSubBits = 9;
  static constexpr int kMinExp = -16;  ///< values below 2^-16 share bucket 0
  static constexpr int kMaxExp = 20;   ///< values from 2^20 share the last

  std::vector<std::uint64_t> counts_;
  std::vector<double> sums_;
  std::uint64_t count_ = 0;
};

/// The set-ups and the cold and warm passes of an untraced run, reported
/// as the end-to-end set-up and throughput figures.
struct RunTimes {
  struct Rate {
    std::size_t deliveries = 0;
    double cpu_ms = 0.0;
    double wall_ms = 0.0;
  };
  std::vector<double> setup_cpu_ms;
  std::vector<double> setup_wall_ms;
  Rate cold, warm;

  /// Time one set-up: `fn` runs it.
  template <typename Fn>
  void setup(Fn&& fn) {
    const double cpu0 = cpu_ms();
    const Clock::time_point start = Clock::now();
    fn();
    setup_wall_ms.push_back(ms_since(start));
    setup_cpu_ms.push_back(cpu_ms() - cpu0);
  }
  /// Add a block's passes (anything with deliveries, cpu_ms and wall_ms).
  template <typename Pass>
  void add(const Pass& c, const Pass& w) {
    cold.deliveries += c.deliveries;
    cold.cpu_ms += c.cpu_ms;
    cold.wall_ms += c.wall_ms;
    warm.deliveries += w.deliveries;
    warm.cpu_ms += w.cpu_ms;
    warm.wall_ms += w.wall_ms;
  }
};

/// One reported number: name, unit, value and how many samples made it.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::uint64_t samples = 0;
};

/// What one workload run produced.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< publishes attempted
  std::uint64_t failed = 0;     ///< publishes that failed an output check
  bool order_violation = false;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< first few check failures, for logs
  std::vector<std::string> notes;     ///< measurement caveats, for logs

  /// setup_s and the rates in CPU time (see cpu_ms), and their wall-clock
  /// readings setup_wall_s and deliveries_per_wall_s for reference.
  void add_times(const RunTimes& t);

  void add(const std::string& name, const std::string& unit, double value,
           std::uint64_t samples = 1) {
    metrics.push_back({name, unit, value, samples});
  }
  void problem(const std::string& what);
  void note(const std::string& what) { notes.push_back(what); }
  /// Report metrics of layers this workload does not run as 0 from no
  /// samples, with no unit (the caller knows which ones they are).
  void unmeasured(std::initializer_list<const char*> names) {
    for (const char* name : names) add(name, "", 0.0, 0);
  }
};

/// Spans of the traced run. Every span has a name, a start and an end, the
/// span that encloses it, and a message id where one exists. Spans stay in
/// memory until write_jsonl(); past `kMaxKept` only the per-name totals are
/// kept, so a long pass cannot exhaust memory.
class SpanLog {
 public:
  static constexpr std::size_t kMaxKept = 200'000;

  explicit SpanLog(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span under the innermost open one; returns its handle.
  int open(const char* name, std::int64_t message = -1);
  void close(int handle);

  /// RAII span; does nothing when the log is disabled.
  class Scope {
   public:
    /// A null `name` opens nothing (for call sites traced only sometimes).
    Scope(SpanLog& log, const char* name, std::int64_t message = -1)
        : log_(&log),
          handle_(log.enabled() && name != nullptr ? log.open(name, message)
                                                   : -1) {}
    ~Scope() {
      if (handle_ >= 0) log_->close(handle_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int handle_;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double child_ms = 0.0;  ///< time covered by direct children
    [[nodiscard]] double self_ms() const { return total_ms - child_ms; }
  };
  /// Per-name totals, keyed by the (string literal) span name.
  [[nodiscard]] const std::map<const char*, Totals>& totals() const {
    return totals_;
  }
  [[nodiscard]] Totals totals_of(const std::string& name) const;

  /// Write every kept span as one JSON object per line. Returns false if
  /// the file could not be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t message;
    Clock::time_point start;
    Clock::time_point end;
  };
  struct Open {
    const char* name;
    int kept;  ///< index into spans_, or -1 when past kMaxKept
    Clock::time_point start;
    std::int64_t message;
    double child_ms;
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::map<const char*, Totals> totals_;
  std::size_t dropped_ = 0;
};

/// Escape a string for a JSON literal.
std::string json_escape(const std::string& s);
/// A finite double as JSON (all digits); non-finite values become null.
std::string json_number(double v);

}  // namespace perfbench
