// Control-plane worker pool: a minimal parallel-for over independent work
// items, used by the epoch compile (seqgraph lays out overlap components in
// parallel — they are independent). Header-only; its users link
// Threads::Threads.
//
// Determinism contract: callers must make fn(i, worker) independent of both
// the worker index and the interleaving (pure function of item i into
// per-item output slots; per-worker state may only be scratch memory).
// Under that contract results are identical for any thread count, including
// the serial fallback.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <vector>

#include "common/parse.h"

namespace decseq::runtime {

/// The most layout workers DECSEQ_COMPILE_THREADS may ask for.
inline constexpr std::size_t kMaxCompileThreads = 256;

/// The worker count a DECSEQ_COMPILE_THREADS value asks for: a decimal
/// integer from 0 to kMaxCompileThreads, where 0 and 1 both mean serial.
/// Anything else (a sign, trailing junk, an empty value, a larger number)
/// throws CheckFailure naming the variable. Starts no thread.
inline std::size_t parse_compile_threads(std::string_view value) {
  const std::size_t threads = common::parse_below(
      value, kMaxCompileThreads + 1, "DECSEQ_COMPILE_THREADS");
  return threads == 0 ? 1 : threads;
}

/// Worker count for control-plane compiles: DECSEQ_COMPILE_THREADS when set
/// (see parse_compile_threads), else the hardware concurrency, capped —
/// component layout is memory-bound and more workers than that just contend.
inline std::size_t compile_threads() {
  static const std::size_t cached = [] {
    if (const char* env = std::getenv("DECSEQ_COMPILE_THREADS")) {
      return parse_compile_threads(env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 1 : (hw > 16 ? 16 : hw));
  }();
  return cached;
}

/// Run fn(item, worker) for every item in [0, n), dynamically load-balanced
/// across up to `threads` workers (the calling thread is worker 0). Blocks
/// until every item completed. With threads <= 1 (or n <= 1) runs inline in
/// item order — same results under the determinism contract above.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t threads, Fn&& fn) {
  if (threads > n) threads = n;
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i, std::size_t{0});
    return;
  }
  std::atomic<std::size_t> next{0};
  auto work = [&](std::size_t worker) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i, worker);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t w = 1; w < threads; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();
}

}  // namespace decseq::runtime
