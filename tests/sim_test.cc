#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/callback.h"
#include "sim/channel.h"
#include "sim/simulator.h"
#include "tests/alloc_probe.h"

namespace decseq::sim {
namespace {

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(5.0, [&] { fired.push_back(2); });
  sim.schedule_at(1.0, [&] { fired.push_back(1); });
  sim.schedule_at(9.0, [&] { fired.push_back(3); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
}

TEST(Simulator, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&fired, i] { fired.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(Simulator, CallbacksCanSchedule) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(1.0, recurse);
  };
  sim.schedule_at(0.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule_at(5.0, [&] {
    EXPECT_THROW(sim.schedule_at(1.0, [] {}), CheckFailure);
  });
  EXPECT_THROW(sim.schedule_at(std::nan(""), [] {}), CheckFailure)
      << "NaN is no time";
  sim.run();
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunBeforeIsExclusiveAndKeepsClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { fired += 10; });
  sim.run_before(5.0);
  EXPECT_EQ(fired, 1) << "the fence-time event must NOT fire";
  EXPECT_DOUBLE_EQ(sim.now(), 1.0)
      << "run_before leaves the clock at the last fired event";
  sim.run_before(std::numeric_limits<Time>::infinity());
  EXPECT_EQ(fired, 11) << "an infinite fence drains everything";
}

TEST(Simulator, NextEventTimePeeksWithoutRunning) {
  Simulator sim;
  EXPECT_TRUE(std::isinf(sim.next_event_time()));
  sim.schedule_at(3.0, [] {});
  sim.schedule_at(7.0, [] {});
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 3.0);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  sim.run();
  EXPECT_TRUE(std::isinf(sim.next_event_time()));
}

TEST(Simulator, AdvanceToMovesIdleClockForward) {
  Simulator sim;
  sim.advance_to(4.0);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
  sim.advance_to(4.0);  // same instant is fine
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
  sim.schedule_at(10.0, [] {});
  sim.advance_to(10.0);  // up to (not past) the next event is fine
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  sim.run();
}

TEST(Simulator, AdvanceToRefusesToSkipEvents) {
  Simulator sim;
  sim.schedule_at(2.0, [] {});
  EXPECT_THROW(sim.advance_to(3.0), CheckFailure)
      << "advancing past a pending event would silently drop it";
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  int fired = 0;
  Simulator::TimerId keep = sim.schedule_at(1.0, [&] { ++fired; });
  Simulator::TimerId drop = sim.schedule_at(2.0, [&] { fired += 100; });
  EXPECT_TRUE(keep.valid());
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.cancel(drop));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.cancel(drop)) << "double cancel must be a no-op";
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.timers_cancelled(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0) << "cancelled event must not advance time";
}

TEST(Simulator, StaleHandleNeverCancelsRecycledSlot) {
  Simulator sim;
  int fired = 0;
  Simulator::TimerId first = sim.schedule_at(1.0, [&] { ++fired; });
  ASSERT_TRUE(sim.cancel(first));
  // The slot is free now; the next schedule recycles it.
  sim.schedule_at(2.0, [&] { fired += 10; });
  EXPECT_FALSE(sim.cancel(first))
      << "a stale handle must not cancel the slot's new occupant";
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, HandleIsStaleAfterFiring) {
  Simulator sim;
  int fired = 0;
  Simulator::TimerId id = sim.schedule_at(1.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(Simulator::TimerId())) << "default handle is inert";
}

TEST(Simulator, CancelInsideHeapKeepsTieOrderFifo) {
  // Cancelling events from the middle of a run of ties unlinks them from
  // their bucket's list; the (time, insertion order) tie-break must survive
  // that.
  Simulator sim;
  std::vector<int> fired;
  std::vector<Simulator::TimerId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(sim.schedule_at(1.0, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 32; i += 3) EXPECT_TRUE(sim.cancel(ids[i]));
  sim.run();
  std::vector<int> expected;
  for (int i = 0; i < 32; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(fired, expected);
}

TEST(Simulator, CancelStormStaysConsistent) {
  // Interleaved schedule/cancel across many slots: the slab + bucket-list
  // bookkeeping must keep every surviving event, in order, exactly once.
  Simulator sim;
  Rng rng(99);
  std::vector<std::pair<double, int>> fired;
  std::vector<Simulator::TimerId> ids;
  for (int i = 0; i < 500; ++i) {
    const double at = rng.next_double() * 100.0;
    ids.push_back(sim.schedule_at(at, [&fired, at, i] {
      fired.push_back({at, i});
    }));
    if (i % 2 == 1 && rng.next_bool(0.5)) {
      const std::size_t victim = rng.next_below(ids.size());
      sim.cancel(ids[victim]);  // may be stale; both outcomes are legal
    }
  }
  sim.run();
  EXPECT_EQ(fired.size() + sim.timers_cancelled(), 500u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end(),
                             [](const auto& a, const auto& b) {
                               return a.first < b.first;
                             }));
}

/// Drives a Simulator with seeded random operations and mirrors every call
/// on the queue the simulator claims to be: a std::set ordered by (time,
/// schedule order). Events are numbered in schedule order, so the number
/// is the model's FIFO tie-break. Callbacks schedule (zero-delay chains
/// among them) and cancel, like channel hops and acks do.
class ReferenceQueueHarness {
 public:
  explicit ReferenceQueueHarness(std::uint64_t seed) : rng_(seed) {}
  // Scheduled callbacks capture `this`.
  ReferenceQueueHarness(const ReferenceQueueHarness&) = delete;
  ReferenceQueueHarness& operator=(const ReferenceQueueHarness&) = delete;

  /// One random top-level operation, then a state comparison.
  void step() {
    const std::uint64_t op = rng_.next_below(100);
    if (op < 30) {
      for (std::uint64_t i = 1 + rng_.next_below(4); i > 0; --i) {
        schedule_drawn();
      }
    } else if (op < 45) {
      cancel_random();
    } else if (op < 60) {
      run_until(draw_deadline());
    } else if (op < 75) {
      run_before(draw_deadline());
    } else if (op < 90) {
      advance_to(draw_deadline());
    } else {
      run();
    }
    check_state();
  }

  void run() {
    fired_in_call_ = 0;
    EXPECT_EQ(sim_.run(), fired_in_call_);
    EXPECT_TRUE(model_.empty()) << "run() returned with events pending";
  }

  [[nodiscard]] std::size_t fired() const { return fired_; }

 private:
  struct Event {
    Simulator::TimerId id;
    Time at = 0.0;
  };
  static constexpr std::size_t kMaxEvents = 3000;

  /// Zero, one of a few repeated values (exact ties from different
  /// instants), or a random delay.
  Time draw_delay() {
    static constexpr Time kRepeated[] = {0.5, 1.0, 2.0, 3.0};
    switch (rng_.next_below(3)) {
      case 0:
        return 0.0;
      case 1:
        return kRepeated[rng_.next_below(std::size(kRepeated))];
      default:
        return rng_.next_double() * 8.0;
    }
  }

  /// An absolute time, at or after now, that a queue keyed on the bits of
  /// the time could misplace: -0.0 while the clock is at 0, one ULP either
  /// side of now or of a pending time, either side of a power of two, or
  /// (rarely) a large magnitude or +infinity, after which every time is
  /// +infinity. Otherwise now plus a drawn delay.
  Time draw_time() {
    constexpr Time kInf = std::numeric_limits<Time>::infinity();
    switch (rng_.next_below(5)) {
      case 0:
        if (now_ == 0.0 && rng_.next_bool(0.5)) return -0.0;
        return std::nextafter(now_, kInf);
      case 1: {
        if (model_.empty()) return std::nextafter(now_, kInf);
        const Time t =
            std::next(model_.begin(), static_cast<std::ptrdiff_t>(
                                          rng_.next_below(model_.size())))
                ->first;
        return std::max(now_, std::nextafter(t, rng_.next_bool(0.5) ? kInf
                                                                   : -kInf));
      }
      case 2: {
        // The power of two just above now, when a delay could reach it.
        if (!std::isfinite(now_)) return now_;
        const int exp = now_ > 0.0 ? std::ilogb(now_) + 1
                                   : -static_cast<int>(rng_.next_below(4));
        const Time power = std::ldexp(1.0, exp);
        if (power - now_ > 8.0) return now_ + draw_delay();
        switch (rng_.next_below(3)) {
          case 0:
            return power;
          case 1:
            return std::max(now_, std::nextafter(power, 0.0));
          default:
            return std::nextafter(power, kInf);
        }
      }
      default:
        if (rng_.next_bool(1.0 / 256)) {
          if (rng_.next_bool(0.1)) return kInf;
          return std::max(now_,
                          std::ldexp(1.0 + rng_.next_double(),
                                     40 + static_cast<int>(
                                              rng_.next_below(980))));
        }
        return now_ + draw_delay();
    }
  }

  /// A deadline at the next pending event or at a drawn time.
  Time draw_deadline() {
    if (!model_.empty() && rng_.next_bool(0.3)) return model_.begin()->first;
    return draw_time();
  }

  /// Schedule after a drawn delay or at a drawn time.
  void schedule_drawn() {
    if (rng_.next_bool(0.4)) {
      schedule_at(draw_time());
    } else {
      schedule(draw_delay());
    }
  }

  /// Schedule through either entry point.
  void schedule(Time delay) {
    const std::size_t n = events_.size();
    const Time at = now_ + delay;
    auto fire = [this, n] { on_fire(n); };
    record(rng_.next_bool(0.5) ? sim_.schedule_after(delay, fire)
                               : sim_.schedule_at(at, fire),
           at);
  }

  /// Only through schedule_at: schedule_after(at - now) need not land on
  /// `at` exactly.
  void schedule_at(Time at) {
    const std::size_t n = events_.size();
    record(sim_.schedule_at(at, [this, n] { on_fire(n); }), at);
  }

  void record(Simulator::TimerId id, Time at) {
    model_.emplace(at, events_.size());
    events_.push_back(Event{id, at});
  }

  /// Cancel a live or stale handle. Half the picks are among the newest
  /// handles, which are often zero-delay events due at the current instant
  /// (the queue's bucket 0).
  void cancel_random() {
    if (events_.empty()) return;
    const std::size_t n =
        rng_.next_bool(0.5)
            ? events_.size() - 1 -
                  rng_.next_below(std::min<std::size_t>(events_.size(), 4))
            : rng_.next_below(events_.size());
    const bool live = model_.erase({events_[n].at, n}) == 1;
    EXPECT_EQ(sim_.cancel(events_[n].id), live) << "event " << n;
    if (live) ++cancelled_;
  }

  void run_until(Time deadline) {
    fired_in_call_ = 0;
    EXPECT_EQ(sim_.run_until(deadline), fired_in_call_);
    EXPECT_TRUE(model_.empty() || model_.begin()->first > deadline)
        << "run_until(" << deadline << ") left a due event";
    now_ = std::max(now_, deadline);
  }

  void run_before(Time deadline) {
    fired_in_call_ = 0;
    EXPECT_EQ(sim_.run_before(deadline), fired_in_call_);
    EXPECT_TRUE(model_.empty() || model_.begin()->first >= deadline)
        << "run_before(" << deadline << ") left an earlier event";
  }

  void advance_to(Time t) {
    if (model_.empty() || model_.begin()->first >= t) {
      sim_.advance_to(t);
      now_ = std::max(now_, t);
    } else {
      EXPECT_THROW(sim_.advance_to(t), CheckFailure);
    }
  }

  void on_fire(std::size_t n) {
    ASSERT_FALSE(model_.empty()) << "event " << n << " fired unscheduled";
    const auto [at, want] = *model_.begin();
    ASSERT_EQ(n, want) << "fire order diverged at t=" << at;
    model_.erase(model_.begin());
    now_ = at;
    ++fired_;
    ++fired_in_call_;
    // Mean 0.7 children per firing keeps every chain finite.
    if (events_.size() < kMaxEvents) {
      if (rng_.next_bool(0.45)) schedule(0.0);
      if (rng_.next_bool(0.25)) schedule_drawn();
    }
    if (rng_.next_bool(0.2)) cancel_random();
    check_state();
  }

  void check_state() {
    EXPECT_EQ(sim_.now(), now_);
    EXPECT_EQ(sim_.pending(), model_.size());
    EXPECT_EQ(sim_.idle(), model_.empty());
    EXPECT_EQ(sim_.next_event_time(),
              model_.empty() ? std::numeric_limits<Time>::infinity()
                             : model_.begin()->first);
    EXPECT_EQ(sim_.events_scheduled(), events_.size());
    EXPECT_EQ(sim_.events_fired(), fired_);
    EXPECT_EQ(sim_.timers_cancelled(), cancelled_);
  }

  Simulator sim_;
  Rng rng_;
  std::vector<Event> events_;
  std::set<std::pair<Time, std::size_t>> model_;
  Time now_ = 0.0;
  std::size_t fired_ = 0;
  std::size_t fired_in_call_ = 0;
  std::size_t cancelled_ = 0;
};

TEST(Simulator, MatchesReferenceQueueUnderRandomOps) {
  // The radix queue must fire exactly the (time, insertion order) sequence
  // of a plain ordered set, under every mix of same-instant scheduling,
  // cancellation and clock control, and at times whose bit patterns sit
  // next to each other, across a power of two or far from the base.
  std::size_t firings = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ReferenceQueueHarness harness(seed);
    for (int step = 0; step < 400 && !HasFailure(); ++step) harness.step();
    harness.run();
    if (HasFailure()) return;
    firings += harness.fired();
  }
  EXPECT_GT(firings, 100000u) << "the random ops barely exercised the queue";
}

TEST(Channel, DeliversInOrderWithDelay) {
  Simulator sim;
  Rng rng(1);
  Channel<int> ch(sim, rng, 3.0);
  std::vector<std::pair<int, Time>> got;
  ch.set_receiver([&](int v) { got.push_back({v, sim.now()}); });
  ch.send(1);
  ch.send(2);
  ch.send(3);
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, 1);
  EXPECT_EQ(got[2].first, 3);
  EXPECT_DOUBLE_EQ(got[0].second, 3.0);
}

TEST(Channel, RejectsNonPositiveRetransmitTimeout) {
  // At rto 0 the retransmit timer re-arms at the same instant forever and
  // the simulator never advances; refuse it at construction.
  Simulator sim;
  Rng rng(1);
  for (const Time rto : {0.0, -5.0, std::numeric_limits<Time>::quiet_NaN(),
                         std::numeric_limits<Time>::infinity()}) {
    ChannelOptions options;
    options.retransmit_timeout_ms = rto;
    EXPECT_THROW(Channel<int>(sim, rng, 0.0, options), CheckFailure)
        << "rto " << rto;
  }
  EXPECT_EQ(sim.events_scheduled(), 0u);
}

TEST(Channel, ZeroDelayStillFifo) {
  Simulator sim;
  Rng rng(2);
  Channel<int> ch(sim, rng, 0.0);
  std::vector<int> got;
  ch.set_receiver([&](int v) { got.push_back(v); });
  for (int i = 0; i < 20; ++i) ch.send(i);
  sim.run();
  ASSERT_EQ(got.size(), 20u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(Channel, InstantHopCostsOneEventPerSend) {
  // A 0 ms loss-free channel (colocated atoms) is a same-machine hand-off:
  // each send schedules its data event and nothing else — no ack event and
  // no retransmit timer armed only to be cancelled.
  Simulator sim;
  Rng rng(18);
  Channel<int> ch(sim, rng, 0.0);
  std::vector<int> got;
  ch.set_receiver([&](int v) {
    got.push_back(v);
    EXPECT_EQ(sim.now(), 0.0);
  });
  constexpr int kSends = 64;
  for (int i = 0; i < kSends; ++i) ch.send(i);
  sim.run();
  ASSERT_EQ(got.size(), std::size_t{kSends});
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(sim.events_scheduled(), std::size_t{kSends})
      << "one data event per send, nothing else";
  EXPECT_EQ(sim.timers_cancelled(), 0u) << "no timer was armed to cancel";
  EXPECT_EQ(ch.retransmit_timer_fires(), 0u);
  EXPECT_EQ(ch.transmissions(), std::size_t{kSends});
  EXPECT_EQ(ch.unacked(), 0u) << "delivery releases the output slot";
  EXPECT_TRUE(ch.quiescent());
}

TEST(Channel, InstantLaunchIsSampledOnce) {
  // On a 0 ms loss-free channel the link and the receiver are sampled when
  // a transmission is launched, never again on arrival.
  enum class Fault { kReceiver, kLink };
  const auto set_down = [](Channel<int>& ch, Fault fault, bool down) {
    if (fault == Fault::kReceiver) {
      ch.set_receiver_down(down);
    } else {
      ch.set_link_down(down);
    }
  };
  for (const Fault fault : {Fault::kReceiver, Fault::kLink}) {
    SCOPED_TRACE(fault == Fault::kReceiver ? "receiver" : "link");
    {
      // A launch that got through arrives at its instant even though the
      // endpoint went down after it, inside that same instant.
      Simulator sim;
      Rng rng(19);
      ChannelOptions options;
      options.retransmit_timeout_ms = 25.0;
      Channel<int> ch(sim, rng, 0.0, options);
      std::vector<std::pair<int, Time>> got;
      ch.set_receiver([&](int v) { got.push_back({v, sim.now()}); });
      sim.schedule_at(10.0, [&] {
        ch.send(1);
        set_down(ch, fault, true);
      });
      sim.schedule_at(60.0, [&] { set_down(ch, fault, false); });
      sim.run();
      EXPECT_EQ(got, (std::vector<std::pair<int, Time>>{{1, 10.0}}));
      EXPECT_EQ(ch.retransmit_timer_fires(), 0u);
      EXPECT_EQ(ch.transmissions(), 1u);
      EXPECT_TRUE(ch.quiescent());
    }
    {
      // A launch made while down is buffered with its timer armed, and the
      // recovery resend delivers it exactly once, in order.
      Simulator sim;
      Rng rng(20);
      ChannelOptions options;
      options.retransmit_timeout_ms = 25.0;
      Channel<int> ch(sim, rng, 0.0, options);
      std::vector<std::pair<int, Time>> got;
      ch.set_receiver([&](int v) { got.push_back({v, sim.now()}); });
      sim.schedule_at(10.0, [&] {
        set_down(ch, fault, true);
        ch.send(1);
        ch.send(2);
      });
      sim.schedule_at(60.0, [&] { set_down(ch, fault, false); });
      sim.run();
      EXPECT_EQ(got, (std::vector<std::pair<int, Time>>{{1, 60.0}, {2, 60.0}}));
      EXPECT_GE(ch.retransmit_timer_fires(), 1u);
      EXPECT_EQ(ch.unacked(), 0u);
      EXPECT_TRUE(ch.quiescent());
    }
  }
}

TEST(Channel, AcksDrainRetransmissionBuffer) {
  Simulator sim;
  Rng rng(3);
  Channel<int> ch(sim, rng, 2.0);
  ch.set_receiver([](int) {});
  ch.send(1);
  ch.send(2);
  EXPECT_EQ(ch.unacked(), 2u);
  sim.run();
  EXPECT_EQ(ch.unacked(), 0u);
}

TEST(Channel, LossyLinkStillDeliversInOrderExactlyOnce) {
  Simulator sim;
  Rng rng(4);
  ChannelOptions options;
  options.loss_probability = 0.4;
  options.retransmit_timeout_ms = 50.0;
  Channel<int> ch(sim, rng, 5.0, options);
  std::vector<int> got;
  ch.set_receiver([&](int v) { got.push_back(v); });
  for (int i = 0; i < 50; ++i) ch.send(i);
  sim.run();
  ASSERT_EQ(got.size(), 50u) << "every payload must arrive exactly once";
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(ch.transmissions(), 50u) << "loss must have caused retransmits";
  EXPECT_EQ(ch.unacked(), 0u);
}

TEST(Channel, HeavyLossStress) {
  Simulator sim;
  Rng rng(5);
  ChannelOptions options;
  options.loss_probability = 0.7;
  options.retransmit_timeout_ms = 20.0;
  options.max_retransmits = 500;
  Channel<std::string> ch(sim, rng, 1.0, options);
  std::vector<std::string> got;
  ch.set_receiver([&](std::string v) { got.push_back(std::move(v)); });
  for (int i = 0; i < 20; ++i) ch.send("m" + std::to_string(i));
  sim.run();
  ASSERT_EQ(got.size(), 20u);
  EXPECT_EQ(got.front(), "m0");
  EXPECT_EQ(got.back(), "m19");
}

TEST(Channel, RequiresReceiver) {
  Simulator sim;
  Rng rng(6);
  Channel<int> ch(sim, rng, 1.0);
  EXPECT_THROW(ch.send(1), CheckFailure);
}

TEST(Channel, LossFreeRunFiresNoRetransmitTimers) {
  // The whole point of cancellable timers: with loss 0 and acks returning
  // within the timeout, no retransmit timer callback ever runs — acks
  // disarm the timer first. The seed engine drained a dead timer event per
  // packet through the queue instead.
  Simulator sim;
  Rng rng(7);
  Channel<int> ch(sim, rng, 3.0);
  int delivered = 0;
  ch.set_receiver([&](int) { ++delivered; });
  for (int i = 0; i < 200; ++i) ch.send(i);
  sim.run();
  EXPECT_EQ(delivered, 200);
  EXPECT_EQ(ch.retransmit_timer_fires(), 0u);
  EXPECT_GE(sim.timers_cancelled(), 1u)
      << "the ack that drained the buffer must cancel the armed timer";
  EXPECT_EQ(ch.transmissions(), 200u) << "no packet was sent twice";
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Channel, LossTriggersTimerFiresAndRepair) {
  // At delay 0 too: a lossy 0 ms channel keeps its acks and its timer.
  for (const Time delay : {2.0, 0.0}) {
    SCOPED_TRACE("delay " + std::to_string(delay));
    Simulator sim;
    Rng rng(8);
    ChannelOptions options;
    options.loss_probability = 0.5;
    options.retransmit_timeout_ms = 30.0;
    Channel<int> ch(sim, rng, delay, options);
    std::vector<int> got;
    ch.set_receiver([&](int v) { got.push_back(v); });
    for (int i = 0; i < 40; ++i) ch.send(i);
    sim.run();
    ASSERT_EQ(got.size(), 40u);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_GE(ch.retransmit_timer_fires(), 1u)
        << "half the packets vanished; the timer must have driven repair";
    EXPECT_EQ(ch.unacked(), 0u);
  }
}

TEST(Channel, ReceiverFailureWindowRecovers) {
  Simulator sim;
  Rng rng(9);
  ChannelOptions options;
  options.retransmit_timeout_ms = 25.0;
  Channel<int> ch(sim, rng, 5.0, options);
  std::vector<std::pair<int, Time>> got;
  ch.set_receiver([&](int v) { got.push_back({v, sim.now()}); });

  ch.send(1);
  ch.send(2);
  ch.set_receiver_down(true);
  sim.schedule_at(60.0, [&] { ch.set_receiver_down(false); });
  sim.run();

  ASSERT_EQ(got.size(), 2u) << "retransmissions must survive the outage";
  EXPECT_EQ(got[0].first, 1);
  EXPECT_EQ(got[1].first, 2);
  EXPECT_GT(got[0].second, 60.0) << "nothing can arrive while down";
  EXPECT_GE(ch.retransmit_timer_fires(), 1u);
  EXPECT_EQ(ch.unacked(), 0u) << "recovery must drain the output buffer";
}

TEST(Channel, LinkFailureWindowRecovers) {
  // At delay 0 too: launches made while a 0 ms hop is cut take the
  // buffered path, timer included.
  for (const Time delay : {5.0, 0.0}) {
    SCOPED_TRACE("delay " + std::to_string(delay));
    Simulator sim;
    Rng rng(10);
    ChannelOptions options;
    options.retransmit_timeout_ms = 25.0;
    Channel<int> ch(sim, rng, delay, options);
    std::vector<int> got;
    ch.set_receiver([&](int v) { got.push_back(v); });

    ch.set_link_down(true);
    ch.send(1);
    ch.send(2);
    ch.send(3);
    sim.schedule_at(80.0, [&] { ch.set_link_down(false); });
    sim.run();

    EXPECT_EQ(got, (std::vector<int>{1, 2, 3}))
        << "a severed link is a 100% loss window the timer repairs";
    EXPECT_GE(ch.retransmit_timer_fires(), 1u);
    EXPECT_EQ(ch.unacked(), 0u);
  }
}

TEST(Channel, ExhaustedBudgetSurfacesFaultWithoutAbort) {
  // The old channel aborted the whole process when a packet crossed
  // max_retransmits. Now it must surface a fault — status flag plus one
  // callback per transition — keep its state, and recover cleanly when the
  // endpoint comes back.
  Simulator sim;
  Rng rng(11);
  ChannelOptions options;
  options.retransmit_timeout_ms = 10.0;
  options.max_retransmits = 3;
  Channel<int> ch(sim, rng, 5.0, options);
  std::vector<int> got;
  ch.set_receiver([&](int v) { got.push_back(v); });
  std::vector<ChannelFault> faults;
  ch.set_fault_callback([&](const ChannelFault& f) { faults.push_back(f); });

  ch.set_receiver_down(true);
  ch.send(7);
  // Budget 3 at rto 10 exhausts by ~90ms even with maximal jitter; probe
  // the surfaced state mid-outage, well before the recovery below.
  sim.schedule_at(150.0, [&] {
    EXPECT_TRUE(ch.faulted());
    ASSERT_TRUE(ch.fault().has_value());
    EXPECT_EQ(ch.fault()->seq, 0u);
    EXPECT_GT(ch.fault()->attempts, options.max_retransmits);
    EXPECT_EQ(faults.size(), 1u) << "callback fires once per transition";
  });
  sim.schedule_at(200.0, [&] { ch.set_receiver_down(false); });
  EXPECT_NO_THROW(sim.run()) << "exhaustion must not abort the run";

  EXPECT_EQ(got, (std::vector<int>{7})) << "recovery still delivers";
  EXPECT_FALSE(ch.faulted()) << "recovery clears the fault";
  EXPECT_EQ(ch.faults_entered(), 1u);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].seq, 0u);
  EXPECT_EQ(ch.unacked(), 0u);
  EXPECT_EQ(sim.pending(), 0u)
      << "a parked fault must not leave the simulator spinning";
}

TEST(Channel, BackoffKeepsOutageRetransmitsLogarithmic) {
  // During a W-long outage a packet is retried O(log(W/rto)) times, not
  // W/rto times. A 5000ms window at rto 10 would have been ~500 linear
  // retransmissions; exponential backoff capped at 64*rto needs ~a dozen.
  Simulator sim;
  Rng rng(12);
  ChannelOptions options;
  options.retransmit_timeout_ms = 10.0;
  Channel<int> ch(sim, rng, 5.0, options);
  std::vector<std::pair<int, Time>> got;
  ch.set_receiver([&](int v) { got.push_back({v, sim.now()}); });

  ch.set_link_down(true);
  ch.send(1);
  sim.schedule_at(5000.0, [&] { ch.set_link_down(false); });
  sim.run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_GT(got[0].second, 5000.0);
  EXPECT_GE(ch.transmissions(), 8u) << "probing must continue all window";
  EXPECT_LE(ch.transmissions(), 20u)
      << "retransmit storm: backoff is not exponential";
  EXPECT_EQ(ch.unacked(), 0u);
}

TEST(Channel, PartitionKillsInFlightTrafficAtArrival) {
  // Link state is sampled at arrival time too: a packet launched before
  // the cut but arriving inside it dies. Without that, the transmission
  // launched at t=0 would slip through at t=10 despite the 5..100 window.
  Simulator sim;
  Rng rng(13);
  ChannelOptions options;
  options.retransmit_timeout_ms = 50.0;
  Channel<int> ch(sim, rng, 10.0, options);
  std::vector<std::pair<int, Time>> got;
  ch.set_receiver([&](int v) { got.push_back({v, sim.now()}); });

  ch.send(1);
  sim.schedule_at(5.0, [&] { ch.set_link_down(true); });
  sim.schedule_at(100.0, [&] { ch.set_link_down(false); });
  sim.run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_GT(got[0].second, 100.0)
      << "the in-flight transmission must die inside the partition";
  EXPECT_EQ(ch.unacked(), 0u);
}

TEST(Channel, LostAckRepairedByCumulativeReack) {
  // Kill only the acknowledgment (delivered at t=10, ack in flight when
  // the link cuts at 15). The recovery retransmission is a duplicate the
  // receiver suppresses and re-acks cumulatively — exactly-once delivery,
  // and the retransmit timer (rto 100) never had to fire.
  Simulator sim;
  Rng rng(14);
  ChannelOptions options;
  options.retransmit_timeout_ms = 100.0;
  Channel<int> ch(sim, rng, 10.0, options);
  std::vector<int> got;
  ch.set_receiver([&](int v) { got.push_back(v); });

  ch.send(42);
  sim.schedule_at(15.0, [&] { ch.set_link_down(true); });
  sim.schedule_at(30.0, [&] { ch.set_link_down(false); });
  sim.run();

  EXPECT_EQ(got, (std::vector<int>{42})) << "duplicate must be suppressed";
  EXPECT_EQ(ch.unacked(), 0u) << "the cumulative re-ack must drain the buffer";
  EXPECT_EQ(ch.retransmit_timer_fires(), 0u)
      << "repair came from the recovery resend, not the timer";
  EXPECT_EQ(ch.transmissions(), 2u);
}

TEST(Channel, ReceiverOutageShorterThanBudgetAvoidsFault) {
  // Budget 5 at rto 10 only exhausts after ~310ms of backoff; a 100ms
  // outage heals first, so the channel never reports a fault.
  Simulator sim;
  Rng rng(15);
  ChannelOptions options;
  options.retransmit_timeout_ms = 10.0;
  options.max_retransmits = 5;
  Channel<int> ch(sim, rng, 5.0, options);
  std::vector<int> got;
  ch.set_receiver([&](int v) { got.push_back(v); });

  ch.set_receiver_down(true);
  ch.send(1);
  ch.send(2);
  sim.schedule_at(100.0, [&] { ch.set_receiver_down(false); });
  sim.run();

  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_EQ(ch.faults_entered(), 0u)
      << "an outage inside the budget is not a fault";
  EXPECT_FALSE(ch.faulted());
  EXPECT_EQ(ch.unacked(), 0u);
}

TEST(Channel, PureLossFaultClearsWhenProbeLands) {
  // Exhaust the budget through loss alone (no down flag): the channel
  // keeps probing at the capped cadence, and the first probe+ack that
  // survive clear the fault without any recovery notification.
  Simulator sim;
  Rng rng(16);
  ChannelOptions options;
  options.loss_probability = 0.9;
  options.retransmit_timeout_ms = 5.0;
  options.max_retransmits = 2;
  Channel<int> ch(sim, rng, 1.0, options);
  std::vector<int> got;
  ch.set_receiver([&](int v) { got.push_back(v); });

  for (int i = 0; i < 10; ++i) ch.send(i);
  sim.run();

  ASSERT_EQ(got.size(), 10u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_GE(ch.faults_entered(), 1u)
      << "90% loss with budget 2 must trip the fault state at least once";
  EXPECT_FALSE(ch.faulted()) << "the surviving probe+ack cleared it";
  EXPECT_EQ(ch.unacked(), 0u);
}

TEST(Channel, LinkFlapsPreserveExactlyOnceFifo) {
  // Traffic spread across repeated partition windows (plus ambient loss):
  // every payload still arrives exactly once, in order.
  Simulator sim;
  Rng rng(17);
  ChannelOptions options;
  options.loss_probability = 0.1;
  options.retransmit_timeout_ms = 20.0;
  Channel<int> ch(sim, rng, 5.0, options);
  std::vector<int> got;
  ch.set_receiver([&](int v) { got.push_back(v); });

  for (int i = 0; i < 30; ++i) {
    sim.schedule_at(i * 4.0, [&ch, i] { ch.send(i); });
  }
  for (const auto& [down, up] : {std::pair{30.0, 60.0}, {100.0, 140.0}}) {
    sim.schedule_at(down, [&] { ch.set_link_down(true); });
    sim.schedule_at(up, [&] { ch.set_link_down(false); });
  }
  sim.run();

  ASSERT_EQ(got.size(), 30u) << "flaps must not lose or duplicate";
  for (int i = 0; i < 30; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(ch.unacked(), 0u);
  EXPECT_FALSE(ch.faulted());
}

TEST(Callback, SpillPoolRecyclesOversizedCaptures) {
  // A capture too big for the inline buffer spills to the heap, but the
  // spill goes through the thread-local freelist: after the first block of
  // a size class is warmed, repeated schedule/fire cycles of the same
  // oversized capture reuse it — zero fresh blocks, zero heap allocations.
  using Callback = InlineCallback<24>;
  struct Payload {
    unsigned char pad[160];
  };
  Payload payload{};
  int fired = 0;
  const auto make = [&] {
    return Callback([payload, &fired] {
      ++fired;
      (void)payload;
    });
  };
  {
    Callback warm = make();  // first spill of this size class: fresh block
    ASSERT_TRUE(warm.heap_allocated());
    warm();
  }

  const SpillPoolStats before = spill_pool_stats();
  const std::size_t allocs_before = test::alloc_count();
  for (int i = 0; i < 64; ++i) {
    Callback cb = make();
    cb();
  }
  const SpillPoolStats& after = spill_pool_stats();
  EXPECT_EQ(after.fresh, before.fresh) << "warm spills must not allocate";
  EXPECT_EQ(after.reused, before.reused + 64);
  EXPECT_EQ(test::alloc_count() - allocs_before, 0u);
  EXPECT_EQ(fired, 65);
}

}  // namespace
}  // namespace decseq::sim
