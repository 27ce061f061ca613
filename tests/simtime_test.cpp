#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simtime/channel.hpp"
#include "simtime/engine.hpp"

namespace m3rma::sim {
namespace {

TEST(Engine, RunsSingleProcessToCompletion) {
  Engine e;
  bool ran = false;
  e.spawn("p", [&](Context&) { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
}

TEST(Engine, DelayAdvancesVirtualTime) {
  Engine e;
  Time seen = 0;
  e.spawn("p", [&](Context& ctx) {
    ctx.delay(1000);
    seen = ctx.now();
    ctx.delay(234);
    seen = ctx.now();
  });
  e.run();
  EXPECT_EQ(seen, 1234u);
  EXPECT_EQ(e.now(), 1234u);
}

TEST(Engine, ComputationTakesZeroVirtualTime) {
  Engine e;
  Time t = 99;
  e.spawn("p", [&](Context& ctx) {
    volatile long acc = 0;
    for (int i = 0; i < 100000; ++i) acc = acc + i;
    t = ctx.now();
  });
  e.run();
  EXPECT_EQ(t, 0u);
}

TEST(Engine, ProcessesInterleaveDeterministically) {
  // Two runs with the same program produce the same event trace.
  auto trace = []() {
    Engine e;
    std::vector<std::string> log;
    for (int p = 0; p < 3; ++p) {
      e.spawn("p" + std::to_string(p), [&, p](Context& ctx) {
        for (int i = 0; i < 4; ++i) {
          ctx.delay(static_cast<Time>(100 * (p + 1)));
          log.push_back("p" + std::to_string(p) + "@" +
                        std::to_string(ctx.now()));
        }
      });
    }
    e.run();
    return log;
  };
  EXPECT_EQ(trace(), trace());
}

TEST(Engine, EventsAtSameInstantRunInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  e.spawn("p", [&](Context& ctx) {
    ctx.engine().schedule_in(10, [&] { order.push_back(1); });
    ctx.engine().schedule_in(10, [&] { order.push_back(2); });
    ctx.engine().schedule_in(10, [&] { order.push_back(3); });
    ctx.delay(20);
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SchedulePastThrows) {
  Engine e;
  e.spawn("p", [&](Context& ctx) {
    ctx.delay(100);
    ctx.engine().schedule_at(50, [] {});
  });
  EXPECT_THROW(e.run(), Panic);
}

TEST(Engine, ExceptionInProcessPropagatesFromRun) {
  Engine e;
  e.spawn("bad", [&](Context&) { throw std::logic_error("kapow"); });
  try {
    e.run();
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& ex) {
    EXPECT_STREQ(ex.what(), "kapow");
  }
}

TEST(Engine, DeadlockDetected) {
  Engine e;
  Condition never(e);
  e.spawn("stuck", [&](Context& ctx) { ctx.await(never); });
  EXPECT_THROW(e.run(), DeadlockError);
}

TEST(Engine, DeadlockMessageNamesBlockedProcess) {
  Engine e;
  Condition never(e);
  e.spawn("the-stuck-one", [&](Context& ctx) { ctx.await(never); });
  try {
    e.run();
    FAIL();
  } catch (const DeadlockError& d) {
    EXPECT_NE(std::string(d.what()).find("the-stuck-one"), std::string::npos);
  }
}

TEST(Engine, DaemonDoesNotKeepSimulationAlive) {
  Engine e;
  Condition never(e);
  bool worker_done = false;
  e.spawn("daemon", [&](Context& ctx) { ctx.await(never); },
          /*daemon=*/true);
  e.spawn("worker", [&](Context& ctx) {
    ctx.delay(500);
    worker_done = true;
  });
  e.run();  // must terminate despite the blocked daemon
  EXPECT_TRUE(worker_done);
}

TEST(Engine, ConditionWakesAllWaiters) {
  Engine e;
  Condition c(e);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    e.spawn("w" + std::to_string(i), [&](Context& ctx) {
      ctx.await(c);
      ++woken;
    });
  }
  e.spawn("notifier", [&](Context& ctx) {
    ctx.delay(100);
    c.notify_all();
  });
  e.run();
  EXPECT_EQ(woken, 5);
}

TEST(Engine, AwaitUntilRechecksPredicate) {
  Engine e;
  Condition c(e);
  int value = 0;
  Time when = 0;
  e.spawn("waiter", [&](Context& ctx) {
    ctx.await_until(c, [&] { return value >= 3; });
    when = ctx.now();
  });
  e.spawn("setter", [&](Context& ctx) {
    for (int i = 0; i < 3; ++i) {
      ctx.delay(100);
      ++value;
      c.notify_all();
    }
  });
  e.run();
  EXPECT_EQ(when, 300u);
}

TEST(Engine, SpawnDuringRunStartsAtCurrentInstant) {
  Engine e;
  Time child_start = 0;
  e.spawn("parent", [&](Context& ctx) {
    ctx.delay(777);
    ctx.engine().spawn("child", [&](Context& cctx) {
      child_start = cctx.now();
    });
    ctx.delay(10);
  });
  e.run();
  EXPECT_EQ(child_start, 777u);
}

TEST(Engine, YieldLetsSameTimeEventsRun) {
  Engine e;
  std::vector<int> order;
  e.spawn("a", [&](Context& ctx) {
    ctx.engine().schedule_in(0, [&] { order.push_back(1); });
    ctx.yield();
    order.push_back(2);
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, ContextSwitchesCounted) {
  Engine e;
  e.spawn("p", [&](Context& ctx) {
    for (int i = 0; i < 10; ++i) ctx.delay(1);
  });
  e.run();
  EXPECT_GE(e.context_switches(), 10u);
}

TEST(Engine, ManyProcessesManyEvents) {
  Engine e;
  long total = 0;
  constexpr int kProcs = 32;
  constexpr int kIters = 50;
  for (int p = 0; p < kProcs; ++p) {
    e.spawn("p" + std::to_string(p), [&, p](Context& ctx) {
      for (int i = 0; i < kIters; ++i) {
        ctx.delay(static_cast<Time>(p % 7 + 1));
        ++total;
      }
    });
  }
  e.run();
  EXPECT_EQ(total, kProcs * kIters);
  EXPECT_GE(e.events_processed(), static_cast<std::uint64_t>(total));
}

TEST(Engine, StressManyProcessesRandomSleeps) {
  // 100 processes, randomized sleeps, shared counters: scheduling must stay
  // exclusive (no torn updates without any locking) and every process must
  // run to completion.
  Engine e(31337);
  long counter = 0;
  int finished = 0;
  for (int p = 0; p < 100; ++p) {
    e.spawn("p" + std::to_string(p), [&](Context& ctx) {
      for (int i = 0; i < 25; ++i) {
        const long before = counter;
        ctx.delay(1 + ctx.engine().rng().next_below(50));
        // Exclusive execution: nobody can have interleaved a partial
        // update; we can only observe monotonic growth.
        EXPECT_GE(counter, before);
        ++counter;
      }
      ++finished;
    });
  }
  e.run();
  EXPECT_EQ(counter, 100 * 25);
  EXPECT_EQ(finished, 100);
}

TEST(Engine, TimeNeverGoesBackward) {
  Engine e(5);
  Time last = 0;
  bool monotone = true;
  for (int p = 0; p < 10; ++p) {
    e.spawn("p" + std::to_string(p), [&](Context& ctx) {
      for (int i = 0; i < 50; ++i) {
        ctx.delay(ctx.engine().rng().next_below(100));
        if (ctx.now() < last) monotone = false;
        last = ctx.now();
      }
    });
  }
  e.run();
  EXPECT_TRUE(monotone);
}

TEST(Engine, KillUnwindsBlockedProcessAndRunTerminates) {
  // A killed process dies at its blocking point: the statement after the
  // interrupted delay never executes, destructors run, and the simulation
  // terminates normally for everyone else.
  Engine e;
  bool victim_resumed = false;
  bool victim_cleaned_up = false;
  bool other_finished = false;
  const int victim = e.spawn("victim", [&](Context& ctx) {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } g{&victim_cleaned_up};
    ctx.delay(10'000);
    victim_resumed = true;
  });
  e.spawn("killer", [&](Context& ctx) {
    ctx.delay(1'000);
    ctx.engine().kill(victim);
  });
  e.spawn("other", [&](Context& ctx) {
    ctx.delay(20'000);
    other_finished = true;
  });
  e.run();
  EXPECT_FALSE(victim_resumed);
  EXPECT_TRUE(victim_cleaned_up);
  EXPECT_TRUE(other_finished);
  EXPECT_EQ(e.now(), 20'000u);
}

TEST(Engine, KillIsIdempotentAndImmediateOnNextBlock) {
  // Killing twice is harmless; the victim dies at its current blocking
  // point without ever resuming the statement after it.
  Engine e;
  int steps = 0;
  const int victim = e.spawn("victim", [&](Context& ctx) {
    steps = 1;
    ctx.delay(5'000);
    steps = 2;
  });
  e.spawn("killer", [&](Context& ctx) {
    ctx.engine().kill(victim);
    ctx.engine().kill(victim);
    EXPECT_TRUE(ctx.engine().kill_requested(victim));
    ctx.delay(1);
  });
  e.run();
  EXPECT_EQ(steps, 1);
}

TEST(Engine, SpawnsFromRunningProcessesAndKillsWhileBlocked) {
  // Half of 512 processes are spawned by running ones, so the process table
  // grows mid-run; every third process is killed while it is blocked. Every
  // body must either finish or unwind, and run() must return.
  Engine e;
  constexpr int kProcs = 512;
  int finished = 0;
  int unwound = 0;
  std::vector<int> pids;
  const auto body = [&](Context& ctx) {
    struct Unwind {
      int* count;
      bool done = false;
      ~Unwind() {
        if (!done) ++*count;
      }
    } u{&unwound};
    ctx.delay(100);
    ctx.delay(100);
    u.done = true;
    ++finished;
  };
  for (int i = 0; i < kProcs / 2; ++i) {
    pids.push_back(e.spawn("parent", [&](Context& ctx) {
      pids.push_back(ctx.engine().spawn("child", body));
      body(ctx);
    }));
  }
  e.spawn("killer", [&](Context& ctx) {
    ctx.delay(50);
    for (std::size_t i = 0; i < pids.size(); i += 3) ctx.engine().kill(pids[i]);
  });
  e.run();
  ASSERT_EQ(pids.size(), static_cast<std::size_t>(kProcs));
  const int killed = (kProcs + 2) / 3;
  EXPECT_EQ(unwound, killed);
  EXPECT_EQ(finished, kProcs - killed);
  EXPECT_EQ(e.now(), 200u);
}

TEST(Engine, BlockingInsideCatchHandlerFails) {
  // The runtime keeps the exceptions being handled per thread, and every
  // process shares the scheduler's thread: blocking inside a handler would
  // interleave them, so it fails loudly instead.
  Engine e;
  bool resumed = false;
  e.spawn("p", [&](Context& ctx) {
    try {
      throw std::runtime_error("handled");
    } catch (const std::runtime_error&) {
      ctx.delay(1);
      resumed = true;
    }
  });
  try {
    e.run();
    FAIL() << "expected Panic";
  } catch (const Panic& p) {
    EXPECT_NE(std::string(p.what()).find("inside a catch handler"),
              std::string::npos);
  }
  EXPECT_FALSE(resumed);
}

// ---------------------------------------------------------------- Channel

TEST(Channel, PushThenRecv) {
  Engine e;
  Channel<int> ch(e);
  int got = 0;
  e.spawn("recv", [&](Context& ctx) { got = ch.recv(ctx); });
  e.spawn("send", [&](Context& ctx) {
    ctx.delay(10);
    ch.push(42);
  });
  e.run();
  EXPECT_EQ(got, 42);
}

TEST(Channel, PreservesFifoOrder) {
  Engine e;
  Channel<int> ch(e);
  std::vector<int> got;
  e.spawn("recv", [&](Context& ctx) {
    for (int i = 0; i < 5; ++i) got.push_back(ch.recv(ctx));
  });
  e.spawn("send", [&](Context& ctx) {
    for (int i = 0; i < 5; ++i) {
      ch.push(i);
      ctx.delay(1);
    }
  });
  e.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, TryRecvNonBlocking) {
  Engine e;
  Channel<int> ch(e);
  e.spawn("p", [&](Context&) {
    EXPECT_FALSE(ch.try_recv().has_value());
    ch.push(7);
    auto v = ch.try_recv();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
  });
  e.run();
}

TEST(Channel, RecvBlocksUntilPush) {
  Engine e;
  Channel<int> ch(e);
  Time recv_time = 0;
  e.spawn("recv", [&](Context& ctx) {
    (void)ch.recv(ctx);
    recv_time = ctx.now();
  });
  e.spawn("send", [&](Context& ctx) {
    ctx.delay(12345);
    ch.push(1);
  });
  e.run();
  EXPECT_EQ(recv_time, 12345u);
}

TEST(Channel, MultipleConsumersEachGetOneMessage) {
  Engine e;
  Channel<int> ch(e);
  int sum = 0;
  for (int i = 0; i < 3; ++i) {
    e.spawn("c" + std::to_string(i),
            [&](Context& ctx) { sum += ch.recv(ctx); });
  }
  e.spawn("producer", [&](Context& ctx) {
    for (int v : {1, 10, 100}) {
      ctx.delay(5);
      ch.push(v);
    }
  });
  e.run();
  EXPECT_EQ(sum, 111);
}

}  // namespace
}  // namespace m3rma::sim
