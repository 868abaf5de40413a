#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <vector>

#include "common/event_loop.h"

namespace eqc {
namespace {

// ---------------------------------------------------------------------------
// EventLoop on a VirtualClock: the deterministic discrete-event
// configuration the EQC engines replay on
// ---------------------------------------------------------------------------

TEST(VirtualEventLoop, EventsRunInTimeOrder)
{
    VirtualClock clock;
    EventLoop loop(clock);
    std::vector<int> order;
    loop.schedule(3.0, [&] { order.push_back(3); });
    loop.schedule(1.0, [&] { order.push_back(1); });
    loop.schedule(2.0, [&] { order.push_back(2); });
    loop.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 3);
    EXPECT_DOUBLE_EQ(loop.now(), 3.0);
}

TEST(VirtualEventLoop, EqualTimesFifoBySequence)
{
    VirtualClock clock;
    EventLoop loop(clock);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        loop.schedule(1.0, [&, i] { order.push_back(i); });
    loop.run();
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(VirtualEventLoop, HandlersCanScheduleMoreEvents)
{
    VirtualClock clock;
    EventLoop loop(clock);
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10)
            loop.schedule(0.5, chain);
    };
    loop.schedule(0.0, chain);
    loop.run();
    EXPECT_EQ(fired, 10);
    EXPECT_DOUBLE_EQ(loop.now(), 4.5);
    EXPECT_EQ(loop.processed(), 10u);
}

TEST(VirtualEventLoop, RunUntilLeavesLaterEventsQueued)
{
    VirtualClock clock;
    EventLoop loop(clock);
    int fired = 0;
    loop.schedule(1.0, [&] { ++fired; });
    loop.schedule(5.0, [&] { ++fired; });
    loop.runUntil(2.0);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(loop.empty());
    loop.run();
    EXPECT_EQ(fired, 2);
}

TEST(VirtualEventLoop, ScheduleAtAbsoluteTime)
{
    VirtualClock clock;
    EventLoop loop(clock);
    double seen = -1.0;
    loop.scheduleAt(7.25, [&] { seen = loop.now(); });
    loop.run();
    EXPECT_DOUBLE_EQ(seen, 7.25);
}

// ---------------------------------------------------------------------------
// Clock semantics of the shared EventLoop
// ---------------------------------------------------------------------------

TEST(EventLoop, VirtualClockJumpsToEachEvent)
{
    VirtualClock clock;
    EventLoop loop(clock);
    std::vector<int> order;
    loop.schedule(3.0, [&] { order.push_back(3); });
    loop.schedule(1.0, [&] { order.push_back(1); });
    loop.scheduleAt(2.0, [&] { order.push_back(2); });
    EXPECT_EQ(loop.pending(), 3u);
    loop.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 3);
    EXPECT_DOUBLE_EQ(loop.now(), 3.0);
    EXPECT_EQ(loop.processed(), 3u);
    EXPECT_TRUE(clock.isVirtual());
}

TEST(EventLoop, PastTimestampsClampToNow)
{
    VirtualClock clock;
    EventLoop loop(clock);
    double firedAt = -1.0;
    loop.scheduleAt(4.0, [&] {
        // Scheduled "in the past" from hour 4: fires immediately at 4
        // instead of rewinding or being dropped.
        loop.scheduleAt(1.0, [&] { firedAt = loop.now(); });
    });
    loop.run();
    EXPECT_DOUBLE_EQ(firedAt, 4.0);
}

TEST(EventLoop, RunUntilAdvancesClockWhenIdle)
{
    VirtualClock clock;
    EventLoop loop(clock);
    loop.schedule(1.0, [] {});
    loop.runUntil(6.0);
    EXPECT_TRUE(loop.empty());
    EXPECT_DOUBLE_EQ(loop.now(), 6.0);
}

TEST(EventLoop, SteadyClockFiresInRealTime)
{
    // 0.02 wall seconds per model hour: three events one model hour
    // apart must take at least ~2 x 20 ms of wall time (the first is
    // due immediately by the time the loop starts) and fire in order.
    SteadyClock clock(0.02);
    EventLoop loop(clock);
    std::vector<int> order;
    const auto wall0 = std::chrono::steady_clock::now();
    loop.scheduleAt(2.0, [&] { order.push_back(2); });
    loop.scheduleAt(1.0, [&] { order.push_back(1); });
    loop.scheduleAt(3.0, [&] { order.push_back(3); });
    loop.run();
    const double wallS =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 3);
    EXPECT_GE(wallS, 0.04);
    EXPECT_GE(loop.now(), 3.0);
    EXPECT_FALSE(clock.isVirtual());
}

TEST(EventLoop, SteadyClockNeverSleepsForThePast)
{
    SteadyClock clock(100.0); // a model hour takes 100 wall seconds
    EventLoop loop(clock);
    int fired = 0;
    const auto wall0 = std::chrono::steady_clock::now();
    loop.scheduleAt(0.0, [&] { ++fired; }); // due immediately
    loop.run();
    const double wallS =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();
    EXPECT_EQ(fired, 1);
    EXPECT_LT(wallS, 5.0); // no sleep anywhere near the hour scale
}

} // namespace
} // namespace eqc
