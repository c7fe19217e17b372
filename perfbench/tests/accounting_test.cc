// Tests of the benchmark's own accounting: open-loop latency charges a
// stall to the requests queued behind it, reported tails keep ten
// samples beyond them, every input is a pure function of the seed, and a
// failed op fails the run.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <numeric>
#include <thread>

#include <gtest/gtest.h>

#include "accounting.h"

namespace perfbench {
namespace {

constexpr double kRate = 2000.0;
constexpr double kDuration = 0.4;
constexpr auto kStall = std::chrono::milliseconds(50);

struct Latencies {
  std::vector<double> from_schedule_ms;
  std::vector<double> from_send_ms;
  int64_t max_late_ns = 0;
};

/// Drives a fake system that serves each request inline, in the sender's
/// thread, and stalls once for 50 ms at t = 0.1 s: the worst case for
/// coordinated omission, since the sender itself is held up.
Latencies RunSynchronousStall() {
  const std::vector<double> offsets = PoissonSchedule(7, kRate, kDuration);
  std::vector<int64_t> sent(offsets.size());
  std::vector<int64_t> done(offsets.size());
  std::vector<int64_t> late;
  bool stalled = false;
  const int64_t start = NowNs() + 1'000'000;
  RunOpenLoop(offsets, start, &late, [&](size_t i) {
    sent[i] = NowNs();
    if (!stalled && offsets[i] >= 0.1) {
      stalled = true;
      std::this_thread::sleep_for(kStall);
    }
    done[i] = NowNs();
  });
  Latencies out;
  for (size_t i = 0; i < offsets.size(); ++i) {
    out.from_schedule_ms.push_back(
        (done[i] - ScheduledNs(start, offsets[i])) * 1e-6);
    out.from_send_ms.push_back((done[i] - sent[i]) * 1e-6);
  }
  out.max_late_ns = *std::max_element(late.begin(), late.end());
  return out;
}

TEST(OpenLoop, StallIsChargedToTheRequestsBehindIt) {
  const Latencies lat = RunSynchronousStall();
  // Requests due during the 50 ms stall wait for it: about rate x 50 ms
  // of them, the earliest nearly 50 ms late.
  const auto slow = std::count_if(lat.from_schedule_ms.begin(),
                                  lat.from_schedule_ms.end(),
                                  [](double ms) { return ms >= 20.0; });
  EXPECT_GE(slow, 30);
  EXPECT_GE(*std::max_element(lat.from_schedule_ms.begin(),
                              lat.from_schedule_ms.end()),
            45.0);
  EXPECT_GE(lat.max_late_ns, 40'000'000);
  // Timed from the actual send, only the stalled request itself looks
  // slow: exactly the coordinated omission the schedule-based clock avoids.
  const auto slow_by_send = std::count_if(
      lat.from_send_ms.begin(), lat.from_send_ms.end(),
      [](double ms) { return ms >= 20.0; });
  EXPECT_LE(slow_by_send, 1);
}

TEST(OpenLoop, AsyncStallShowsInQueuedRequests) {
  // The sender never blocks; a worker drains a FIFO and stalls once.
  const std::vector<double> offsets = PoissonSchedule(9, kRate, kDuration);
  std::vector<int64_t> done(offsets.size(), 0);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> queue;
  bool finished = false;
  std::thread worker([&] {
    bool stalled = false;
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return finished || !queue.empty(); });
      if (queue.empty()) return;
      const size_t i = queue.front();
      queue.pop_front();
      lock.unlock();
      if (!stalled && offsets[i] >= 0.1) {
        stalled = true;
        std::this_thread::sleep_for(kStall);
      }
      done[i] = NowNs();
    }
  });
  std::vector<int64_t> late;
  const int64_t start = NowNs() + 1'000'000;
  RunOpenLoop(offsets, start, &late, [&](size_t i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(i);
    }
    cv.notify_one();
  });
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_one();
  worker.join();
  std::vector<double> ms;
  for (size_t i = 0; i < offsets.size(); ++i) {
    ms.push_back((done[i] - ScheduledNs(start, offsets[i])) * 1e-6);
  }
  EXPECT_GE(std::count_if(ms.begin(), ms.end(),
                          [](double v) { return v >= 20.0; }),
            30);
  // The generator itself stayed on schedule.
  EXPECT_LT(Percentile(std::vector<double>(late.begin(), late.end()), 50),
            1e6);
}

TEST(Percentiles, ReportedTailKeepsTenSamplesBeyond) {
  for (size_t n = 1000; n < 6000; n += 37) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 0.0);
    std::reverse(v.begin(), v.end());
    ASSERT_TRUE(TailSupported(n, 99)) << n;
    const double p99 = Percentile(v, 99);
    const auto beyond =
        std::count_if(v.begin(), v.end(), [&](double x) { return x > p99; });
    EXPECT_GE(beyond, 10) << n;
    EXPECT_EQ(static_cast<size_t>(beyond), SamplesBeyond(n, 99)) << n;
  }
  EXPECT_FALSE(TailSupported(999, 99));
  EXPECT_TRUE(TailSupported(100, 90));
  EXPECT_FALSE(TailSupported(99, 90));
}

TEST(Percentiles, SegmentsShrinkUntilEachSupportsTheTail) {
  std::vector<double> v(3000);
  std::iota(v.begin(), v.end(), 0.0);
  bool ok = false;
  SegmentedPercentile(v, 99, 5, &ok);  // 5 x 600 would not; 3 x 1000 does
  EXPECT_TRUE(ok);
  SegmentedPercentile(std::vector<double>(900, 1.0), 99, 5, &ok);
  EXPECT_FALSE(ok);
  // Median of per-segment p50s of a constant-per-segment series.
  std::vector<double> steps;
  for (int s = 0; s < 5; ++s) steps.insert(steps.end(), 1000, s * 1.0);
  EXPECT_DOUBLE_EQ(SegmentedPercentile(steps, 50, 5, &ok), 2.0);
}

TEST(Schedule, PoissonIsAPureFunctionOfTheSeed) {
  const std::vector<double> a = PoissonSchedule(42, 5000.0, 2.0);
  const std::vector<double> b = PoissonSchedule(42, 5000.0, 2.0);
  const std::vector<double> c = PoissonSchedule(43, 5000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 2.0);
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 400.0);
  EXPECT_EQ(ZipfKeys(5, 1000, 64, 1.1), ZipfKeys(5, 1000, 64, 1.1));
  EXPECT_NE(StreamSeed(1, "arrivals"), StreamSeed(1, "keys"));
  EXPECT_EQ(StreamSeed(1, "arrivals"), StreamSeed(1, "arrivals"));
}

TEST(Schedule, ZipfKeysAreSkewed) {
  const std::vector<uint64_t> keys = ZipfKeys(3, 100000, 1024, 1.1);
  const auto hot = std::count(keys.begin(), keys.end(), 0u);
  const auto cold = std::count(keys.begin(), keys.end(), 1000u);
  EXPECT_GT(hot, 50 * std::max<decltype(cold)>(cold, 1));
}

TEST(RateSlicer, MedianSliceRateSkipsWarmup) {
  // 1 s phase, 4 slices after a 200 ms warm-up; 1000 completions/s after
  // a warm-up that ran at 100/s.
  RateSlicer slicer(0, 1.0, 4);
  uint64_t done = 0;
  int64_t t = 0;
  for (; slicer.Tick(t, done); t += 1'000'000) {
    done += t < 200'000'000 ? (t % 10'000'000 == 0 ? 1 : 0) : 1;
  }
  EXPECT_GE(t, 1'000'000'000);
  EXPECT_NEAR(slicer.MedianRate(), 1000.0, 10.0);
}

TEST(Verdict, AnyFailedOpOrCheckFailsTheRun) {
  std::vector<PhaseOps> phases = {{"poisson", 1000, 1000, 0},
                                  {"saturation", 5000, 5000, 0}};
  Verdict clean = Judge(phases, 0);
  EXPECT_TRUE(clean.correct);
  EXPECT_EQ(clean.attempted, 6000u);
  EXPECT_EQ(clean.failed, 0u);
  // One rejected submit, with no check having noticed it.
  phases.push_back({"hot_swap", 200, 199, 1});
  const Verdict failed_op = Judge(phases, 0);
  EXPECT_FALSE(failed_op.correct);
  EXPECT_EQ(failed_op.failed, 1u);
  phases.pop_back();
  EXPECT_FALSE(Judge(phases, 1).correct);
}

TEST(Tracer, SelfTimeSubtractsMergedChildren) {
  Tracer tracer(true);
  const uint64_t root = tracer.Record("serve.request", 0, 100);
  tracer.Record("core.a", 10, 30, root);
  tracer.Record("core.b", 20, 50, root);  // overlaps core.a
  tracer.Record("ml.c", 60, 70, root);
  double serve = 0.0;
  double core = 0.0;
  double ml = 0.0;
  for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
    if (layer == "serve") serve = seconds;
    if (layer == "core") core = seconds;
    if (layer == "ml") ml = seconds;
  }
  EXPECT_NEAR(serve, 50e-9, 1e-15);
  EXPECT_NEAR(core, 50e-9, 1e-15);
  EXPECT_NEAR(ml, 10e-9, 1e-15);
  Tracer off(false);
  EXPECT_EQ(off.Record("serve.x", 0, 1), 0u);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
