// The benchmark's own accounting: seeded arrival schedules, open-loop
// pacing, latency percentiles with a supported tail, and in-memory spans.
//
// Nothing here touches the falcc library, so the selftest can drive it
// against fake systems (tests/accounting_test.cc).

#ifndef FALCC_PERFBENCH_ACCOUNTING_H_
#define FALCC_PERFBENCH_ACCOUNTING_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (arbitrary epoch, monotonic).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the benchmark's only source of randomness, so every input
/// is a pure function of the seed on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from a run seed and a label.
uint64_t StreamSeed(uint64_t seed, const std::string& label);

/// Poisson arrivals: offsets in seconds from the phase start, strictly
/// increasing, all below `duration_s`. Pure function of its arguments.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s);

/// `count` routing keys drawn from a Zipf(`exponent`) law over
/// `num_keys` keys (key 0 hottest); exponent 0 gives uniform keys.
std::vector<uint64_t> ZipfKeys(uint64_t seed, size_t count, size_t num_keys,
                               double exponent);

/// One spin-wait iteration (the x86 pause hint). Pacing loops spin
/// rather than yield: a yielding generator shares its core with any other
/// runnable thread and falls milliseconds behind its schedule, which the
/// scheduled-time latencies would then charge to the system.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Sleeps, then spins, until NowNs() >= target_ns.
void WaitUntilNs(int64_t target_ns);

/// Throughput of a saturation phase: a 20% warm-up, then `slices` equal
/// slices; reports the median slice's completion rate.
class RateSlicer {
 public:
  RateSlicer(int64_t start_ns, double duration_s, size_t slices);
  /// Records `completed` at each slice boundary `now` has passed. Returns
  /// false once the phase is over.
  bool Tick(int64_t now_ns, uint64_t completed);
  double MedianRate() const;

 private:
  int64_t warm_end_ns_;
  int64_t end_ns_;
  size_t slices_;
  std::vector<int64_t> mark_ns_;
  std::vector<uint64_t> mark_done_;
};

/// Open-loop pacing: calls send(i) for every scheduled offset, as soon as
/// its due time (start_ns + offset) has passed, never waiting for earlier
/// sends to complete. `late_ns[i]` receives how late send(i) started.
/// A latency must be taken from the *scheduled* time (ScheduledNs), so a
/// stall that delays later sends is charged to them, not hidden.
template <typename Send>
void RunOpenLoop(const std::vector<double>& offsets_s, int64_t start_ns,
                 std::vector<int64_t>* late_ns, Send&& send) {
  late_ns->assign(offsets_s.size(), 0);
  for (size_t i = 0; i < offsets_s.size(); ++i) {
    const int64_t due = start_ns + static_cast<int64_t>(offsets_s[i] * 1e9);
    WaitUntilNs(due);
    (*late_ns)[i] = NowNs() - due;
    send(i);
  }
}

inline int64_t ScheduledNs(int64_t start_ns, double offset_s) {
  return start_ns + static_cast<int64_t>(offset_s * 1e9);
}

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample;
/// 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// Samples strictly above the nearest-rank q-th percentile position of n
/// samples: n - ceil(q/100 * n).
size_t SamplesBeyond(size_t n, double q);

/// Whether a q-th percentile of n samples keeps at least 10 samples
/// beyond it (the rule every reported tail follows).
inline bool TailSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

/// The q-th percentile of each of `segments` consecutive, equal slices of
/// a time-ordered sample, then the median of those; damps one noisy
/// stretch of a run. Segments shrink in number until each supports q.
/// Returns 0 and sets *ok = false when even one segment cannot.
double SegmentedPercentile(const std::vector<double>& time_ordered, double q,
                           size_t segments, bool* ok);

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> values);

/// Ops of one phase: sent, succeeded, failed.
struct PhaseOps {
  std::string phase;
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
};

/// A run's totals and verdict: correct only when no check failed and no
/// phase reported a failed op.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = false;
};
Verdict Judge(const std::vector<PhaseOps>& phases, size_t failed_checks);

/// One span: the benchmark's own timing of one call into a layer.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< request id, 0 = not a request
  std::string name;      ///< "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store; written out when the run ends. Thread-safe.
/// Disabled tracers record nothing and hand out id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Records a finished span and returns its id (> 0 when enabled).
  uint64_t Record(const std::string& name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent = 0, uint64_t request = 0);

  /// Reserves an id for a span whose end is not known yet; finish it with
  /// Close. Lets children name their parent while it is open.
  uint64_t Open(const std::string& name, int64_t start_ns,
                uint64_t parent = 0);
  void Close(uint64_t id, int64_t end_ns);

  std::vector<Span> spans() const;

  /// Self time per layer (the name's prefix before the first '.'):
  /// each span's duration minus the part of it its children cover.
  std::vector<std::pair<std::string, double>> SelfSecondsByLayer() const;

  /// One JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // FALCC_PERFBENCH_ACCOUNTING_H_
