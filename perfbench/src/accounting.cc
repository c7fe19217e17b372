#include "accounting.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>


namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, const std::string& label) {
  // FNV-1a over the label, folded into the seed through one splitmix step.
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : label) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  Rng rng(seed ^ h);
  return rng.Next();
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> offsets;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return offsets;
  offsets.reserve(static_cast<size_t>(rate_per_s * duration_s * 1.1) + 16);
  Rng rng(seed);
  double t = 0.0;
  for (;;) {
    // Exponential gap; 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.Uniform()) / rate_per_s;
    if (t >= duration_s) break;
    offsets.push_back(t);
  }
  return offsets;
}

std::vector<uint64_t> ZipfKeys(uint64_t seed, size_t count, size_t num_keys,
                               double exponent) {
  std::vector<double> cdf(std::max<size_t>(num_keys, 1));
  double sum = 0.0;
  for (size_t k = 0; k < cdf.size(); ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf[k] = sum;
  }
  for (double& c : cdf) c /= sum;
  std::vector<uint64_t> keys(count);
  Rng rng(seed);
  for (uint64_t& key : keys) {
    const double u = rng.Uniform();
    key = static_cast<uint64_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                cdf.begin());
    if (key >= cdf.size()) key = cdf.size() - 1;
  }
  return keys;
}

void WaitUntilNs(int64_t target_ns) {
  // Sleep only while far away, then spin: a sleeping thread can wake a
  // millisecond late on a loaded or virtualized box, and a late generator
  // inflates every latency measured from the schedule.
  constexpr int64_t kSpinNs = 2'000'000;
  for (;;) {
    const int64_t left = target_ns - NowNs();
    if (left <= 0) return;
    if (left > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    } else {
      CpuRelax();
    }
  }
}

RateSlicer::RateSlicer(int64_t start_ns, double duration_s, size_t slices)
    : warm_end_ns_(start_ns + static_cast<int64_t>(0.2 * duration_s * 1e9)),
      end_ns_(start_ns + static_cast<int64_t>(duration_s * 1e9)),
      slices_(slices) {}

bool RateSlicer::Tick(int64_t now_ns, uint64_t completed) {
  const size_t k = mark_ns_.size();
  const int64_t boundary =
      warm_end_ns_ + (end_ns_ - warm_end_ns_) * static_cast<int64_t>(k) /
                         static_cast<int64_t>(slices_);
  if (now_ns >= boundary) {
    mark_ns_.push_back(now_ns);
    mark_done_.push_back(completed);
  }
  return mark_ns_.size() <= slices_;
}

double RateSlicer::MedianRate() const {
  std::vector<double> rates;
  for (size_t k = 0; k + 1 < mark_ns_.size(); ++k) {
    rates.push_back(static_cast<double>(mark_done_[k + 1] - mark_done_[k]) /
                    ((mark_ns_[k + 1] - mark_ns_[k]) * 1e-9));
  }
  return Median(rates);
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n));
  return rank >= n ? 0 : n - rank;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double SegmentedPercentile(const std::vector<double>& time_ordered, double q,
                           size_t segments, bool* ok) {
  const size_t n = time_ordered.size();
  while (segments > 1 && !TailSupported(n / segments, q)) --segments;
  *ok = segments >= 1 && TailSupported(n / segments, q);
  if (!*ok) return 0.0;
  std::vector<double> per_segment;
  for (size_t s = 0; s < segments; ++s) {
    const size_t lo = s * n / segments;
    const size_t hi = (s + 1) * n / segments;
    per_segment.push_back(Percentile(
        std::vector<double>(time_ordered.begin() + lo,
                            time_ordered.begin() + hi),
        q));
  }
  return Median(per_segment);
}

Verdict Judge(const std::vector<PhaseOps>& phases, size_t failed_checks) {
  Verdict verdict;
  for (const PhaseOps& ops : phases) {
    verdict.attempted += ops.sent;
    verdict.failed += ops.failed;
  }
  verdict.correct = failed_checks == 0 && verdict.failed == 0;
  return verdict;
}

namespace {

/// Layer of a span name: the text before the first '.'.
std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

uint64_t Tracer::Record(const std::string& name, int64_t start_ns,
                        int64_t end_ns, uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

uint64_t Tracer::Open(const std::string& name, int64_t start_ns,
                      uint64_t parent) {
  return Record(name, start_ns, start_ns, parent);
}

void Tracer::Close(uint64_t id, int64_t end_ns) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end_ns;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::pair<std::string, double>> Tracer::SelfSecondsByLayer()
    const {
  const std::vector<Span> all = spans();
  // Children's intervals per parent, clipped to the parent and merged so
  // overlapping children are not subtracted twice.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Span& s : all) {
    if (s.parent != 0 && s.parent <= all.size()) {
      const Span& p = all[s.parent - 1];
      const int64_t lo = std::max(s.start_ns, p.start_ns);
      const int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) kids[s.parent].push_back({lo, hi});
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : all) {
    int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = iv.front().first;
      int64_t cur_hi = iv.front().second;
      for (size_t i = 1; i < iv.size(); ++i) {
        if (iv[i].first > cur_hi) {
          covered += cur_hi - cur_lo;
          cur_lo = iv[i].first;
          cur_hi = iv[i].second;
        } else {
          cur_hi = std::max(cur_hi, iv[i].second);
        }
      }
      covered += cur_hi - cur_lo;
    }
    const int64_t own = std::max<int64_t>(0, (s.end_ns - s.start_ns) - covered);
    self[LayerOf(s.name)] += static_cast<double>(own) * 1e-9;
  }
  return {self.begin(), self.end()};
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans()) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
